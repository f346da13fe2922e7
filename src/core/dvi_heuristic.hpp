// Fast heuristic for the TPL-aware double via insertion problem (paper
// Section III-E, Algorithm 3).
//
// Existing vias are pre-colored by Welsh-Powell.  Every feasible DVIC is
// pushed into a priority queue ordered by its DVI penalty
//
//   DP = delta * #feasibleDVICs(via)            (protect fragile vias first)
//      + lambda * #conflicting DVICs            (avoid starving neighbors)
//      + mu * #killed DVICs                     (avoid creating near-FVPs)
//
// with the Table II weights delta = lambda = mu = 1 (core/params.hpp),
// and lazy re-evaluation (a popped entry whose stored DP is stale is
// re-pushed with the fresh value).  An insertion is valid when no redundant
// via occupies a conflicting DVIC, the via is not yet protected, and the
// insertion creates no FVP.  Finally the inserted redundant vias are TPL
// colored with the original colors fixed, and uncolorable insertions are
// undone — so the via layers stay TPL decomposable by construction.
#pragma once

#include "core/dvic.hpp"
#include "via/via_db.hpp"

namespace sadp::core {

/// Detailed outcome of the heuristic: the solution plus the TPL colors
/// (used by the ILP warm start, validation and the demos).
struct DviHeuristicOutput : DviSolution {
  /// TPL color of each original via (via::kUncolored when the greedy
  /// pre-coloring could not color it).
  std::vector<int> original_color;
  /// TPL color of each via's inserted redundant via; meaningful only when
  /// result.inserted[i] >= 0 (always a real color then — uncolorable
  /// insertions are undone).
  std::vector<int> redundant_color;
};

/// Extensions beyond the paper's Algorithm 3 (all default-off; the
/// benchmark tables run the faithful algorithm).
struct DviHeuristicOptions {
  /// After the main pass (and un-insertion of uncolorable redundancies),
  /// re-run the insertion loop over still-dead vias up to this many times.
  /// Un-insertions free locations and colors, so a repair pass recovers
  /// some of the gap to the exact optimum at negligible cost.
  int repair_passes = 0;
};

/// Run Algorithm 3.  `vias` must hold exactly the original vias of the
/// routing solution (it is copied; insertions happen on the copy).
[[nodiscard]] DviHeuristicOutput run_dvi_heuristic(
    const DviProblem& problem, const via::ViaDb& vias,
    const DviHeuristicOptions& options = {});

}  // namespace sadp::core
