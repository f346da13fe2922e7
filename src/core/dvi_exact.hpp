// Domain-specific exact solver for the TPL-aware DVI problem.
//
// The literal C1-C8 ILP (dvi_ilp.hpp) carries four color variables per via
// and per candidate, which a general-purpose 0-1 solver must branch over.
// This solver exploits the structure instead:
//
//  * vias decompose into spatial components (no TPL interaction across a
//    Chebyshev distance > 4 of via centers — features sit within 1 of a
//    center and conflicts reach sqrt(8) < 3);
//  * within a component it branches only over the insertion choice of each
//    via ({none} + feasible DVICs), pruning combinations that create an FVP
//    (a valid cut: an FVP window is never 3-colorable);
//  * it bounds each search node by the undecided vias that still have a
//    free, FVP-safe candidate: insertions only add vias, and a location
//    that is taken or would complete an FVP stays so (every superset of an
//    FVP window is an FVP), so no deeper insertion can revive it;
//  * colors are not searched at all: at every leaf an exact backtracking
//    3-coloring decides feasibility (catching the rare wheel patterns the
//    FVP cut misses).
//
// The result is optimal for components whose original vias are 3-colorable
// (always the case after TPL-aware routing).  Components with uncolorable
// originals — possible in the no-TPL experiment arms — fall back to a
// greedy pre-coloring and are flagged non-optimal.
#pragma once

#include "core/dvic.hpp"
#include "util/cancel.hpp"
#include "via/via_db.hpp"

namespace sadp::core {

struct DviExactParams {
  double time_limit_seconds = 120.0;
  /// Per-component search budget: a single pathological cluster degrades to
  /// its warm-start solution instead of starving every other component.
  std::size_t component_node_limit = 4'000'000;
  /// Cooperative external stop (wall deadline / batch cancel); when it
  /// fires the solver keeps its incumbent and reports non-optimal.
  util::CancelToken cancel;
};

struct DviExactOutput : DviSolution {
  bool proven_optimal = false;
  std::size_t nodes = 0;
};

[[nodiscard]] DviExactOutput solve_dvi_exact(const DviProblem& problem,
                                             const via::ViaDb& vias,
                                             const DviExactParams& params = {});

}  // namespace sadp::core
