// Parameters of the SADP-aware detailed routing flow.
//
// The cost-assignment parameters follow the paper's Table II: alpha = 8
// (BDC numerator), AMC = 1, beta = 4 (CDC numerator), gamma = 4 (TPLC
// multiplier); the DVI-penalty weights delta = lambda = mu = 1.  Only the
// four cost weights vary between experiments (Table V and the ablations),
// so only they are settable; the DVI-penalty weights are constants here,
// and the base routing costs and the negotiation schedule of [20], which
// the paper inherits, are constants of the maze and the router.
#pragma once

#include <cstddef>

#include "grid/colored_grid.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"

namespace sadp::core {

/// Cost-assignment scheme parameters (paper Section III-B, Table II).
struct CostParams {
  double alpha = 8.0;  ///< BDC = alpha / #feasible DVICs of the via
  double amc = 1.0;    ///< along-metal cost (constant)
  double beta = 4.0;   ///< CDC = beta / #feasible DVICs of the via
  double gamma = 4.0;  ///< TPLC = gamma * #coloring conflicts
};

/// DVI-penalty weights of the post-routing heuristic (Algorithm 3): of the
/// via's #feasible DVICs, of the DVIC's #conflicting DVICs, and of the
/// #DVICs the DVIC would kill.
inline constexpr double kDviDelta = 1.0;
inline constexpr double kDviLambda = 1.0;
inline constexpr double kDviMu = 1.0;

/// The conference version [36] used smaller cost-assignment weights; the
/// journal version "enlarges the parameters to emphasize DVI consideration"
/// (Table V).  These reproduce that ablation.
[[nodiscard]] inline CostParams conference_cost_params() {
  return CostParams{2.0, 0.5, 1.0, 4.0};
}

/// Which of the paper's optional considerations are active.  The four
/// combinations are the four experiment arms of Tables III/IV.
struct FlowOptions {
  grid::SadpStyle style = grid::SadpStyle::kSim;
  bool consider_dvi = false;  ///< BDC/AMC/CDC costs in routing
  bool consider_tpl = false;  ///< TPLC cost + TPL-violation-removal R&R
  CostParams cost;
  /// Partition-parallel routing: shard the grid into up to `partitions`
  /// strip regions (with kPartitionHalo slack each side of the cuts, see
  /// core/partition.hpp), route regions concurrently on private sub-grid
  /// worlds, then merge and reconcile boundary/halo conflicts serially.
  /// 1 (the default) runs the classic single-world flow bit-identically;
  /// results at a fixed K > 1 are deterministic but follow a different
  /// (cost-equivalent) net order than K = 1 — see DESIGN.md section 14.
  int partitions = 1;
  /// Threads for the region workers.  Null = spawn one transient
  /// std::thread per region.  Never hand this a fixed-size pool that is
  /// itself executing the enclosing job (see util/executor.hpp on
  /// re-entrancy) — the engine deliberately does not forward its pool here.
  util::Executor* executor = nullptr;
  /// Cooperative stop signal, polled by the router's R&R loops, the
  /// coloring fix loop and the DVI solvers.  A default token never fires;
  /// the FlowEngine installs one per job (job deadline + batch cancel).
  /// When it fires the flow stops early and reports a cancelled/timeout
  /// status instead of a complete result.
  util::CancelToken cancel;
};

}  // namespace sadp::core
