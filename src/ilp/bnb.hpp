// Exact 0-1 branch and bound with constraint propagation.
//
// The solver decomposes the model into independent components (variables
// that never share a constraint can be optimized separately — the DVI ILP
// splits into one component per via cluster), then runs depth-first branch
// and bound per component:
//
//  * bound propagation: min/max-activity reasoning fixes forced variables
//    and prunes infeasible subtrees,
//  * dual bound: sum of remaining positive objective coefficients, optionally
//    tightened by an LP relaxation at the component root,
//  * branching: highest |objective coefficient| first, objective-improving
//    value first.
//
// Limits (nodes, thread CPU time) turn the solver into an anytime optimizer
// that reports kFeasible instead of kOptimal, mirroring a time-limited Gurobi
// run.
#pragma once

#include <cstddef>

#include "ilp/model.hpp"
#include "util/cancel.hpp"

namespace sadp::ilp {

struct BnbParams {
  std::size_t max_nodes = 50'000'000;
  double time_limit_seconds = 600.0;
  /// Cooperative external stop (wall deadline / batch cancel), polled with
  /// the CPU-time budget above (util::SolverBudget: first node of every
  /// component, then every 256th).  When it fires the solver returns its
  /// incumbent as kFeasible, exactly like hitting the node or time limit.
  util::CancelToken cancel;
  /// Solve an LP relaxation at each component root to tighten the bound.
  bool root_lp_bound = true;
  /// Optional feasible assignment (one 0/1 value per model variable) used
  /// as the initial incumbent; infeasible warm starts are ignored.
  const std::vector<int>* warm_start = nullptr;
};

/// Solve a 0-1 model to optimality (within limits).
[[nodiscard]] Solution solve(const Model& model, const BnbParams& params = {});

}  // namespace sadp::ilp
