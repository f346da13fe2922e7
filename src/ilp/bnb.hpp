// Exact 0-1 branch and bound with constraint propagation.
//
// The solver decomposes the model into independent components (variables
// that never share a constraint can be optimized separately — the DVI ILP
// splits into one component per via cluster), then runs depth-first branch
// and bound per component:
//
//  * bound propagation: min/max-activity reasoning fixes forced variables
//    and prunes infeasible subtrees,
//  * dual bound: sum of remaining positive objective coefficients, tightened
//    by an LP relaxation at the root of every component of up to 400
//    variables,
//  * branching: highest |objective coefficient| first, objective-improving
//    value first.
//
// Limits (nodes, the caller's budget) turn the solver into an anytime
// optimizer that reports kFeasible instead of kOptimal, mirroring a
// time-limited Gurobi run.
#pragma once

#include <cstddef>

#include "ilp/model.hpp"
#include "util/timer.hpp"

namespace sadp::ilp {

struct BnbParams {
  std::size_t max_nodes = 50'000'000;
  /// Optional feasible assignment (one 0/1 value per model variable) used
  /// as the initial incumbent; infeasible warm starts are ignored.
  const std::vector<int>* warm_start = nullptr;
};

/// Solve a 0-1 model to optimality (within limits), polling `budget` before
/// every component and inside its search.  Once it is spent, each remaining
/// component keeps its part of the warm start unsearched (kUnknown without
/// one).  The default budget has no time limit and no token.
[[nodiscard]] Solution solve(const Model& model, const BnbParams& params = {},
                             const util::SolverBudget& budget = {});

}  // namespace sadp::ilp
