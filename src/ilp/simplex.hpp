// Dense primal simplex for the LP relaxation of a 0-1 model.
//
// Used to obtain dual (upper) bounds at the root of the branch-and-bound
// search in bnb.cpp and as a standalone LP solver in tests.  Variables are
// relaxed to [0, 1]; the implementation is a textbook Big-M tableau simplex
// with Bland's rule as an anti-cycling fallback.  Problem sizes here are
// small (a DVI component has at most a few hundred variables), so a dense
// tableau is the right trade-off.
#pragma once

#include <optional>
#include <vector>

#include "ilp/model.hpp"

namespace sadp::ilp {

struct LpResult {
  enum class Status { kOptimal, kInfeasible, kUnbounded, kIterLimit } status =
      Status::kIterLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< primal values (original variables only)
};

/// Solve the LP relaxation of `model` (variables in [0, 1]).
/// `var_fixed` optionally pins variables: -1 free, 0 or 1 fixed.  Gives up
/// with kIterLimit after 20000 pivots.
[[nodiscard]] LpResult solve_lp_relaxation(
    const Model& model, const std::vector<int>* var_fixed = nullptr);

}  // namespace sadp::ilp
