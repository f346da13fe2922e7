// Tests of the in-house 0-1 ILP stack: model, simplex LP relaxation,
// component decomposition, and branch & bound (including brute-force
// cross-checks on random instances).
#include <gtest/gtest.h>

#include <cmath>

#include "ilp/bnb.hpp"
#include "ilp/components.hpp"
#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace sadp::ilp {
namespace {

TEST(Model, ObjectiveAndFeasibility) {
  Model m;
  const VarId x = m.add_var("x");
  const VarId y = m.add_var("y");
  m.set_objective({{x, 3.0}, {y, 2.0}}, true);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0);

  EXPECT_TRUE(m.feasible({1, 0}));
  EXPECT_TRUE(m.feasible({0, 1}));
  EXPECT_FALSE(m.feasible({1, 1}));
  EXPECT_DOUBLE_EQ(m.objective_value({1, 0}), 3.0);
}

TEST(Simplex, SimpleLp) {
  // max 3x + 2y st x + y <= 1, x,y in [0,1] -> x=1, obj 3.
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.set_objective({{x, 3.0}, {y, 2.0}}, true);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0);

  const LpResult lp = solve_lp_relaxation(m);
  ASSERT_EQ(lp.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(lp.objective, 3.0, 1e-6);
  EXPECT_NEAR(lp.x[x], 1.0, 1e-6);
}

TEST(Simplex, FractionalOptimum) {
  // max x + y st 2x + y <= 1.5, x + 2y <= 1.5 -> x=y=0.5, obj 1.
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.set_objective({{x, 1.0}, {y, 1.0}}, true);
  m.add_constraint({{x, 2.0}, {y, 1.0}}, Sense::kLe, 1.5);
  m.add_constraint({{x, 1.0}, {y, 2.0}}, Sense::kLe, 1.5);

  const LpResult lp = solve_lp_relaxation(m);
  ASSERT_EQ(lp.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(lp.objective, 1.0, 1e-6);
}

TEST(Simplex, RespectsUpperBounds) {
  // max x with no constraints: bounded by x <= 1.
  Model m;
  const VarId x = m.add_var();
  m.set_objective({{x, 5.0}}, true);
  const LpResult lp = solve_lp_relaxation(m);
  ASSERT_EQ(lp.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(lp.objective, 5.0, 1e-6);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  const VarId x = m.add_var();
  m.set_objective({{x, 1.0}}, true);
  m.add_constraint({{x, 1.0}}, Sense::kGe, 2.0);  // x <= 1 < 2
  const LpResult lp = solve_lp_relaxation(m);
  EXPECT_EQ(lp.status, LpResult::Status::kInfeasible);
}

TEST(Simplex, HonorsFixedVariables) {
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.set_objective({{x, 1.0}, {y, 1.0}}, true);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0);
  const std::vector<int> fixed = {1, -1};
  const LpResult lp = solve_lp_relaxation(m, &fixed);
  ASSERT_EQ(lp.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(lp.objective, 1.0, 1e-6);
  EXPECT_NEAR(lp.x[y], 0.0, 1e-6);
}

TEST(Components, SplitsIndependentParts) {
  Model m;
  const VarId a = m.add_var();
  const VarId b = m.add_var();
  const VarId c = m.add_var();
  const VarId d = m.add_var();
  m.set_objective({{a, 1.0}, {b, 1.0}, {c, 1.0}, {d, 1.0}}, true);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0);
  m.add_constraint({{c, 1.0}, {d, 1.0}}, Sense::kLe, 1.0);

  const auto comps = split_components(m);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].model.num_vars(), 2);
  EXPECT_EQ(comps[1].model.num_vars(), 2);
  EXPECT_EQ(comps[0].model.num_constraints(), 1);
}

TEST(Components, SingletonVariablesFormComponents) {
  Model m;
  m.add_var();
  m.add_var();
  m.set_objective({{0, 1.0}}, true);
  const auto comps = split_components(m);
  EXPECT_EQ(comps.size(), 2u);
}

TEST(Bnb, KnapsackStyle) {
  // max 5a + 4b + 3c st a+b <= 1, b+c <= 1 -> a=c=1, obj 8.
  Model m;
  const VarId a = m.add_var();
  const VarId b = m.add_var();
  const VarId c = m.add_var();
  m.set_objective({{a, 5.0}, {b, 4.0}, {c, 3.0}}, true);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0);
  m.add_constraint({{b, 1.0}, {c, 1.0}}, Sense::kLe, 1.0);

  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 8.0, 1e-9);
  EXPECT_EQ(sol.value[a], 1);
  EXPECT_EQ(sol.value[b], 0);
  EXPECT_EQ(sol.value[c], 1);
}

TEST(Bnb, EqualityAndBigM) {
  // Mimic the DVI C4 shape: color sum equals 1 when D=1, free when D=0.
  Model m;
  const VarId d = m.add_var();
  const VarId o = m.add_var();
  const VarId g = m.add_var();
  const VarId b = m.add_var();
  m.set_objective({{d, 1.0}}, true);
  const double bp = 4.0;
  m.add_constraint({{o, 1.0}, {g, 1.0}, {b, 1.0}, {d, -bp}}, Sense::kGe, 1.0 - bp);
  m.add_constraint({{o, 1.0}, {g, 1.0}, {b, 1.0}, {d, bp}}, Sense::kLe, 1.0 + bp);

  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.value[d], 1);
  EXPECT_EQ(sol.value[o] + sol.value[g] + sol.value[b], 1);
}

TEST(Bnb, Infeasible) {
  Model m;
  const VarId x = m.add_var();
  m.set_objective({{x, 1.0}}, true);
  m.add_constraint({{x, 1.0}}, Sense::kGe, 1.0);
  m.add_constraint({{x, 1.0}}, Sense::kLe, 0.0);
  const Solution sol = solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(Bnb, Minimization) {
  // min x + y st x + y >= 1 -> obj 1.
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.set_objective({{x, 1.0}, {y, 1.0}}, false);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 1.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-9);
}

TEST(Bnb, WarmStartDoesNotChangeOptimum) {
  Model m;
  const VarId a = m.add_var();
  const VarId b = m.add_var();
  m.set_objective({{a, 2.0}, {b, 3.0}}, true);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0);

  const std::vector<int> warm = {1, 0};  // feasible but suboptimal
  BnbParams params;
  params.warm_start = &warm;
  const Solution sol = solve(m, params);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-9);
}

// A budget spent before the solve searches no component: each keeps its
// part of the warm start unsearched, and with no warm start there is
// nothing to keep.
TEST(Bnb, SpentBudgetKeepsTheWarmStartWithoutSearching) {
  Model m;
  std::vector<LinTerm> objective;
  for (int c = 0; c < 3; ++c) {  // three components: pick one of a, b
    const VarId a = m.add_var();
    const VarId b = m.add_var();
    objective.push_back({a, 1.0});
    objective.push_back({b, 2.0});
    m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0);
  }
  m.set_objective(std::move(objective), true);
  ASSERT_EQ(split_components(m).size(), 3u);

  const std::vector<int> warm = {1, 0, 0, 0, 0, 1};  // 3 of an optimal 6
  BnbParams params;
  params.warm_start = &warm;
  const util::CancelToken cancel = util::CancelToken::cancellable();
  cancel.request_cancel();
  const util::SolverBudget budget(60.0, cancel);
  const Solution sol = solve(m, params, budget);
  EXPECT_EQ(sol.status, SolveStatus::kFeasible);
  EXPECT_EQ(sol.value, warm);
  EXPECT_NEAR(sol.objective, 3.0, 1e-9);
  EXPECT_EQ(sol.nodes_explored, 0u);

  EXPECT_EQ(solve(m, {}, budget).status, SolveStatus::kUnknown);
}

/// Brute-force reference optimum.
double brute_force(const Model& m, bool* feasible_any) {
  const int n = m.num_vars();
  double best = -1e100;
  *feasible_any = false;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<int> x(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) x[static_cast<std::size_t>(v)] = (mask >> v) & 1;
    if (!m.feasible(x)) continue;
    *feasible_any = true;
    const double obj = m.objective_value(x);
    if (m.maximize() ? obj > best : -obj > best) best = m.maximize() ? obj : -obj;
  }
  return m.maximize() ? best : -best;
}

class BnbRandom : public ::testing::TestWithParam<int> {};

TEST_P(BnbRandom, MatchesBruteForce) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Model m;
  const int n = 3 + static_cast<int>(rng.below(8));  // 3..10 vars
  for (int v = 0; v < n; ++v) m.add_var();
  std::vector<LinTerm> obj;
  for (int v = 0; v < n; ++v) {
    obj.push_back({v, static_cast<double>(rng.range(-5, 5))});
  }
  const bool maximize = rng.chance(0.5);
  m.set_objective(std::move(obj), maximize);
  const int n_cons = 1 + static_cast<int>(rng.below(6));
  for (int c = 0; c < n_cons; ++c) {
    std::vector<LinTerm> terms;
    for (int v = 0; v < n; ++v) {
      if (rng.chance(0.5)) terms.push_back({v, static_cast<double>(rng.range(-3, 3))});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const auto sense = static_cast<Sense>(rng.below(3));
    m.add_constraint(std::move(terms), sense, static_cast<double>(rng.range(-2, 4)));
  }

  bool any = false;
  const double reference = brute_force(m, &any);
  const Solution sol = solve(m);
  if (!any) {
    EXPECT_EQ(sol.status, SolveStatus::kInfeasible) << "seed " << GetParam();
  } else {
    ASSERT_EQ(sol.status, SolveStatus::kOptimal) << "seed " << GetParam();
    EXPECT_NEAR(sol.objective, reference, 1e-6) << "seed " << GetParam();
    EXPECT_TRUE(m.feasible(sol.value));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbRandom, ::testing::Range(0, 60));


TEST(Bnb, ZeroObjectiveTailDecomposition) {
  // The DVI shape that used to explode: objective variables (D) followed by
  // long chains of zero-objective "coloring" variables whose constraints
  // percolate.  The tail decomposition must solve this instantly.
  Model m;
  constexpr int kChain = 40;
  const VarId d = m.add_var("D");
  m.set_objective({{d, 1.0}}, true);
  std::vector<VarId> chain;
  for (int i = 0; i < kChain; ++i) chain.push_back(m.add_var());
  // Chained difference constraints: c_i + c_{i+1} <= 1 (2-coloring chain),
  // plus each chain var is forced by D at the ends.
  for (int i = 0; i + 1 < kChain; ++i) {
    m.add_constraint({{chain[static_cast<std::size_t>(i)], 1.0},
                      {chain[static_cast<std::size_t>(i + 1)], 1.0}},
                     Sense::kLe, 1.0);
  }
  // D=1 forces the first chain var to 1.
  m.add_constraint({{chain[0], 1.0}, {d, -1.0}}, Sense::kGe, 0.0);

  BnbParams params;
  params.max_nodes = 20'000;  // would be far exceeded without the tail
  const Solution sol = solve(m, params);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 1.0, 1e-9);
  EXPECT_EQ(sol.value[d], 1);
  EXPECT_TRUE(m.feasible(sol.value));
}

TEST(Bnb, CliqueBoundProvesOptimalityFast) {
  // 30 disjoint cliques of 4 unit-cost variables: the naive bound is 120,
  // the clique bound is 30 = the optimum, so search is near-linear.
  Model m;
  std::vector<LinTerm> obj;
  for (int c = 0; c < 30; ++c) {
    std::vector<LinTerm> terms;
    for (int k = 0; k < 4; ++k) {
      const VarId v = m.add_var();
      obj.push_back({v, 1.0});
      terms.push_back({v, 1.0});
    }
    m.add_constraint(std::move(terms), Sense::kLe, 1.0);
  }
  m.set_objective(std::move(obj), true);
  BnbParams params;
  params.max_nodes = 5'000;
  const Solution sol = solve(m, params);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 30.0, 1e-9);
}

TEST(Bnb, PropagationFixesForcedVariables) {
  // x + y = 2 forces both to 1 without branching.
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.set_objective({{x, -1.0}, {y, -1.0}}, true);  // prefers 0s
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 2.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.value[x], 1);
  EXPECT_EQ(sol.value[y], 1);
  EXPECT_LE(sol.nodes_explored, 4u);
}

TEST(Bnb, NegativeCoefficientPropagation) {
  // x - y <= -1 forces y = 1, x = 0.
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.set_objective({{x, 1.0}, {y, -1.0}}, true);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::kLe, -1.0);
  const Solution sol = solve(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.value[x], 0);
  EXPECT_EQ(sol.value[y], 1);
}


TEST(Simplex, DegenerateAndRedundantConstraints) {
  // Redundant duplicated rows and a zero-coefficient row must not break.
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.set_objective({{x, 1.0}, {y, 1.0}}, true);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 1.0);  // duplicate
  m.add_constraint({{x, 0.0}, {y, 0.0}}, Sense::kLe, 5.0);  // vacuous
  const LpResult lp = solve_lp_relaxation(m);
  ASSERT_EQ(lp.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(lp.objective, 1.0, 1e-6);
}

TEST(Simplex, EqualityConstraint) {
  // x + y = 1, max 2x + y -> x = 1, obj 2.
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.set_objective({{x, 2.0}, {y, 1.0}}, true);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 1.0);
  const LpResult lp = solve_lp_relaxation(m);
  ASSERT_EQ(lp.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(lp.objective, 2.0, 1e-6);
  EXPECT_NEAR(lp.x[x], 1.0, 1e-6);
}

TEST(Simplex, NegativeRhsNormalization) {
  // -x - y <= -1  (i.e. x + y >= 1), min x + 2y -> x = 1, obj 1.
  Model m;
  const VarId x = m.add_var();
  const VarId y = m.add_var();
  m.set_objective({{x, 1.0}, {y, 2.0}}, false);
  m.add_constraint({{x, -1.0}, {y, -1.0}}, Sense::kLe, -1.0);
  const LpResult lp = solve_lp_relaxation(m);
  ASSERT_EQ(lp.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(lp.objective, 1.0, 1e-6);
}

TEST(Simplex, LpBoundNeverBelowIlpOptimum) {
  // Relaxation must upper-bound the integer optimum on random instances.
  for (int seed = 0; seed < 20; ++seed) {
    util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(seed) * 271 + 31);
    Model m;
    const int n = 4 + static_cast<int>(rng.below(5));
    for (int v = 0; v < n; ++v) m.add_var();
    std::vector<LinTerm> obj;
    for (int v = 0; v < n; ++v) {
      obj.push_back({v, static_cast<double>(rng.range(0, 6))});
    }
    m.set_objective(std::move(obj), true);
    for (int c = 0; c < 4; ++c) {
      std::vector<LinTerm> terms;
      for (int v = 0; v < n; ++v) {
        if (rng.chance(0.6)) terms.push_back({v, 1.0});
      }
      if (terms.empty()) continue;
      m.add_constraint(std::move(terms), Sense::kLe,
                       static_cast<double>(1 + rng.below(2)));
    }
    const LpResult lp = solve_lp_relaxation(m);
    const Solution ilp_sol = solve(m);
    if (lp.status == LpResult::Status::kOptimal &&
        ilp_sol.status == SolveStatus::kOptimal) {
      EXPECT_GE(lp.objective + 1e-6, ilp_sol.objective) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace sadp::ilp
