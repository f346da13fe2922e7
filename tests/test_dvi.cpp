// Tests of the post-routing TPL-aware DVI stage: the Algorithm 3 heuristic,
// the C1-C8 ILP, brute-force cross-checks on small problems, and the
// ILP-vs-heuristic relationship the paper's Tables VI/VII rest on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/dvi_exact.hpp"
#include "core/dvi_heuristic.hpp"
#include "core/dvi_ilp.hpp"
#include "core/flow.hpp"
#include "core/validate.hpp"
#include "netlist/bench_gen.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "via/coloring.hpp"
#include "via/decomp_graph.hpp"

namespace sadp::core {
namespace {

/// Brute-force optimum of a DviProblem: maximize insertions such that no
/// two redundant vias share a location and the combined via set stays
/// 3-colorable (assumes the originals are colorable, which our small cases
/// guarantee).
int brute_force_max_insertions(const DviProblem& problem) {
  const int n = problem.num_vias();
  int best = 0;
  std::vector<int> choice(static_cast<std::size_t>(n), -1);

  std::function<void(int, int)> go = [&](int i, int inserted) {
    if (i == n) {
      // Validate: unique locations + colorability.
      std::vector<std::pair<grid::Point, int>> all;
      for (int v = 0; v < n; ++v) {
        all.push_back({problem.vias[static_cast<std::size_t>(v)].at,
                       problem.vias[static_cast<std::size_t>(v)].via_layer});
      }
      for (int v = 0; v < n; ++v) {
        if (choice[static_cast<std::size_t>(v)] < 0) continue;
        const grid::Point p =
            problem.feasible[static_cast<std::size_t>(v)]
                            [static_cast<std::size_t>(choice[static_cast<std::size_t>(v)])];
        const int layer = problem.vias[static_cast<std::size_t>(v)].via_layer;
        for (const auto& [q, l] : all) {
          if (l == layer && q == p) return;  // coincides with another via
        }
        all.push_back({p, layer});
      }
      if (via::three_colorable(via::DecompGraph::from_located(all))) {
        best = std::max(best, inserted);
      }
      return;
    }
    go(i + 1, inserted);  // no insertion for via i
    const auto& cands = problem.feasible[static_cast<std::size_t>(i)];
    for (int k = 0; k < static_cast<int>(cands.size()); ++k) {
      choice[static_cast<std::size_t>(i)] = k;
      go(i + 1, inserted + 1);
      choice[static_cast<std::size_t>(i)] = -1;
    }
  };
  go(0, 0);
  return best;
}

/// A random small DviProblem with FVP-free originals on via layer 1 of
/// `db`'s square grid.
DviProblem random_problem(std::uint64_t seed, int num_vias, via::ViaDb& db) {
  const int side = db.width();
  util::Xoshiro256StarStar rng(seed);
  DviProblem problem;
  while (problem.num_vias() < num_vias) {
    const grid::Point p{static_cast<int>(rng.below(static_cast<std::uint64_t>(side))),
                        static_cast<int>(rng.below(static_cast<std::uint64_t>(side)))};
    if (db.has(1, p) || db.would_create_fvp(1, p)) continue;
    db.add(1, p);
    problem.vias.push_back(SingleVia{problem.num_vias(), 1, p, false});
  }
  // Feasible DVICs: neighbors not occupied by another via.
  for (const auto& via : problem.vias) {
    std::vector<grid::Point> cands;
    for (grid::Dir d : grid::kPlanarDirs) {
      const grid::Point q = via.at + grid::step(d);
      if (!db.in_bounds(q)) continue;
      if (db.has(1, q)) continue;
      if (rng.chance(0.8)) cands.push_back(q);
    }
    problem.feasible.push_back(cands);
  }
  return problem;
}

/// One random case: the seed index and the side of its square grid.  On a
/// 10x10 grid the vias mostly stand apart; on a 4x4 grid they are packed, so
/// candidates are shared between vias and some would complete an FVP.
struct RandomCase {
  int seed = 0;
  int side = 10;
};

// The test names print the seed alone (the instantiation names the side),
// so the 10x10 cases keep the names they had with a plain seed parameter.
void PrintTo(const RandomCase& c, std::ostream* os) { *os << c.seed; }

std::vector<RandomCase> random_cases(int side) {
  std::vector<RandomCase> cases;
  for (int seed = 0; seed < 25; ++seed) cases.push_back({seed, side});
  return cases;
}

class DviSmallRandom : public ::testing::TestWithParam<RandomCase> {
 protected:
  /// The case's problem; its originals go into `db_`.
  DviProblem make_problem(std::uint64_t multiplier, std::uint64_t offset,
                          int num_vias) {
    return random_problem(
        static_cast<std::uint64_t>(GetParam().seed) * multiplier + offset, num_vias,
        db_);
  }

  via::ViaDb db_{GetParam().side, GetParam().side, 1};
};

TEST_P(DviSmallRandom, IlpMatchesBruteForce) {
  const DviProblem problem = make_problem(131, 7, 4);
  const int reference = brute_force_max_insertions(problem);

  const DviHeuristicOutput warm = run_dvi_heuristic(problem, db_);
  const DviIlpOutput ilp = solve_dvi_ilp(problem, &warm);
  ASSERT_EQ(ilp.status, ilp::SolveStatus::kOptimal);
  EXPECT_EQ(ilp.result.uncolorable, 0);
  EXPECT_EQ(problem.num_vias() - ilp.result.dead_vias, reference);
}

TEST_P(DviSmallRandom, HeuristicIsValidAndBounded) {
  const DviProblem problem = make_problem(977, 3, 5);
  const DviHeuristicOutput heuristic = run_dvi_heuristic(problem, db_);

  const int inserted = problem.num_vias() - heuristic.result.dead_vias;
  EXPECT_LE(inserted, brute_force_max_insertions(problem));
  EXPECT_EQ(heuristic.result.uncolorable, 0);

  // Insertions are at declared-feasible candidates and TPL-clean.
  std::vector<std::pair<grid::Point, int>> all;
  for (const auto& via : problem.vias) all.push_back({via.at, via.via_layer});
  for (int i = 0; i < problem.num_vias(); ++i) {
    const int k = heuristic.result.inserted[static_cast<std::size_t>(i)];
    if (k < 0) continue;
    ASSERT_LT(k, static_cast<int>(problem.feasible[static_cast<std::size_t>(i)].size()));
    all.push_back({heuristic.inserted_at[static_cast<std::size_t>(i)], 1});
  }
  EXPECT_TRUE(via::three_colorable(via::DecompGraph::from_located(all)));
}

TEST_P(DviSmallRandom, ExactSolverMatchesBruteForce) {
  const DviProblem problem = make_problem(131, 7, 4);
  const int reference = brute_force_max_insertions(problem);
  const DviExactOutput exact = solve_dvi_exact(problem, db_);
  EXPECT_TRUE(exact.proven_optimal);
  EXPECT_EQ(problem.num_vias() - exact.result.dead_vias, reference);
  // And agrees with the literal ILP.
  const DviHeuristicOutput warm = run_dvi_heuristic(problem, db_);
  const DviIlpOutput ilp = solve_dvi_ilp(problem, &warm);
  ASSERT_EQ(ilp.status, ilp::SolveStatus::kOptimal);
  EXPECT_EQ(exact.result.dead_vias, ilp.result.dead_vias);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DviSmallRandom, ::testing::ValuesIn(random_cases(10)));
INSTANTIATE_TEST_SUITE_P(Dense, DviSmallRandom, ::testing::ValuesIn(random_cases(4)));

// The dense cases reach what the sparse ones rarely do: a candidate two vias
// share, and a candidate that would complete an FVP with the originals.
TEST(DviSmallRandomDense, HasSharedAndFvpBlockedCandidates) {
  int shared = 0;
  int blocked = 0;
  for (const RandomCase& c : random_cases(4)) {
    via::ViaDb db(c.side, c.side, 1);
    const DviProblem problem =
        random_problem(static_cast<std::uint64_t>(c.seed) * 131 + 7, 4, db);
    std::vector<grid::Point> seen;
    for (const auto& cands : problem.feasible) {
      for (const grid::Point q : cands) {
        if (std::find(seen.begin(), seen.end(), q) != seen.end()) ++shared;
        seen.push_back(q);
        if (db.would_create_fvp(1, q)) ++blocked;
      }
    }
  }
  EXPECT_GT(shared, 0);
  EXPECT_GT(blocked, 0);
}

TEST(DviExact, AtLeastAsGoodAsHeuristicOnRoutedDesign) {
  netlist::BenchSpec spec;
  spec.name = "dvi_exact_itest";
  spec.width = 56;
  spec.height = 56;
  spec.num_nets = 40;
  const netlist::PlacedNetlist instance = netlist::generate(spec);

  FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  SadpRouter router(instance, options);
  ASSERT_TRUE(router.run().routed_all);

  const DviProblem problem = build_dvi_problem(router.nets(), router.routing_grid(),
                                               router.turn_rules());
  const DviHeuristicOutput heuristic =
      run_dvi_heuristic(problem, router.via_db());
  DviExactParams params;
  params.time_limit_seconds = 30.0;
  const DviExactOutput exact = solve_dvi_exact(problem, router.via_db(), params);

  EXPECT_LE(exact.result.dead_vias, heuristic.result.dead_vias);
  EXPECT_TRUE(check_dvi_solution(router, problem, exact.result.inserted,
                                 exact.inserted_at)
                  .empty());
}

netlist::BenchSpec square_spec(const std::string& name, int side, int nets) {
  netlist::BenchSpec spec;
  spec.name = name;
  spec.width = side;
  spec.height = side;
  spec.num_nets = nets;
  return spec;
}

/// A generated design routed DVI- and TPL-aware, with its DVI problem.
struct RoutedDesign {
  netlist::PlacedNetlist instance;
  std::unique_ptr<SadpRouter> router;
  DviProblem problem;
  bool routed_all = false;

  explicit RoutedDesign(const netlist::BenchSpec& spec) {
    instance = netlist::generate(spec);
    FlowOptions options;
    options.consider_dvi = true;
    options.consider_tpl = true;
    router = std::make_unique<SadpRouter>(instance, options);
    routed_all = router->run().routed_all;
    problem = build_dvi_problem(router->nets(), router->routing_grid(),
                                router->turn_rules());
  }
};

// A time limit already spent before the search must cost the search, not
// the answer: every component keeps the heuristic warm start, however few
// nodes it would need.  On this design the exact optimum beats the warm
// start, so a component searched past its deadline would show.
TEST(DviExact, ZeroTimeLimitKeepsTheWarmStart) {
  const RoutedDesign d(square_spec("deadline_probe_1", 64, 50));
  ASSERT_TRUE(d.routed_all);
  const DviHeuristicOutput warm =
      run_dvi_heuristic(d.problem, d.router->via_db());
  const DviExactOutput unlimited = solve_dvi_exact(d.problem, d.router->via_db());
  ASSERT_TRUE(unlimited.proven_optimal);
  ASSERT_LT(unlimited.result.dead_vias, warm.result.dead_vias);

  DviExactParams params;
  params.time_limit_seconds = 0.0;
  const DviExactOutput stopped = solve_dvi_exact(d.problem, d.router->via_db(), params);
  EXPECT_FALSE(stopped.proven_optimal);
  EXPECT_EQ(stopped.result.dead_vias, warm.result.dead_vias);
  EXPECT_EQ(stopped.result.inserted, warm.result.inserted);
}

// Node limits do not depend on the clock, so a node-limited solve is
// reproducible: the node count, #DV and choices below pin the DFS visit
// order.  Unlimited, this design takes 305 nodes to a #DV of 5, from a warm
// start of 9; a limit of 20 nodes per component stops one component
// between the two.
TEST(DviExact, ComponentNodeLimitPinsTheSearchOrder) {
  const RoutedDesign d(square_spec("dvi_repair_itest", 64, 60));
  ASSERT_TRUE(d.routed_all);
  DviExactParams params;
  params.component_node_limit = 20;
  const DviExactOutput out = solve_dvi_exact(d.problem, d.router->via_db(), params);
  EXPECT_FALSE(out.proven_optimal);
  EXPECT_EQ(out.nodes, 191u);
  EXPECT_EQ(out.result.dead_vias, 6);
  std::string choices;
  for (const int k : out.result.inserted) {
    if (!choices.empty()) choices += ',';
    choices += std::to_string(k);
  }
  EXPECT_EQ(util::crc32(choices), 2068063127u);
}

// efc_s as the dvi_exact end-to-end workload routes it.  Counting every
// undecided via as insertable stopped a 36-via component at the 4 M-node
// limit with #DV 33; counting only the vias with a free, FVP-safe
// candidate proves the optimum.
TEST(DviExact, ProvesTheOptimumOnScaledEfc) {
  const RoutedDesign d(*netlist::spec_for("efc_s", true));
  ASSERT_TRUE(d.routed_all);
  const DviExactOutput out = solve_dvi_exact(d.problem, d.router->via_db());
  EXPECT_TRUE(out.proven_optimal);
  EXPECT_EQ(out.result.dead_vias, 31);
  EXPECT_TRUE(check_dvi_solution(*d.router, d.problem, out.result.inserted,
                                 out.inserted_at)
                  .empty());
}

/// Text of an ILP model: every variable name, the objective, and each
/// constraint's sense, rhs and terms in emission order.
std::string model_text(const ilp::Model& model) {
  std::string text;
  char number[32];
  const auto add_number = [&](double x) {
    std::snprintf(number, sizeof number, "%.17g ", x);
    text += number;
  };
  for (int v = 0; v < model.num_vars(); ++v) text += model.var_name(v) + ' ';
  for (const double c : model.objective()) add_number(c);
  text += model.maximize() ? "max\n" : "min\n";
  for (const ilp::Constraint& c : model.constraints()) {
    text += std::to_string(static_cast<int>(c.sense)) + ' ';
    add_number(c.rhs);
    for (const ilp::LinTerm& t : c.terms) {
      text += std::to_string(t.var) + ':';
      add_number(t.coef);
    }
    text += '\n';
  }
  return text;
}

/// Insertion choices joined with commas (-1 for none).
std::string choice_text(const std::vector<int>& inserted) {
  std::string text;
  for (const int k : inserted) text += std::to_string(k) + ',';
  return text;
}

// Routed ecc_s with DVI and TPL on, recorded before the TPL check and the
// three solvers shared one site key, one conflict neighbourhood, one DVIC
// map and one union-find.  The C2 rows and the window cuts iterate the
// DVIC map, and ilp::bnb gives each variable to the first unit clique that
// holds it, so a reordered map or neighbourhood changes this text.
TEST(DviIlp, ModelOnScaledEccIsPinned) {
  const RoutedDesign d(*netlist::spec_for("ecc_s", true));
  ASSERT_TRUE(d.routed_all);
  const ilp::Model model = build_dvi_ilp(d.problem).model;
  EXPECT_EQ(model.num_vars(), 36752);
  EXPECT_EQ(model.num_constraints(), 51281);
  EXPECT_EQ(util::crc32(model_text(model)), 19537197u);
}

// Both solvers' choices on the same problem, recorded with the model pin.
TEST(DviExact, ChoicesOnScaledEccArePinned) {
  const RoutedDesign d(*netlist::spec_for("ecc_s", true));
  ASSERT_TRUE(d.routed_all);
  const DviHeuristicOutput heuristic =
      run_dvi_heuristic(d.problem, d.router->via_db());
  EXPECT_EQ(heuristic.result.dead_vias, 24);
  EXPECT_EQ(util::crc32(choice_text(heuristic.result.inserted)), 220180951u);
  const DviExactOutput exact = solve_dvi_exact(d.problem, d.router->via_db());
  EXPECT_TRUE(exact.proven_optimal);
  EXPECT_EQ(exact.nodes, 1677u);
  EXPECT_EQ(exact.result.dead_vias, 8);
  EXPECT_EQ(util::crc32(choice_text(exact.result.inserted)), 1664417971u);
}

TEST(DviHeuristic, ProtectsIsolatedVia) {
  via::ViaDb db(8, 8, 1);
  db.add(1, {4, 4});
  DviProblem problem;
  problem.vias.push_back(SingleVia{0, 1, {4, 4}, false});
  problem.feasible = {{{5, 4}, {3, 4}}};
  const DviHeuristicOutput out = run_dvi_heuristic(problem, db);
  EXPECT_EQ(out.result.dead_vias, 0);
  EXPECT_GE(out.result.inserted[0], 0);
  EXPECT_NE(out.redundant_color[0], out.original_color[0]);
}

TEST(DviHeuristic, ViaWithNoCandidatesIsDead) {
  via::ViaDb db(8, 8, 1);
  db.add(1, {4, 4});
  DviProblem problem;
  problem.vias.push_back(SingleVia{0, 1, {4, 4}, false});
  problem.feasible = {{}};
  const DviHeuristicOutput out = run_dvi_heuristic(problem, db);
  EXPECT_EQ(out.result.dead_vias, 1);
}

TEST(DviHeuristic, ConflictingCandidatesServeOnlyOneVia) {
  // Two vias whose only candidates coincide: exactly one insertion.
  via::ViaDb db(8, 8, 1);
  db.add(1, {3, 4});
  db.add(1, {5, 4});
  DviProblem problem;
  problem.vias.push_back(SingleVia{0, 1, {3, 4}, false});
  problem.vias.push_back(SingleVia{1, 1, {5, 4}, false});
  problem.feasible = {{{4, 4}}, {{4, 4}}};
  const DviHeuristicOutput out = run_dvi_heuristic(problem, db);
  EXPECT_EQ(out.result.dead_vias, 1);
}

TEST(DviHeuristic, RefusesFvpCreatingInsertion) {
  // Inserting at the only candidate would complete a 2x2 FVP; the via must
  // stay dead instead.
  via::ViaDb db(8, 8, 1);
  db.add(1, {4, 4});
  db.add(1, {5, 4});
  db.add(1, {4, 5});
  DviProblem problem;
  problem.vias.push_back(SingleVia{0, 1, {4, 4}, false});
  problem.feasible = {{{5, 5}}};
  ASSERT_TRUE(db.would_create_fvp(1, {5, 5}));
  const DviHeuristicOutput out = run_dvi_heuristic(problem, db);
  EXPECT_EQ(out.result.dead_vias, 1);
}

TEST(DviIlp, ModelShapeMatchesFormulation) {
  via::ViaDb db(8, 8, 1);
  db.add(1, {4, 4});
  DviProblem problem;
  problem.vias.push_back(SingleVia{0, 1, {4, 4}, false});
  problem.feasible = {{{5, 4}, {3, 4}}};
  const DviIlp ilp = build_dvi_ilp(problem);
  // 4 via-color vars + 2 candidates x (1 insert + 3 colors) = 12.
  EXPECT_EQ(ilp.model.num_vars(), 12);
  // All-zero must be infeasible? No: all-zero violates C3 (colors sum to 1).
  std::vector<int> zero(12, 0);
  EXPECT_FALSE(ilp.model.feasible(zero));
}

TEST(DviIlp, UncolorableOriginalsAreCounted) {
  // A K4 of original vias (2x2 block) cannot be 3-colored: the ILP must
  // report exactly one uncolorable via (minimum under B-weighted objective).
  via::ViaDb db(8, 8, 1);
  DviProblem problem;
  const grid::Point block[4] = {{4, 4}, {5, 4}, {4, 5}, {5, 5}};
  for (int i = 0; i < 4; ++i) {
    db.add(1, block[i]);
    problem.vias.push_back(SingleVia{i, 1, block[i], false});
    problem.feasible.push_back({});
  }
  const DviHeuristicOutput warm = run_dvi_heuristic(problem, db);
  const DviIlpOutput out = solve_dvi_ilp(problem, &warm);
  ASSERT_EQ(out.status, ilp::SolveStatus::kOptimal);
  EXPECT_EQ(out.result.uncolorable, 1);
}

TEST(DviFlow, IlpNeverWorseThanHeuristicOnRoutedDesign) {
  netlist::BenchSpec spec;
  spec.name = "dvi_itest";
  spec.width = 56;
  spec.height = 56;
  spec.num_nets = 40;
  const netlist::PlacedNetlist instance = netlist::generate(spec);

  FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  SadpRouter router(instance, options);
  ASSERT_TRUE(router.run().routed_all);

  const DviProblem problem = build_dvi_problem(router.nets(), router.routing_grid(),
                                               router.turn_rules());
  const DviHeuristicOutput heuristic =
      run_dvi_heuristic(problem, router.via_db());
  const DviIlpOutput ilp =
      solve_dvi_ilp(problem, &heuristic, util::SolverBudget(20.0, {}));

  EXPECT_LE(ilp.result.dead_vias, heuristic.result.dead_vias);
  EXPECT_EQ(ilp.result.uncolorable, 0);
  EXPECT_EQ(heuristic.result.uncolorable, 0);

  EXPECT_TRUE(check_dvi_solution(router, problem, ilp.result.inserted,
                                 ilp.inserted_at)
                  .empty());
  EXPECT_TRUE(check_dvi_solution(router, problem, heuristic.result.inserted,
                                 heuristic.inserted_at)
                  .empty());
}


TEST(DviHeuristic, RepairPassNeverHurts) {
  netlist::BenchSpec spec;
  spec.name = "dvi_repair_itest";
  spec.width = 64;
  spec.height = 64;
  spec.num_nets = 60;
  const netlist::PlacedNetlist instance = netlist::generate(spec);

  FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  SadpRouter router(instance, options);
  ASSERT_TRUE(router.run().routed_all);

  const DviProblem problem = build_dvi_problem(router.nets(), router.routing_grid(),
                                               router.turn_rules());
  const DviHeuristicOutput base = run_dvi_heuristic(problem, router.via_db());
  DviHeuristicOptions repair;
  repair.repair_passes = 3;
  const DviHeuristicOutput improved =
      run_dvi_heuristic(problem, router.via_db(), repair);

  EXPECT_LE(improved.result.dead_vias, base.result.dead_vias);
  EXPECT_TRUE(check_dvi_solution(router, problem, improved.result.inserted,
                                 improved.inserted_at)
                  .empty());
}

}  // namespace
}  // namespace sadp::core
