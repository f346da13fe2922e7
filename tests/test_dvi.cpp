// Tests of the post-routing TPL-aware DVI stage: the Algorithm 3 heuristic,
// the C1-C8 ILP, brute-force cross-checks on small problems, and the
// ILP-vs-heuristic relationship the paper's Tables VI/VII rest on.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

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

/// A random small DviProblem on one via layer with FVP-free originals.
DviProblem random_problem(std::uint64_t seed, int num_vias, via::ViaDb& db) {
  util::Xoshiro256StarStar rng(seed);
  DviProblem problem;
  while (problem.num_vias() < num_vias) {
    const grid::Point p{static_cast<int>(rng.below(10)),
                        static_cast<int>(rng.below(10))};
    if (db.has(1, p) || db.would_create_fvp(1, p)) continue;
    db.add(1, p);
    problem.vias.push_back(SingleVia{problem.num_vias(), 1, p, false});
  }
  // Feasible DVICs: neighbors not occupied by another via.
  for (const auto& via : problem.vias) {
    std::vector<grid::Point> cands;
    for (grid::Dir d : grid::kPlanarDirs) {
      const grid::Point q = via.at + grid::step(d);
      if (q.x < 0 || q.y < 0 || q.x >= 10 || q.y >= 10) continue;
      if (db.has(1, q)) continue;
      if (rng.chance(0.8)) cands.push_back(q);
    }
    problem.feasible.push_back(cands);
  }
  return problem;
}

class DviSmallRandom : public ::testing::TestWithParam<int> {};

TEST_P(DviSmallRandom, IlpMatchesBruteForce) {
  via::ViaDb db(10, 10, 1);
  const DviProblem problem =
      random_problem(static_cast<std::uint64_t>(GetParam()) * 131 + 7, 4, db);
  const int reference = brute_force_max_insertions(problem);

  DviIlpParams params;
  const DviIlpOutput ilp = solve_dvi_ilp(problem, db, params);
  ASSERT_EQ(ilp.status, ilp::SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_EQ(ilp.result.uncolorable, 0);
  EXPECT_EQ(problem.num_vias() - ilp.result.dead_vias, reference)
      << "seed " << GetParam();
}

TEST_P(DviSmallRandom, HeuristicIsValidAndBounded) {
  via::ViaDb db(10, 10, 1);
  const DviProblem problem =
      random_problem(static_cast<std::uint64_t>(GetParam()) * 977 + 3, 5, db);
  const DviHeuristicOutput heuristic =
      run_dvi_heuristic(problem, db, DviParams{});

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
  via::ViaDb db(10, 10, 1);
  const DviProblem problem =
      random_problem(static_cast<std::uint64_t>(GetParam()) * 131 + 7, 4, db);
  const int reference = brute_force_max_insertions(problem);
  const DviExactOutput exact = solve_dvi_exact(problem, db);
  EXPECT_TRUE(exact.proven_optimal);
  EXPECT_EQ(problem.num_vias() - exact.result.dead_vias, reference)
      << "seed " << GetParam();
  // And agrees with the literal ILP.
  const DviIlpOutput ilp = solve_dvi_ilp(problem, db);
  ASSERT_EQ(ilp.status, ilp::SolveStatus::kOptimal);
  EXPECT_EQ(exact.result.dead_vias, ilp.result.dead_vias);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DviSmallRandom, ::testing::Range(0, 25));

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
      run_dvi_heuristic(problem, router.via_db(), DviParams{});
  DviExactParams params;
  params.time_limit_seconds = 30.0;
  const DviExactOutput exact = solve_dvi_exact(problem, router.via_db(), params);

  EXPECT_LE(exact.result.dead_vias, heuristic.result.dead_vias);
  EXPECT_TRUE(check_dvi_solution(router, problem, exact.result.inserted,
                                 exact.inserted_at)
                  .empty());
}

/// A square generated design routed DVI- and TPL-aware, with its DVI problem.
struct RoutedDesign {
  netlist::PlacedNetlist instance;
  std::unique_ptr<SadpRouter> router;
  DviProblem problem;
  bool routed_all = false;

  RoutedDesign(const std::string& name, int side, int nets) {
    netlist::BenchSpec spec;
    spec.name = name;
    spec.width = side;
    spec.height = side;
    spec.num_nets = nets;
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
  const RoutedDesign d("deadline_probe_1", 64, 50);
  ASSERT_TRUE(d.routed_all);
  const DviHeuristicOutput warm =
      run_dvi_heuristic(d.problem, d.router->via_db(), DviParams{});
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
// order.  Unlimited, this design takes 50,898 nodes to a #DV of 5.
TEST(DviExact, ComponentNodeLimitPinsTheSearchOrder) {
  const RoutedDesign d("dvi_repair_itest", 64, 60);
  ASSERT_TRUE(d.routed_all);
  DviExactParams params;
  params.component_node_limit = 1000;
  const DviExactOutput out = solve_dvi_exact(d.problem, d.router->via_db(), params);
  EXPECT_FALSE(out.proven_optimal);
  EXPECT_EQ(out.nodes, 1751u);
  EXPECT_EQ(out.result.dead_vias, 6);
  std::string choices;
  for (const int k : out.result.inserted) {
    if (!choices.empty()) choices += ',';
    choices += std::to_string(k);
  }
  EXPECT_EQ(util::crc32(choices), 2068063127u);
}

TEST(DviHeuristic, ProtectsIsolatedVia) {
  via::ViaDb db(8, 8, 1);
  db.add(1, {4, 4});
  DviProblem problem;
  problem.vias.push_back(SingleVia{0, 1, {4, 4}, false});
  problem.feasible = {{{5, 4}, {3, 4}}};
  const DviHeuristicOutput out = run_dvi_heuristic(problem, db, DviParams{});
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
  const DviHeuristicOutput out = run_dvi_heuristic(problem, db, DviParams{});
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
  const DviHeuristicOutput out = run_dvi_heuristic(problem, db, DviParams{});
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
  const DviHeuristicOutput out = run_dvi_heuristic(problem, db, DviParams{});
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
  const DviIlpOutput out = solve_dvi_ilp(problem, db);
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
      run_dvi_heuristic(problem, router.via_db(), DviParams{});
  DviIlpParams params;
  params.bnb.time_limit_seconds = 20.0;
  const DviIlpOutput ilp = solve_dvi_ilp(problem, router.via_db(), params);

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
  const DviHeuristicOutput base =
      run_dvi_heuristic(problem, router.via_db(), DviParams{});
  DviHeuristicOptions repair;
  repair.repair_passes = 3;
  const DviHeuristicOutput improved =
      run_dvi_heuristic(problem, router.via_db(), DviParams{}, repair);

  EXPECT_LE(improved.result.dead_vias, base.result.dead_vias);
  EXPECT_TRUE(check_dvi_solution(router, problem, improved.result.inserted,
                                 improved.inserted_at)
                  .empty());
}

}  // namespace
}  // namespace sadp::core
