// Tests of the decomposition graph and the TPL coloring algorithms,
// including randomized Welsh-Powell vs exact cross-checks.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "via/coloring.hpp"
#include "via/decomp_graph.hpp"
#include "via/via_db.hpp"

namespace sadp::via {
namespace {

/// The decomposition graph of `points`, all on via layer 1.
DecompGraph layer1_graph(const std::vector<grid::Point>& points) {
  std::vector<std::pair<grid::Point, int>> located;
  for (const grid::Point p : points) located.push_back({p, 1});
  return DecompGraph::from_located(located);
}

TEST(DecompGraph, EdgesMatchConflictPredicate) {
  const std::vector<grid::Point> points = {{0, 0}, {1, 0}, {2, 2}, {5, 5}, {6, 6}};
  const DecompGraph graph = layer1_graph(points);
  ASSERT_EQ(graph.num_vertices(), 5);

  auto connected = [&](int a, int b) {
    for (int u : graph.neighbors(a)) {
      if (u == b) return true;
    }
    return false;
  };
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      if (a == b) continue;
      EXPECT_EQ(connected(a, b), vias_conflict(points[a], points[b]))
          << a << "," << b;
    }
  }
  // (0,0)-(2,2) are diagonal corners: no edge; (5,5)-(6,6): edge.
  EXPECT_FALSE(connected(0, 2));
  EXPECT_TRUE(connected(3, 4));
}

TEST(DecompGraph, LayersAreIndependent) {
  ViaDb db(8, 8, 2);
  db.add(1, {3, 3});
  db.add(2, {3, 4});  // would conflict if on the same layer
  const DecompGraph graph = DecompGraph::build_all_layers(db);
  ASSERT_EQ(graph.num_vertices(), 2);
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST(DecompGraph, Components) {
  const std::vector<grid::Point> points = {{0, 0}, {1, 0}, {10, 10}, {11, 10}};
  const DecompGraph graph = layer1_graph(points);
  const auto comps = graph.components();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].size() + comps[1].size(), 4u);
}

TEST(Coloring, TriangleNeedsThreeColors) {
  const DecompGraph graph = layer1_graph({{0, 0}, {1, 0}, {0, 1}});
  const ColoringResult result = welsh_powell(graph);
  EXPECT_TRUE(result.complete());
  EXPECT_TRUE(is_proper_coloring(graph, result.color));
  // All three colors used (triangle).
  std::set<int> used(result.color.begin(), result.color.end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(Coloring, K4IsUncolorable) {
  const DecompGraph graph = layer1_graph({{0, 0}, {1, 0}, {0, 1}, {1, 1}});
  const ColoringResult result = welsh_powell(graph);
  EXPECT_FALSE(result.complete());
  EXPECT_FALSE(three_colorable(graph));
}

// Coloring the triangle tries 6 colors: 1 for the first vertex, 2 for the
// second, 3 for the third.  Each try costs one step of the budget, so a
// smaller budget must fail however it runs out (a rejected try that spent
// the last step once wrapped the budget and dropped the guard).
TEST(Coloring, ExactColoringHonorsItsBudget) {
  const DecompGraph graph = layer1_graph({{0, 0}, {1, 0}, {0, 1}});
  for (std::size_t budget = 0; budget < 6; ++budget) {
    EXPECT_FALSE(exact_three_coloring(graph, budget).has_value()) << budget;
  }
  for (std::size_t budget = 6; budget < 10; ++budget) {
    const auto coloring = exact_three_coloring(graph, budget);
    ASSERT_TRUE(coloring.has_value()) << budget;
    EXPECT_TRUE(is_proper_coloring(graph, *coloring));
  }
}

TEST(Coloring, ExtendRespectsFixedColors) {
  const DecompGraph graph = layer1_graph({{0, 0}, {1, 0}, {0, 1}});
  std::vector<int> seed = {2, kUncolored, kUncolored};
  const ColoringResult result = welsh_powell_extend(graph, seed);
  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.color[0], 2);
  EXPECT_TRUE(is_proper_coloring(graph, result.color));
}

TEST(Coloring, ProperColoringValidator) {
  const DecompGraph graph = layer1_graph({{0, 0}, {1, 0}});
  EXPECT_TRUE(is_proper_coloring(graph, {0, 1}));
  EXPECT_FALSE(is_proper_coloring(graph, {1, 1}));
  EXPECT_TRUE(is_proper_coloring(graph, {kUncolored, 1}));
  EXPECT_FALSE(is_proper_coloring(graph, {0, 5}));  // out-of-range color
  EXPECT_FALSE(is_proper_coloring(graph, {0}));     // size mismatch
}

TEST(Coloring, WheelLikePatternFvpFreeButUncolorable) {
  // The Fig. 11 situation: a via pattern with no FVP in any 3x3 window whose
  // decomposition graph is nevertheless not 3-colorable — exactly what the
  // final Welsh-Powell check exists to catch.  (Pattern found by exhaustive
  // search; see examples/fig_demos --fig11.)
  const std::vector<grid::Point> pattern = {{2, 3}, {0, 2}, {3, 2}, {1, 1},
                                            {4, 1}, {1, 0}, {3, 0}};
  ViaDb db(5, 5, 1);
  for (const auto& p : pattern) db.add(1, p);
  ASSERT_TRUE(db.scan_fvps(1).empty()) << "pattern must be FVP-free";
  const DecompGraph graph = DecompGraph::build_all_layers(db);
  EXPECT_FALSE(three_colorable(graph));
  EXPECT_FALSE(welsh_powell(graph).complete());
}

class ColoringRandom : public ::testing::TestWithParam<int> {};

TEST_P(ColoringRandom, WelshPowellNeverBeatsExact) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  ViaDb db(16, 16, 1);
  for (int i = 0; i < 40; ++i) {
    const grid::Point p{static_cast<int>(rng.below(16)),
                        static_cast<int>(rng.below(16))};
    if (!db.has(1, p)) db.add(1, p);
  }
  const DecompGraph graph = DecompGraph::build_all_layers(db);
  const ColoringResult greedy = welsh_powell(graph);
  EXPECT_TRUE(is_proper_coloring(graph, greedy.color));
  const bool exact = three_colorable(graph);
  // Greedy success implies exact success; exact failure implies greedy
  // failure.  (The converse can differ: greedy may fail on colorable
  // graphs.)
  if (greedy.complete()) {
    EXPECT_TRUE(exact) << "seed " << GetParam();
  }
  if (const auto coloring = exact_three_coloring(graph)) {
    EXPECT_TRUE(is_proper_coloring(graph, *coloring));
    // Exact coloring must be complete.
    for (int c : *coloring) EXPECT_NE(c, kUncolored);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringRandom, ::testing::Range(0, 30));

TEST(Coloring, FvpFreeRandomSetsAreUsuallyColorable) {
  // The paper's heuristic argument: if every 3x3 subregion is 3-colorable,
  // the whole decomposition graph is *highly likely* (not guaranteed —
  // Fig. 11!) to be 3-colorable.  Verify the "highly likely" on densely
  // packed random FVP-free sets: most seeds must be colorable.
  int colorable = 0;
  const int kSeeds = 10;
  for (int seed = 0; seed < kSeeds; ++seed) {
    util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(seed) * 97 + 1);
    ViaDb db(24, 24, 1);
    for (int i = 0; i < 100; ++i) {
      const grid::Point p{static_cast<int>(rng.below(24)),
                          static_cast<int>(rng.below(24))};
      if (!db.has(1, p) && !db.would_create_fvp(1, p)) db.add(1, p);
    }
    ASSERT_TRUE(db.scan_fvps(1).empty());
    const DecompGraph graph = DecompGraph::build_all_layers(db);
    colorable += three_colorable(graph, /*budget=*/2'000'000) ? 1 : 0;
  }
  EXPECT_GE(colorable, kSeeds - 2);
}

}  // namespace
}  // namespace sadp::via
