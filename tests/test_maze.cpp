// Unit tests of the maze router: path legality, restricted routing,
// congestion avoidance, and FVP blocking.
#include <gtest/gtest.h>

#include "core/cost_maps.hpp"
#include "core/maze_router.hpp"
#include "core/routed_net.hpp"
#include "grid/routing_grid.hpp"
#include "via/via_db.hpp"

namespace sadp::core {
namespace {

struct Harness {
  explicit Harness(int side = 24, grid::SadpStyle style = grid::SadpStyle::kSim)
      : routing(side, side, 3),
        vias(side, side, 2),
        rules(grid::TurnRules::for_style(style)),
        options(make_options()),
        costs(routing, rules, options),
        maze(routing, rules, costs, vias) {}

  static FlowOptions make_options() {
    FlowOptions options;
    options.consider_dvi = true;
    options.consider_tpl = true;
    return options;
  }

  /// Create a net with a pin stub at `pin` (metal-1 pad, pin via, metal-2
  /// pad) applied to the databases.
  RoutedNet pinned_net(grid::NetId id, grid::Point pin) {
    RoutedNet net(id);
    net.add_metal(1, pin, 0);
    net.add_metal(2, pin, 0);
    net.add_via(1, pin, true);
    return net;
  }

  bool route(RoutedNet& net, grid::Point from, grid::Point to) {
    std::vector<MetalKey> sources{metal_key(2, from)};
    return maze.route_connection(net, sources, to, nullptr);
  }

  grid::RoutingGrid routing;
  via::ViaDb vias;
  grid::TurnRules rules;
  FlowOptions options;
  CostMaps costs;
  MazeRouter maze;
};

TEST(Maze, RoutesStraightOnPreferredLayer) {
  Harness h;
  RoutedNet net = h.pinned_net(0, {4, 10});
  ASSERT_TRUE(h.route(net, {4, 10}, {12, 10}));
  // Horizontal on metal 2: exactly the straight segments, no vias beyond
  // the pin stub.
  EXPECT_EQ(net.wirelength(), 8);
  EXPECT_EQ(net.via_count(), 1);  // the pin via only
  for (int x = 4; x < 12; ++x) {
    EXPECT_TRUE(grid::has_arm(net.arms_at(2, {x, 10}), grid::Dir::kEast));
  }
}

TEST(Maze, VerticalConnectionUsesViaOrNonPreferred) {
  Harness h;
  RoutedNet net = h.pinned_net(0, {10, 4});
  ASSERT_TRUE(h.route(net, {10, 4}, {10, 14}));
  // Either it hops to metal 3 (2 extra vias) or pays the non-preferred
  // multiplier; with the defaults the via route wins.
  EXPECT_GE(net.via_count(), 3);
  EXPECT_GE(net.wirelength(), 10);
}

TEST(Maze, PathNeverContainsForbiddenTurn) {
  for (auto style : {grid::SadpStyle::kSim, grid::SadpStyle::kSid}) {
    Harness h(24, style);
    RoutedNet net = h.pinned_net(0, {4, 4});
    ASSERT_TRUE(h.route(net, {4, 4}, {15, 15}));
    const grid::TurnRules rules = grid::TurnRules::for_style(style);
    for (const auto& [key, arms] : net.metal()) {
      if (key_layer(key) < 2) continue;
      for (grid::Dir a : {grid::Dir::kEast, grid::Dir::kWest}) {
        if (!grid::has_arm(arms, a)) continue;
        for (grid::Dir b : {grid::Dir::kNorth, grid::Dir::kSouth}) {
          if (!grid::has_arm(arms, b)) continue;
          EXPECT_NE(rules.classify(key_point(key), grid::turn_kind(a, b)),
                    grid::TurnClass::kForbidden);
        }
      }
    }
  }
}

TEST(Maze, AvoidsCongestedVerticesWhenExpensive) {
  Harness h;
  // A wall of other-net metal across the middle row of metal 2.
  RoutedNet wall(9);
  for (int x = 0; x < 24; ++x) wall.add_metal(2, {x, 10}, 0);
  wall.apply_to(h.routing, h.vias);

  h.maze.set_present_factor(100.0);
  RoutedNet net = h.pinned_net(0, {10, 6});
  ASSERT_TRUE(h.route(net, {10, 6}, {10, 16}));
  // The path must cross row 10 somewhere, but only on metal 3 (the wall is
  // on metal 2 and sharing costs 100).
  for (const auto& [key, arms] : net.metal()) {
    if (key_layer(key) == 2) {
      EXPECT_NE(key_point(key).y, 10) << "crossed the wall on metal 2";
    }
  }
}

TEST(Maze, FvpBlockingForbidsBadViaLocations) {
  Harness h;
  // Pre-place vias so that any via at (10, 10) would create an FVP on via
  // layer 2 (metal2<->metal3): a 2x2 block completion.
  h.vias.add(2, {9, 9});
  h.vias.add(2, {10, 9});
  h.vias.add(2, {9, 10});
  ASSERT_TRUE(h.vias.would_create_fvp(2, {10, 10}));

  h.maze.set_fvp_blocking(true);
  RoutedNet net = h.pinned_net(0, {10, 4});
  ASSERT_TRUE(h.route(net, {10, 4}, {10, 16}));
  for (const auto& via : net.vias()) {
    if (via.via_layer != 2) continue;
    EXPECT_FALSE((via.at == grid::Point{10, 10}));
    // More generally: no via of the path may have created an FVP.
    h.vias.add(2, via.at);
  }
  EXPECT_TRUE(h.vias.scan_fvps(2).empty());
}

TEST(Maze, ReturnsFalseWhenNoSources) {
  Harness h;
  RoutedNet net(0);
  std::vector<MetalKey> empty;
  EXPECT_FALSE(h.maze.route_connection(net, empty, {5, 5}, nullptr));
}

TEST(Maze, ZeroLengthConnection) {
  Harness h;
  RoutedNet net = h.pinned_net(0, {7, 7});
  ASSERT_TRUE(h.route(net, {7, 7}, {7, 7}));
  EXPECT_EQ(net.wirelength(), 0);
}

TEST(Maze, NewPointsReported) {
  Harness h;
  RoutedNet net = h.pinned_net(0, {4, 10});
  std::vector<MetalKey> sources{metal_key(2, {4, 10})};
  std::vector<MetalKey> new_points;
  ASSERT_TRUE(h.maze.route_connection(net, sources, {8, 10}, &new_points));
  EXPECT_FALSE(new_points.empty());
  bool has_target = false;
  for (const MetalKey key : new_points) {
    has_target |= key_point(key) == grid::Point{8, 10} && key_layer(key) == 2;
  }
  EXPECT_TRUE(has_target);
}

}  // namespace
}  // namespace sadp::core
