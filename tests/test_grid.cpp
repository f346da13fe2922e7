// Unit tests for the geometry vocabulary, colored grid, turn tables and the
// routing grid occupancy bookkeeping.
#include <gtest/gtest.h>

#include "grid/colored_grid.hpp"
#include "grid/geometry.hpp"
#include "grid/routing_grid.hpp"
#include "grid/turns.hpp"

namespace sadp::grid {
namespace {

TEST(Geometry, Distances) {
  EXPECT_EQ(chebyshev({0, 0}, {3, -2}), 3);
  EXPECT_EQ(manhattan({0, 0}, {3, -2}), 5);
  EXPECT_EQ(sq_dist({1, 1}, {3, 2}), 5);
}

// The one site key equals both packings it replaced on in-grid points: the
// metal map's OR form and the via modules' XOR form.
TEST(Geometry, SiteKeyMatchesTheOldPackingsAndRoundTrips) {
  const auto or_key = [](int layer, Point p) {
    return (static_cast<std::int64_t>(layer) << 48) |
           (static_cast<std::int64_t>(static_cast<std::uint32_t>(p.x)) << 24) |
           static_cast<std::int64_t>(static_cast<std::uint32_t>(p.y));
  };
  const auto xor_key = [](int layer, Point p) {
    return (static_cast<std::int64_t>(layer) << 48) ^
           (static_cast<std::int64_t>(static_cast<std::uint32_t>(p.x)) << 24) ^
           static_cast<std::int64_t>(static_cast<std::uint32_t>(p.y));
  };
  for (const int layer : {1, 2, 5, 31}) {
    for (const Point p : {Point{0, 0}, Point{1, 0}, Point{0, 1}, Point{123, 456},
                          Point{4095, 17}, Point{0xFFFFFE, 0xFFFFFE}}) {
      const std::int64_t key = site_key(layer, p);
      EXPECT_EQ(key, or_key(layer, p));
      EXPECT_EQ(key, xor_key(layer, p));
      EXPECT_EQ(site_layer(key), layer);
      EXPECT_EQ(site_point(key), p);
    }
  }
}

TEST(Geometry, DirectionHelpers) {
  EXPECT_TRUE(is_horizontal(Dir::kEast));
  EXPECT_TRUE(is_vertical(Dir::kSouth));
  EXPECT_TRUE(is_perpendicular(Dir::kEast, Dir::kNorth));
  EXPECT_FALSE(is_perpendicular(Dir::kEast, Dir::kWest));
  EXPECT_EQ(opposite(Dir::kNorth), Dir::kSouth);
  EXPECT_EQ(step(Dir::kWest), (Point{-1, 0}));
}

TEST(Geometry, TurnKindIsOrderInsensitive) {
  EXPECT_EQ(turn_kind(Dir::kNorth, Dir::kEast), TurnKind::kNE);
  EXPECT_EQ(turn_kind(Dir::kEast, Dir::kNorth), TurnKind::kNE);
  EXPECT_EQ(turn_kind(Dir::kWest, Dir::kSouth), TurnKind::kSW);
  EXPECT_EQ(turn_kind(Dir::kSouth, Dir::kEast), TurnKind::kSE);
}

TEST(ColoredGrid, ParityClasses) {
  EXPECT_EQ(parity_class({0, 0}), 0);
  EXPECT_EQ(parity_class({0, 1}), 1);
  EXPECT_EQ(parity_class({1, 0}), 2);
  EXPECT_EQ(parity_class({1, 1}), 3);
  EXPECT_EQ(parity_class({4, 6}), 0);
}

TEST(ColoredGrid, AlternatingColors) {
  EXPECT_EQ(ColoredGrid::panel_color(0, 0), PanelColor::kGrey);
  EXPECT_EQ(ColoredGrid::panel_color(1, 0), PanelColor::kWhite);
  EXPECT_EQ(ColoredGrid::panel_color(1, 1), PanelColor::kGrey);
  EXPECT_EQ(ColoredGrid::horizontal_track_color(0), TrackColor::kBlack);
  EXPECT_EQ(ColoredGrid::horizontal_track_color(1), TrackColor::kGrey);
  EXPECT_TRUE(ColoredGrid::on_mandrel_track({3, 2}, /*horizontal_wire=*/true));
  EXPECT_FALSE(ColoredGrid::on_mandrel_track({3, 2}, /*horizontal_wire=*/false));
}

// --- Turn rule tables --------------------------------------------------------

class TurnTables : public ::testing::TestWithParam<SadpStyle> {};

TEST_P(TurnTables, EveryParityClassAllowsSomeTurn) {
  const TurnRules rules = TurnRules::for_style(GetParam());
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      int allowed = 0;
      for (TurnKind k : kTurnKinds) {
        if (rules.classify({x, y}, k) != TurnClass::kForbidden) ++allowed;
      }
      EXPECT_GE(allowed, 2) << "class " << x << "," << y;
    }
  }
}

TEST_P(TurnTables, EveryParityClassForbidsSomeTurn) {
  const TurnRules rules = TurnRules::for_style(GetParam());
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      int forbidden = 0;
      for (TurnKind k : kTurnKinds) {
        if (rules.classify({x, y}, k) == TurnClass::kForbidden) ++forbidden;
      }
      EXPECT_GE(forbidden, 1) << "class " << x << "," << y;
    }
  }
}

TEST_P(TurnTables, ClassificationDependsOnlyOnParity) {
  const TurnRules rules = TurnRules::for_style(GetParam());
  for (TurnKind k : kTurnKinds) {
    EXPECT_EQ(rules.classify({0, 0}, k), rules.classify({8, 4}, k));
    EXPECT_EQ(rules.classify({1, 1}, k), rules.classify({7, 9}, k));
  }
}

INSTANTIATE_TEST_SUITE_P(BothStyles, TurnTables,
                         ::testing::Values(SadpStyle::kSim, SadpStyle::kSid));

TEST(TurnTables, SimAndSidDiffer) {
  const TurnRules sim = TurnRules::sim_cut();
  const TurnRules sid = TurnRules::sid_trim();
  bool any_difference = false;
  for (int cls = 0; cls < 4; ++cls) {
    const Point p{cls / 2, cls % 2};
    for (TurnKind k : kTurnKinds) {
      any_difference |= sim.classify(p, k) != sid.classify(p, k);
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(TurnTables, SimUnitExceptionOnlyForVerticalShortArm) {
  const TurnRules sim = TurnRules::sim_cut();
  // Find a forbidden turn and check the Fig. 6(a) asymmetry.
  for (int cls = 0; cls < 4; ++cls) {
    const Point p{cls / 2, cls % 2};
    for (TurnKind k : kTurnKinds) {
      if (sim.classify(p, k) != TurnClass::kForbidden) continue;
      EXPECT_TRUE(sim.forbidden_ok_at_unit(p, k, ShortArm::kVertical));
      EXPECT_FALSE(sim.forbidden_ok_at_unit(p, k, ShortArm::kHorizontal));
    }
  }
}

TEST(TurnTables, SidHasNoUnitException) {
  const TurnRules sid = TurnRules::sid_trim();
  for (int cls = 0; cls < 4; ++cls) {
    const Point p{cls / 2, cls % 2};
    for (TurnKind k : kTurnKinds) {
      if (sid.classify(p, k) != TurnClass::kForbidden) continue;
      EXPECT_FALSE(sid.forbidden_ok_at_unit(p, k, ShortArm::kVertical));
      EXPECT_FALSE(sid.forbidden_ok_at_unit(p, k, ShortArm::kHorizontal));
    }
  }
}

// --- Routing grid occupancy --------------------------------------------------

TEST(RoutingGrid, MetalOccupancyLifecycle) {
  RoutingGrid grid(8, 8, 3);
  EXPECT_TRUE(grid.metal_free_for(2, {3, 3}, 0));
  grid.add_metal(2, {3, 3}, 0, arm_bit(Dir::kEast));
  grid.add_metal(2, {3, 3}, 0, arm_bit(Dir::kWest));
  EXPECT_EQ(grid.metal_net_count(2, {3, 3}), 1);
  const MetalOcc* occ = grid.metal_occupant(2, {3, 3}, 0);
  ASSERT_NE(occ, nullptr);
  EXPECT_TRUE(has_arm(occ->arms, Dir::kEast));
  EXPECT_TRUE(has_arm(occ->arms, Dir::kWest));

  grid.add_metal(2, {3, 3}, 1, 0);
  EXPECT_TRUE(grid.metal_congested(2, {3, 3}));
  EXPECT_EQ(grid.metal_single_owner(2, {3, 3}), kNoNet);
  EXPECT_FALSE(grid.metal_free_for(2, {3, 3}, 0));

  grid.remove_metal(2, {3, 3}, 1);
  EXPECT_FALSE(grid.metal_congested(2, {3, 3}));
  EXPECT_EQ(grid.metal_single_owner(2, {3, 3}), 0);
}

TEST(RoutingGrid, ViaOccupancyAndCongestion) {
  RoutingGrid grid(8, 8, 3);
  EXPECT_FALSE(grid.has_via(2, {4, 4}));
  grid.add_via(2, {4, 4}, 7);
  grid.add_via(2, {4, 4}, 7);  // idempotent per net
  EXPECT_EQ(grid.via_occupants(2, {4, 4}).size(), 1u);
  grid.add_via(2, {4, 4}, 9);
  EXPECT_TRUE(grid.via_congested(2, {4, 4}));
  const auto congested = grid.collect_congestion();
  ASSERT_EQ(congested.size(), 1u);
  EXPECT_TRUE(congested[0].is_via);
  EXPECT_EQ(congested[0].layer, 2);
}

TEST(RoutingGrid, PreferredDirections) {
  EXPECT_TRUE(RoutingGrid::prefers_horizontal(2));
  EXPECT_FALSE(RoutingGrid::prefers_horizontal(3));
  RoutingGrid grid(4, 4, 3);
  EXPECT_FALSE(grid.routable(1));
  EXPECT_TRUE(grid.routable(2));
  EXPECT_TRUE(grid.routable(3));
  EXPECT_FALSE(grid.routable(4));
}


TEST(RoutingGrid, IndexPointRoundTrip) {
  RoutingGrid grid(7, 5, 3);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 7; ++x) {
      const Point p{x, y};
      EXPECT_EQ(grid.point_of(grid.index(p)), p);
    }
  }
  EXPECT_TRUE(grid.in_bounds({0, 0}));
  EXPECT_TRUE(grid.in_bounds({6, 4}));
  EXPECT_FALSE(grid.in_bounds({7, 0}));
  EXPECT_FALSE(grid.in_bounds({0, -1}));
}

TEST(RoutingGrid, CollectCongestionCoversAllKinds) {
  RoutingGrid grid(6, 6, 3);
  grid.add_metal(2, {1, 1}, 0, 0);
  grid.add_metal(2, {1, 1}, 1, 0);
  grid.add_metal(3, {2, 2}, 0, 0);
  grid.add_metal(3, {2, 2}, 1, 0);
  grid.add_via(1, {3, 3}, 0);
  grid.add_via(1, {3, 3}, 1);
  const auto congested = grid.collect_congestion();
  EXPECT_EQ(congested.size(), 3u);
  EXPECT_EQ(grid.congestion_count(), 3u);
}

}  // namespace
}  // namespace sadp::grid
