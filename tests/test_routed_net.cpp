// Tests of the RoutedNet geometry container and its database application,
// plus the cost-map add/remove symmetry.
#include <gtest/gtest.h>

#include "core/cost_maps.hpp"
#include "core/routed_net.hpp"
#include "grid/routing_grid.hpp"
#include "util/status.hpp"
#include "via/via_db.hpp"

namespace sadp::core {
namespace {

TEST(MetalKey, RoundTrips) {
  const MetalKey key = metal_key(3, {123, 456});
  EXPECT_EQ(key_layer(key), 3);
  EXPECT_EQ(key_point(key), (grid::Point{123, 456}));
}

TEST(RoutedNet, SegmentsBuildArms) {
  RoutedNet net(7);
  net.add_segment(2, {3, 3}, grid::Dir::kEast);
  net.add_segment(2, {4, 3}, grid::Dir::kEast);
  EXPECT_TRUE(grid::has_arm(net.arms_at(2, {3, 3}), grid::Dir::kEast));
  EXPECT_TRUE(grid::has_arm(net.arms_at(2, {4, 3}), grid::Dir::kWest));
  EXPECT_TRUE(grid::has_arm(net.arms_at(2, {4, 3}), grid::Dir::kEast));
  EXPECT_EQ(net.arms_at(2, {5, 3}), grid::arm_bit(grid::Dir::kWest));
  EXPECT_EQ(net.wirelength(), 2);
}

TEST(RoutedNet, ViaDeduplication) {
  RoutedNet net(1);
  net.add_via(2, {4, 4});
  net.add_via(2, {4, 4});
  EXPECT_EQ(net.via_count(), 1);
}

TEST(RoutedNet, ApplyRemoveRoundTrip) {
  grid::RoutingGrid routing(8, 8, 3);
  via::ViaDb vias(8, 8, 2);
  RoutedNet net(3);
  net.add_segment(2, {2, 2}, grid::Dir::kEast);
  net.add_via(2, {3, 2});
  net.add_metal(3, {3, 2}, 0);

  net.apply_to(routing, vias);
  EXPECT_EQ(routing.metal_single_owner(2, {2, 2}), 3);
  EXPECT_TRUE(vias.has(2, {3, 2}));

  net.remove_from(routing, vias);
  EXPECT_EQ(routing.metal_net_count(2, {2, 2}), 0);
  EXPECT_FALSE(vias.has(2, {3, 2}));
}

TEST(RoutedNet, ClearRoutingKeepsPinStubs) {
  RoutedNet net(0);
  net.add_metal(1, {2, 2}, 0);
  net.add_metal(2, {2, 2}, 0);
  net.add_via(1, {2, 2}, /*is_pin_via=*/true);
  net.add_segment(2, {2, 2}, grid::Dir::kEast);
  net.add_via(2, {3, 2});
  net.set_routed(true);

  net.clear_routing();
  EXPECT_FALSE(net.routed());
  EXPECT_EQ(net.via_count(), 1);  // pin via kept
  EXPECT_TRUE(net.vias()[0].is_pin_via);
  EXPECT_TRUE(net.has_metal_at(1, {2, 2}));
  EXPECT_TRUE(net.has_metal_at(2, {2, 2}));
  EXPECT_FALSE(net.has_metal_at(2, {3, 2}));
  EXPECT_EQ(net.wirelength(), 0);
}

// --- Cost maps ----------------------------------------------------------------

class CostMapsFixture : public ::testing::Test {
 protected:
  CostMapsFixture()
      : routing_(16, 16, 3),
        rules_(grid::TurnRules::sim_cut()),
        options_(make_options()),
        costs_(routing_, rules_, options_) {}

  static FlowOptions make_options() {
    FlowOptions options;
    options.consider_dvi = true;
    options.consider_tpl = true;
    return options;
  }

  RoutedNet make_net() {
    RoutedNet net(0);
    net.add_segment(2, {6, 6}, grid::Dir::kWest);
    net.add_segment(3, {6, 6}, grid::Dir::kNorth);
    net.add_via(2, {6, 6});
    net.add_metal(2, {6, 6}, 0);
    net.add_metal(3, {6, 6}, 0);
    return net;
  }

  grid::RoutingGrid routing_;
  grid::TurnRules rules_;
  FlowOptions options_;
  CostMaps costs_;
};

TEST_F(CostMapsFixture, AddThenRemoveIsIdentity) {
  via::ViaDb vias(16, 16, 2);
  RoutedNet net = make_net();
  net.apply_to(routing_, vias);
  costs_.add_net_costs(net);
  EXPECT_TRUE(costs_.has_costs_for(0));

  costs_.remove_net_costs(net);
  EXPECT_FALSE(costs_.has_costs_for(0));
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      for (int v = 1; v <= 2; ++v) {
        EXPECT_DOUBLE_EQ(costs_.via_penalty(v, {x, y}), 0.0);
      }
      for (int m = 2; m <= 3; ++m) {
        EXPECT_DOUBLE_EQ(costs_.metal_penalty(m, {x, y}), 0.0);
      }
    }
  }
}

TEST_F(CostMapsFixture, RemoveRejectsANetChangedSinceAdd) {
  via::ViaDb vias(16, 16, 2);
  RoutedNet net = make_net();
  net.apply_to(routing_, vias);
  costs_.add_net_costs(net);

  // Removal regenerates the deposits from the geometry, so a net that
  // gained a via or a metal point since its costs were added must be
  // refused in every build type, not half-subtracted.
  RoutedNet extra_via = net;
  extra_via.add_via(1, {6, 6});
  RoutedNet extra_metal = net;
  extra_metal.add_metal(2, {9, 9}, 0);
  for (const RoutedNet* changed : {&extra_via, &extra_metal}) {
    try {
      costs_.remove_net_costs(*changed);
      ADD_FAILURE() << "costs of a changed net were removed";
    } catch (const FlowError& e) {
      EXPECT_EQ(e.code(), util::StatusCode::kInternal);
      EXPECT_NE(std::string(e.what()).find("cost record"), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(costs_.has_costs_for(0));
  }
  costs_.remove_net_costs(net);
  EXPECT_FALSE(costs_.has_costs_for(0));
}

TEST_F(CostMapsFixture, TplcAppearsAroundVias) {
  via::ViaDb vias(16, 16, 2);
  RoutedNet net = make_net();
  net.apply_to(routing_, vias);
  costs_.add_net_costs(net);

  // A different-color location next to the via must carry TPLC (among other
  // penalties); a location far away must be clean.
  EXPECT_GT(costs_.via_penalty(2, {7, 7}), 0.0);
  EXPECT_DOUBLE_EQ(costs_.via_penalty(2, {1, 1}), 0.0);
  // Same-color location (diagonal corner at distance 2,2): no TPLC, but AMC
  // from adjacent metal may exist; check a corner far from the metal.
  EXPECT_DOUBLE_EQ(costs_.via_penalty(2, {8, 4}), 0.0);
}

TEST_F(CostMapsFixture, BdcOnFeasibleDvics) {
  via::ViaDb vias(16, 16, 2);
  RoutedNet net = make_net();
  net.apply_to(routing_, vias);
  costs_.add_net_costs(net);

  const auto dvics = feasible_dvics(routing_, rules_, net, 2, {6, 6});
  ASSERT_FALSE(dvics.empty());
  for (const auto& d : dvics) {
    EXPECT_GT(costs_.via_penalty(2, d), 0.0);
    EXPECT_GT(costs_.metal_penalty(2, d), 0.0);
    EXPECT_GT(costs_.metal_penalty(3, d), 0.0);
  }
}

TEST_F(CostMapsFixture, HistoryIsIndependentOfNetCosts) {
  costs_.bump_metal_history(2, {3, 3}, 2.5);
  costs_.bump_via_history(1, {3, 3}, 1.5);
  EXPECT_DOUBLE_EQ(costs_.metal_history(2, {3, 3}), 2.5);
  EXPECT_DOUBLE_EQ(costs_.via_history(1, {3, 3}), 1.5);
  costs_.remove_net_costs(make_net());  // no record: no-op
  EXPECT_DOUBLE_EQ(costs_.metal_history(2, {3, 3}), 2.5);
}

TEST(CostMapsOptions, DisabledConsiderationsAddNothing) {
  grid::RoutingGrid routing(16, 16, 3);
  via::ViaDb vias(16, 16, 2);
  const grid::TurnRules rules = grid::TurnRules::sim_cut();
  FlowOptions options;  // both considerations off
  CostMaps costs(routing, rules, options);

  RoutedNet net(0);
  net.add_segment(2, {6, 6}, grid::Dir::kWest);
  net.add_via(2, {6, 6});
  net.add_metal(3, {6, 6}, 0);
  net.apply_to(routing, vias);
  costs.add_net_costs(net);

  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_DOUBLE_EQ(costs.via_penalty(1, {x, y}), 0.0);
      EXPECT_DOUBLE_EQ(costs.via_penalty(2, {x, y}), 0.0);
    }
  }
}

}  // namespace
}  // namespace sadp::core
