// Cross-check of the maze router against an independent Bellman-Ford
// reference over the same state graph and cost model.
//
// The production router is a windowed A* with direction states; this test
// re-implements the transition semantics naively (repeated relaxation to a
// fixed point, no heuristic, no window) and verifies that the cost of the
// path the router materializes equals the reference optimum, across both
// SADP flavours, random obstacle fields and random endpoints.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/cost_maps.hpp"
#include "core/maze_router.hpp"
#include "grid/routing_grid.hpp"
#include "util/rng.hpp"
#include "via/via_db.hpp"

namespace sadp::core {
namespace {

constexpr int kSide = 14;
constexpr int kDirNone = 4;

struct Harness {
  explicit Harness(grid::SadpStyle style)
      : routing(kSide, kSide, 3),
        vias(kSide, kSide, 2),
        rules(grid::TurnRules::for_style(style)),
        options(make_options(style)),
        costs(routing, rules, options),
        maze(routing, rules, costs, vias) {}

  static FlowOptions make_options(grid::SadpStyle style) {
    FlowOptions options;
    options.style = style;
    options.consider_dvi = true;
    options.consider_tpl = true;
    return options;
  }

  grid::RoutingGrid routing;
  via::ViaDb vias;
  grid::TurnRules rules;
  FlowOptions options;
  CostMaps costs;
  MazeRouter maze;
};

int state_id(const grid::RoutingGrid& g, int layer, grid::Point p, int dir) {
  return ((layer - 2) * g.num_points() + g.index(p)) * 5 + dir;
}

double metal_cost(const Harness& h, int layer, grid::Point p, grid::NetId net) {
  const auto occ = h.routing.metal_occupants(layer, p);
  int others = static_cast<int>(occ.size());
  for (const auto& e : occ) {
    if (e.net == net) {
      --others;
      break;
    }
  }
  return h.costs.metal_history(layer, p) + 1.0 * others +
         h.costs.metal_penalty(layer, p);
}

double via_cost(const Harness& h, int vl, grid::Point p, grid::NetId net) {
  const auto occ = h.routing.via_occupants(vl, p);
  int others = static_cast<int>(occ.size());
  for (const auto e : occ) {
    if (e == net) {
      --others;
      break;
    }
  }
  return h.costs.via_history(vl, p) + 1.0 * others + h.costs.via_penalty(vl, p);
}

/// Reference optimum from source state set to any state at (2, target).
double bellman_ford(const Harness& h, const RoutedNet& net, grid::Point source,
                    grid::Point target) {
  const auto& g = h.routing;
  const int num_states = (g.num_metal_layers() - 1) * g.num_points() * 5;
  std::vector<double> dist(static_cast<std::size_t>(num_states),
                           std::numeric_limits<double>::infinity());
  dist[static_cast<std::size_t>(state_id(g, 2, source, kDirNone))] = 0.0;

  bool changed = true;
  while (changed) {
    changed = false;
    for (int layer = 2; layer <= g.num_metal_layers(); ++layer) {
      for (int idx = 0; idx < g.num_points(); ++idx) {
        const grid::Point p = g.point_of(idx);
        for (int dir = 0; dir < 5; ++dir) {
          const double d = dist[static_cast<std::size_t>(state_id(g, layer, p, dir))];
          if (!std::isfinite(d)) continue;

          auto relax = [&](int s, double cost) {
            if (d + cost < dist[static_cast<std::size_t>(s)] - 1e-12) {
              dist[static_cast<std::size_t>(s)] = d + cost;
              changed = true;
            }
          };

          // Planar moves.
          for (grid::Dir o : grid::kPlanarDirs) {
            if (dir != kDirNone &&
                o == grid::opposite(static_cast<grid::Dir>(dir))) {
              continue;
            }
            const grid::Point q = p + grid::step(o);
            if (!g.in_bounds(q)) continue;

            double cost = MazeRouter::kSegmentCost;
            if (grid::RoutingGrid::prefers_horizontal(layer) !=
                grid::is_horizontal(o)) {
              cost *= MazeRouter::kNonPreferredFactor;
            }
            grid::ArmMask arms = net.arms_at(layer, p);
            if (dir != kDirNone) {
              arms = static_cast<grid::ArmMask>(
                  arms |
                  grid::arm_bit(grid::opposite(static_cast<grid::Dir>(dir))));
            }
            bool blocked = false;
            bool non_preferred_turn = false;
            for (grid::Dir a : grid::kPlanarDirs) {
              if (!grid::has_arm(arms, a) || !grid::is_perpendicular(a, o)) continue;
              switch (h.rules.classify(p, grid::turn_kind(a, o))) {
                case grid::TurnClass::kForbidden: blocked = true; break;
                case grid::TurnClass::kNonPreferred: non_preferred_turn = true; break;
                case grid::TurnClass::kPreferred: break;
              }
            }
            const grid::Dir back = grid::opposite(o);
            for (grid::Dir b : grid::kPlanarDirs) {
              if (!grid::has_arm(net.arms_at(layer, q), b) ||
                  !grid::is_perpendicular(b, back)) {
                continue;
              }
              switch (h.rules.classify(q, grid::turn_kind(b, back))) {
                case grid::TurnClass::kForbidden: blocked = true; break;
                case grid::TurnClass::kNonPreferred: non_preferred_turn = true; break;
                case grid::TurnClass::kPreferred: break;
              }
            }
            if (blocked) continue;
            if (non_preferred_turn) cost += MazeRouter::kNonPreferredTurnCost;
            cost += metal_cost(h, layer, q, net.id());
            relax(state_id(g, layer, q, static_cast<int>(o)), cost);
          }

          // Via moves.
          for (int to_layer : {layer - 1, layer + 1}) {
            if (!g.routable(to_layer)) continue;
            const int vl = std::min(layer, to_layer);
            const double cost = MazeRouter::kViaCost +
                                via_cost(h, vl, p, net.id()) +
                                metal_cost(h, to_layer, p, net.id());
            relax(state_id(g, to_layer, p, kDirNone), cost);
          }
        }
      }
    }
  }

  double best = std::numeric_limits<double>::infinity();
  for (int dir = 0; dir < 5; ++dir) {
    best = std::min(best, dist[static_cast<std::size_t>(state_id(g, 2, target, dir))]);
  }
  return best;
}

/// Cost of the materialized single-connection path (source was a bare pad).
double path_cost(const Harness& h, const RoutedNet& net, grid::Point source) {
  double cost = 0.0;
  for (const auto& [key, arms] : net.metal()) {
    const int layer = key_layer(key);
    if (layer < 2) continue;
    const grid::Point p = key_point(key);
    // Segments (east/north bits count each segment once).
    for (grid::Dir d : {grid::Dir::kEast, grid::Dir::kNorth}) {
      if (!grid::has_arm(arms, d)) continue;
      cost += MazeRouter::kSegmentCost *
              (grid::RoutingGrid::prefers_horizontal(layer) == grid::is_horizontal(d)
                   ? 1.0
                   : MazeRouter::kNonPreferredFactor);
    }
    // Turn penalties (each corner charged once).
    for (grid::Dir hd : {grid::Dir::kEast, grid::Dir::kWest}) {
      if (!grid::has_arm(arms, hd)) continue;
      for (grid::Dir vd : {grid::Dir::kNorth, grid::Dir::kSouth}) {
        if (!grid::has_arm(arms, vd)) continue;
        if (h.rules.classify(p, grid::turn_kind(hd, vd)) ==
            grid::TurnClass::kNonPreferred) {
          cost += MazeRouter::kNonPreferredTurnCost;
        }
      }
    }
    // Vertex costs: every metal point except the source is entered once.
    if (!(layer == 2 && p == source)) cost += metal_cost(h, layer, p, net.id());
  }
  for (const auto& via : net.vias()) {
    cost += MazeRouter::kViaCost + via_cost(h, via.via_layer, via.at, net.id());
  }
  return cost;
}

class MazeReference : public ::testing::TestWithParam<int> {};

TEST_P(MazeReference, AStarMatchesBellmanFord) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 613 + 101);
  const grid::SadpStyle style =
      rng.chance(0.5) ? grid::SadpStyle::kSim : grid::SadpStyle::kSid;
  Harness h(style);

  // Random obstacle nets and history bumps to make costs non-uniform.
  RoutedNet blocker(99);
  for (int i = 0; i < 14; ++i) {
    const int layer = rng.chance(0.5) ? 2 : 3;
    blocker.add_metal(layer, {static_cast<int>(rng.below(kSide)),
                              static_cast<int>(rng.below(kSide))},
                      0);
  }
  blocker.apply_to(h.routing, h.vias);
  for (int i = 0; i < 10; ++i) {
    h.costs.bump_metal_history(rng.chance(0.5) ? 2 : 3,
                               {static_cast<int>(rng.below(kSide)),
                                static_cast<int>(rng.below(kSide))},
                               rng.uniform() * 3.0);
  }

  const grid::Point source{static_cast<int>(rng.below(kSide)),
                           static_cast<int>(rng.below(kSide))};
  grid::Point target{static_cast<int>(rng.below(kSide)),
                     static_cast<int>(rng.below(kSide))};
  if (target == source) target.x = (target.x + 3) % kSide;

  RoutedNet net(0);
  net.add_metal(2, source, 0);

  std::vector<MetalKey> sources{metal_key(2, source)};
  const bool found = h.maze.route_connection(net, sources, target, nullptr);
  const double reference = bellman_ford(h, RoutedNet(0), source, target);
  ASSERT_TRUE(found);
  ASSERT_TRUE(std::isfinite(reference));
  EXPECT_NEAR(path_cost(h, net, source), reference, 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MazeReference, ::testing::Range(0, 20));

}  // namespace
}  // namespace sadp::core
