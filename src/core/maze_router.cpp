#include "core/maze_router.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "util/status.hpp"

namespace sadp::core {

namespace {

constexpr int kDirNone = 4;

/// The search's state count, checked to fit the 32-bit parent links.
std::size_t num_states(const grid::RoutingGrid& grid) {
  const std::size_t states =
      static_cast<std::size_t>(grid.num_metal_layers() - 1) *
      static_cast<std::size_t>(grid.num_points()) * 5;
  if (states > std::size_t{std::numeric_limits<std::int32_t>::max()}) {
    throw FlowError(util::StatusCode::kInvalidInput,
                    "grid too large to route: " + std::to_string(states) +
                        " search states exceed 32-bit parent links");
  }
  return states;
}

}  // namespace

MazeRouter::MazeRouter(const grid::RoutingGrid& grid, const grid::TurnRules& rules,
                       const CostMaps& costs, const via::ViaDb& vias)
    : grid_(grid),
      rules_(rules),
      costs_(costs),
      vias_(vias),
      num_points_(grid.num_points()),
      dist_(num_states(grid)),
      parent_(dist_.size()),
      epoch_(dist_.size()) {}

double MazeRouter::metal_vertex_cost(int layer, grid::Point p,
                                     grid::NetId net) const {
  // The routed net is never applied to the grid during a search (it is
  // ripped first), so every occupant counted is an "other" net.
  assert(grid_.metal_occupant(layer, p, net) == nullptr);
  (void)net;
  return costs_.fused_metal_cost(layer, p) +
         present_factor_ * grid_.metal_net_count(layer, p);
}

double MazeRouter::via_vertex_cost(int via_layer, grid::Point p,
                                   grid::NetId net) const {
  assert(std::find(grid_.via_occupants(via_layer, p).begin(),
                   grid_.via_occupants(via_layer, p).end(),
                   net) == grid_.via_occupants(via_layer, p).end());
  (void)net;
  return costs_.fused_via_cost(via_layer, p) +
         present_factor_ * grid_.via_net_count(via_layer, p);
}

bool MazeRouter::route_connection(RoutedNet& net,
                                  const std::vector<MetalKey>& sources,
                                  grid::Point target_pin,
                                  std::vector<MetalKey>* new_points) {
  // Windowed first; full-grid fallback keeps completeness.
  int lo_x = target_pin.x, hi_x = target_pin.x;
  int lo_y = target_pin.y, hi_y = target_pin.y;
  for (const MetalKey key : sources) {
    const grid::Point p = key_point(key);
    lo_x = std::min(lo_x, p.x);
    hi_x = std::max(hi_x, p.x);
    lo_y = std::min(lo_y, p.y);
    hi_y = std::max(hi_y, p.y);
  }
  constexpr int kMargin = 24;
  const Window window{std::max(0, lo_x - kMargin), std::max(0, lo_y - kMargin),
                      std::min(grid_.width() - 1, hi_x + kMargin),
                      std::min(grid_.height() - 1, hi_y + kMargin)};
  if (search(net, sources, target_pin, window, new_points)) return true;
  const Window full{0, 0, grid_.width() - 1, grid_.height() - 1};
  if (window.lo_x == full.lo_x && window.lo_y == full.lo_y &&
      window.hi_x == full.hi_x && window.hi_y == full.hi_y) {
    return false;
  }
  return search(net, sources, target_pin, full, new_points);
}

bool MazeRouter::search(RoutedNet& net, const std::vector<MetalKey>& sources,
                        grid::Point target_pin, const Window& window,
                        std::vector<MetalKey>* new_points) {
  ++current_epoch_;
  last_pops_ = 0;
  ++stats_.searches;
  const std::size_t open_capacity_before = open_.capacity();
  open_.clear();  // keeps capacity: steady-state searches are allocation-free
  const grid::NetId net_id = net.id();

  auto heuristic = [&](int layer, grid::Point p) {
    return static_cast<double>(grid::manhattan(p, target_pin)) * kSegmentCost +
           static_cast<double>(layer - 2) * kViaCost;
  };

  auto relax = [&](std::int64_t state, double g, std::int64_t from, int layer,
                   grid::Point p) {
    const std::size_t s = static_cast<std::size_t>(state);
    if (epoch_[s] == current_epoch_ && dist_[s] <= g) return;
    epoch_[s] = current_epoch_;
    dist_[s] = g;
    parent_[s] = static_cast<std::int32_t>(from);
    ++stats_.relaxations;
    open_.push_back(OpenEntry{g + heuristic(layer, p), g, state});
    std::push_heap(open_.begin(), open_.end());
  };

  // Sources: the metal points of the net's connected tree.
  for (const MetalKey key : sources) {
    const int layer = key_layer(key);
    if (!grid_.routable(layer)) continue;
    const grid::Point p = key_point(key);
    if (!window.contains(p)) continue;
    relax(state_id(layer, p, kDirNone), 0.0, -1, layer, p);
  }
  if (open_.empty()) return false;

  std::int64_t goal_state = -1;
  while (!open_.empty()) {
    std::pop_heap(open_.begin(), open_.end());
    const OpenEntry top = open_.back();
    open_.pop_back();
    const std::size_t s = static_cast<std::size_t>(top.state);
    if (epoch_[s] != current_epoch_ || top.g > dist_[s]) continue;
    ++last_pops_;
    ++stats_.pops;

    // Decode.
    const int dir_in = static_cast<int>(top.state % 5);
    const std::int64_t cell = top.state / 5;
    const grid::Point p = grid_.point_of(static_cast<std::int32_t>(cell % num_points_));
    const int layer = static_cast<int>(cell / num_points_) + 2;

    if (layer == 2 && p == target_pin) {
      goal_state = top.state;
      break;
    }

    const grid::ArmMask own_arms = net.arms_at(layer, p);

    // Planar moves.
    for (grid::Dir o : grid::kPlanarDirs) {
      if (dir_in != kDirNone && o == grid::opposite(static_cast<grid::Dir>(dir_in))) {
        continue;  // no immediate backtracking
      }
      const grid::Point q = p + grid::step(o);
      if (!grid_.in_bounds(q) || !window.contains(q)) continue;

      double cost = kSegmentCost;
      const bool preferred =
          grid::RoutingGrid::prefers_horizontal(layer) == grid::is_horizontal(o);
      if (!preferred) cost *= kNonPreferredFactor;

      // Turn legality at the departure corner p: the new arm `o` against the
      // incoming travel arm and every existing arm of this net.
      grid::ArmMask arms = own_arms;
      if (dir_in != kDirNone) {
        arms |= grid::arm_bit(grid::opposite(static_cast<grid::Dir>(dir_in)));
      }
      bool blocked = false;
      bool non_preferred_turn = false;
      for (grid::Dir a : grid::kPlanarDirs) {
        if (!grid::has_arm(arms, a) || !grid::is_perpendicular(a, o)) continue;
        switch (rules_.classify(p, grid::turn_kind(a, o))) {
          case grid::TurnClass::kForbidden: blocked = true; break;
          case grid::TurnClass::kNonPreferred: non_preferred_turn = true; break;
          case grid::TurnClass::kPreferred: break;
        }
        if (blocked) break;
      }
      if (blocked) continue;

      // Turn legality at the arrival corner q: the new arm (pointing back to
      // p) against existing arms of this net at q.
      const grid::Dir back = grid::opposite(o);
      const grid::ArmMask arms_q = net.arms_at(layer, q);
      for (grid::Dir b : grid::kPlanarDirs) {
        if (!grid::has_arm(arms_q, b) || !grid::is_perpendicular(b, back)) continue;
        switch (rules_.classify(q, grid::turn_kind(b, back))) {
          case grid::TurnClass::kForbidden: blocked = true; break;
          case grid::TurnClass::kNonPreferred: non_preferred_turn = true; break;
          case grid::TurnClass::kPreferred: break;
        }
        if (blocked) break;
      }
      if (blocked) continue;

      if (non_preferred_turn) cost += kNonPreferredTurnCost;
      cost += metal_vertex_cost(layer, q, net_id);

      relax(state_id(layer, q, static_cast<int>(o)), top.g + cost, top.state,
            layer, q);
    }

    // Via moves.  The landing pad occupies (to_layer, p), so the metal
    // vertex cost of the destination layer is charged as well — otherwise a
    // via could land on a congested/penalized point for free.
    for (int to_layer : {layer - 1, layer + 1}) {
      if (!grid_.routable(to_layer)) continue;
      const int v = std::min(layer, to_layer);
      if (fvp_blocking_ && !vias_.has(v, p) && vias_.would_create_fvp(v, p)) {
        continue;  // blocked via location (Algorithm 2, Fig. 10)
      }
      const double cost = kViaCost + via_vertex_cost(v, p, net_id) +
                          metal_vertex_cost(to_layer, p, net_id);
      relax(state_id(to_layer, p, kDirNone), top.g + cost, top.state, to_layer, p);
    }
  }

  if (open_.capacity() == open_capacity_before) ++stats_.heap_reused;
  pops_hist_.add(static_cast<std::uint64_t>(last_pops_));

  if (goal_state < 0) return false;

  // Materialize the path back to the tree.
  std::int64_t state = goal_state;
  while (true) {
    const std::int64_t prev = parent_[static_cast<std::size_t>(state)];
    if (prev < 0) break;

    const std::int64_t cell = state / 5;
    const grid::Point p = grid_.point_of(static_cast<std::int32_t>(cell % num_points_));
    const int layer = static_cast<int>(cell / num_points_) + 2;
    const std::int64_t pcell = prev / 5;
    const grid::Point pp =
        grid_.point_of(static_cast<std::int32_t>(pcell % num_points_));
    const int player = static_cast<int>(pcell / num_points_) + 2;

    if (layer == player) {
      // Planar segment pp -> p.
      grid::Dir o = grid::Dir::kNone;
      for (grid::Dir d : grid::kPlanarDirs) {
        if (pp + grid::step(d) == p) {
          o = d;
          break;
        }
      }
      assert(o != grid::Dir::kNone);
      net.add_segment(layer, pp, o);
      if (new_points != nullptr) {
        new_points->push_back(metal_key(layer, p));
        new_points->push_back(metal_key(layer, pp));
      }
    } else {
      assert(pp == p);
      const int v = std::min(layer, player);
      net.add_via(v, p);
      net.add_metal(layer, p, 0);
      net.add_metal(player, p, 0);
      if (new_points != nullptr) {
        new_points->push_back(metal_key(layer, p));
        new_points->push_back(metal_key(player, p));
      }
    }
    state = prev;
  }
  return true;
}

}  // namespace sadp::core
