// Routed geometry of one net and its application to the shared databases.
//
// A RoutedNet accumulates the metal points (with arm masks) and vias of a
// net as its pin-to-pin connections are routed.  The same structure drives
// both directions of bookkeeping: apply_to()/remove_from() keep the routing
// grid and the via database in sync during rip-up and reroute.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "grid/geometry.hpp"
#include "grid/routing_grid.hpp"
#include "via/via_db.hpp"

namespace sadp::core {

/// A via instance of a net.
struct NetVia {
  int via_layer = 1;
  grid::Point at{};
  bool is_pin_via = false;  ///< pin vias are immovable (metal-1 terminals)

  friend constexpr auto operator<=>(const NetVia&, const NetVia&) = default;
};

/// Key for the (layer, point) metal map.
struct MetalKey {
  std::int64_t v;
  friend constexpr bool operator==(MetalKey a, MetalKey b) { return a.v == b.v; }
};

struct MetalKeyHash {
  std::size_t operator()(MetalKey k) const noexcept {
    return std::hash<std::int64_t>{}(k.v);
  }
};

[[nodiscard]] constexpr MetalKey metal_key(int layer, grid::Point p) noexcept {
  return MetalKey{grid::site_key(layer, p)};
}
[[nodiscard]] constexpr int key_layer(MetalKey k) noexcept {
  return grid::site_layer(k.v);
}
[[nodiscard]] constexpr grid::Point key_point(MetalKey k) noexcept {
  return grid::site_point(k.v);
}

class RoutedNet {
 public:
  explicit RoutedNet(grid::NetId id = grid::kNoNet) : id_(id) {}

  [[nodiscard]] grid::NetId id() const noexcept { return id_; }

  /// Add a metal point (merging arm bits) without touching the databases.
  void add_metal(int layer, grid::Point p, grid::ArmMask arms);
  /// Add a unit segment (both endpoints get the facing arm bits).
  void add_segment(int layer, grid::Point from, grid::Dir dir);
  void add_via(int via_layer, grid::Point p, bool is_pin_via = false);

  /// Drop all *routed* geometry, keeping pin stubs (pin vias plus their
  /// metal-1/metal-2 pads).  Used by rip-up.
  void clear_routing();

  /// True when the net has any routed (non-pin-stub) geometry.
  [[nodiscard]] bool routed() const noexcept { return routed_; }
  void set_routed(bool value) noexcept { routed_ = value; }

  /// Arm mask of the net at a metal point (0 when absent).
  [[nodiscard]] grid::ArmMask arms_at(int layer, grid::Point p) const;
  [[nodiscard]] bool has_metal_at(int layer, grid::Point p) const;

  [[nodiscard]] const std::unordered_map<MetalKey, grid::ArmMask, MetalKeyHash>&
  metal() const noexcept {
    return metal_;
  }
  [[nodiscard]] const std::vector<NetVia>& vias() const noexcept { return vias_; }

  /// True when the net has a movable (non-pin) via at (via_layer, p).
  /// O(1) via an index maintained by add_via/clear_routing — the R&R
  /// candidate selection calls this per occupant instead of scanning the
  /// occupant's full via list.
  [[nodiscard]] bool has_movable_via_at(int via_layer, grid::Point p) const {
    return movable_vias_.contains(metal_key(via_layer, p).v);
  }

  /// Wirelength: number of unit segments (each contributes two arm bits).
  [[nodiscard]] long long wirelength() const;
  [[nodiscard]] int via_count() const noexcept { return static_cast<int>(vias_.size()); }

  /// Push / pull this net's geometry into the shared databases.
  void apply_to(grid::RoutingGrid& grid, via::ViaDb& vias) const;
  void remove_from(grid::RoutingGrid& grid, via::ViaDb& vias) const;

  /// Number of times this net has been ripped up (rip fairness metric).
  [[nodiscard]] int rip_count() const noexcept { return rip_count_; }
  void note_ripped() noexcept { ++rip_count_; }

 private:
  grid::NetId id_;
  std::unordered_map<MetalKey, grid::ArmMask, MetalKeyHash> metal_;
  std::vector<NetVia> vias_;
  /// (via_layer, point) keys of the movable vias, kept in sync with vias_.
  std::unordered_set<std::int64_t> movable_vias_;
  bool routed_ = false;
  int rip_count_ = 0;
};

}  // namespace sadp::core
