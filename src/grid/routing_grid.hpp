// The multi-layer routing grid: dimensions, per-layer preferred directions,
// and (multi-)occupancy bookkeeping for metal points and vias.
//
// Following the paper's benchmarks, metal layer 1 carries pins and is not
// routable; metal 2 prefers horizontal and metal 3 vertical (alternating for
// any additional layers).  Every grid point has unit capacity; during
// negotiated-congestion rip-up-and-reroute several nets may temporarily
// occupy the same point, which is what the congestion machinery resolves.
//
// Occupancy is tracked per (layer, point).  At unit capacity a point holds
// at most one net once negotiation settles, so every slot stores that one
// occupant inline — {net, arm-mask} for metal, the net id for vias — next
// to a dense distinct-net count.  A point shared by two or more nets keeps
// all of its occupants, first added first, in a side table keyed by slot;
// the inline occupant is meaningful only while the count is 1.  Memory thus
// scales with the grid by a few bytes per slot and with the congestion, not
// with a container per slot.  The arm mask records in which directions the
// net's metal leaves the point; it feeds the turn legality checks (branching
// off an existing wire must not create a forbidden turn) and the DVI
// feasibility analysis.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "grid/geometry.hpp"

namespace sadp::grid {

/// Net identifier; -1 means "none".
using NetId = std::int32_t;
inline constexpr NetId kNoNet = -1;

/// One occupant of a metal grid point.
struct MetalOcc {
  NetId net = kNoNet;
  ArmMask arms = 0;
};

class RoutingGrid {
 public:
  /// Construct a grid of `width` x `height` points with metal layers
  /// 1..`num_metal_layers` (layer 1 is pin-only).
  RoutingGrid(int width, int height, int num_metal_layers = 3);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] int num_metal_layers() const noexcept { return num_metal_; }
  /// Via layer v connects metal v and metal v+1; valid v: 1..num_via_layers().
  [[nodiscard]] int num_via_layers() const noexcept { return num_metal_ - 1; }
  [[nodiscard]] int num_points() const noexcept { return width_ * height_; }

  [[nodiscard]] bool in_bounds(Point p) const noexcept {
    return p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_;
  }
  [[nodiscard]] std::int32_t index(Point p) const noexcept {
    return p.y * width_ + p.x;
  }
  [[nodiscard]] Point point_of(std::int32_t idx) const noexcept {
    return {idx % width_, idx / width_};
  }

  /// True when metal `layer` prefers horizontal wires (metal 2, 4, ...).
  [[nodiscard]] static bool prefers_horizontal(int layer) noexcept {
    return (layer % 2) == 0;
  }
  /// True when routing is allowed on this metal layer (all but metal 1).
  [[nodiscard]] bool routable(int layer) const noexcept {
    return layer >= 2 && layer <= num_metal_;
  }

  // --- Metal occupancy -----------------------------------------------------

  /// Add (or extend) net `net` at metal point (layer, p) with additional
  /// arm directions `arms` (may be 0 for a bare landing pad / pin).
  void add_metal(int layer, Point p, NetId net, ArmMask arms);

  /// Drop `net`'s occupant entry at the point (no-op when absent).
  void remove_metal(int layer, Point p, NetId net);

  /// All occupants of a metal point, first added first.  Valid until the
  /// next add/remove at the point.
  [[nodiscard]] std::span<const MetalOcc> metal_occupants(int layer, Point p) const;

  /// Occupant entry for a specific net, or nullptr.
  [[nodiscard]] const MetalOcc* metal_occupant(int layer, Point p, NetId net) const;

  /// Number of *distinct* nets at the point.  One load from the
  /// incrementally-maintained count array (the maze router's hot path).
  [[nodiscard]] int metal_net_count(int layer, Point p) const {
    return metal_count_[metal_slot(layer, p)];
  }

  /// True when two or more nets overlap at the point (a congestion in the
  /// paper's sense).
  [[nodiscard]] bool metal_congested(int layer, Point p) const {
    return metal_net_count(layer, p) > 1;
  }

  /// The unique occupying net, or kNoNet when empty or congested.
  [[nodiscard]] NetId metal_single_owner(int layer, Point p) const;

  /// True when the point is free or occupied only by `net`.
  [[nodiscard]] bool metal_free_for(int layer, Point p, NetId net) const;

  // --- Via occupancy -------------------------------------------------------

  void add_via(int via_layer, Point p, NetId net);
  void remove_via(int via_layer, Point p, NetId net);
  /// Nets with a via at the location, first added first.  Valid until the
  /// next add/remove at the location.
  [[nodiscard]] std::span<const NetId> via_occupants(int via_layer, Point p) const;
  /// Number of distinct nets with a via at the location (one load).
  [[nodiscard]] int via_net_count(int via_layer, Point p) const {
    return via_count_[via_slot(via_layer, p)];
  }
  [[nodiscard]] bool has_via(int via_layer, Point p) const {
    return via_net_count(via_layer, p) > 0;
  }
  [[nodiscard]] bool via_congested(int via_layer, Point p) const {
    return via_net_count(via_layer, p) > 1;
  }

  // --- Global queries ------------------------------------------------------

  /// Collect all currently congested vertices — routable metal layers in
  /// order, then via layers, row-major within a layer; used to seed the R&R
  /// queues.  Sorts the shared slots instead of scanning the grid.
  struct CongestedVertex {
    bool is_via = false;
    int layer = 0;  ///< metal layer or via layer
    Point p{};
  };
  [[nodiscard]] std::vector<CongestedVertex> collect_congestion() const;

  /// Total number of congested vertices (routable metal layers + via
  /// layers), maintained incrementally by add_*/remove_* — O(1), cheap
  /// enough to sample per R&R iteration for the convergence telemetry.
  [[nodiscard]] std::size_t congestion_count() const noexcept {
    return congested_;
  }

 private:
  [[nodiscard]] std::size_t metal_slot(int layer, Point p) const {
    assert(layer >= 1 && layer <= num_metal_);
    assert(in_bounds(p));
    return static_cast<std::size_t>(layer - 1) * num_points() + index(p);
  }
  [[nodiscard]] std::size_t via_slot(int via_layer, Point p) const {
    assert(via_layer >= 1 && via_layer <= num_via_layers());
    assert(in_bounds(p));
    return static_cast<std::size_t>(via_layer - 1) * num_points() + index(p);
  }

  int width_;
  int height_;
  int num_metal_;
  // The occupant of each slot whose count is 1 (indexed by metal_slot() /
  // via_slot()); stale otherwise.
  std::vector<MetalOcc> metal_;
  std::vector<NetId> vias_;
  // Dense distinct-net counts per slot, kept in sync by add_*/remove_*;
  // the router's congestion ("others") term reads these instead of walking
  // the occupant spans.
  std::vector<std::uint16_t> metal_count_;
  std::vector<std::uint16_t> via_count_;
  // Every occupant of each slot whose count is 2 or more, first added first
  // (the order rip-up candidate selection walks).  Metal-1 pads may share a
  // slot too; they are kept here but never counted as congestion.
  std::unordered_map<std::size_t, std::vector<MetalOcc>> metal_shared_;
  std::unordered_map<std::size_t, std::vector<NetId>> via_shared_;
  // Congested vertices (count > 1) over routable metal + via slots; kept in
  // lockstep with the count arrays so congestion_count() is a member read.
  std::size_t congested_ = 0;
};

}  // namespace sadp::grid
