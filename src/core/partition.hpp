// Grid sharding for partition-parallel routing (DESIGN.md section 14).
//
// The routing grid is cut into K strip regions along its longer axis.
// Each region has a *core* (the disjoint strips that tile the axis) and a
// *window* (the core extended by the halo margin and clamped to the grid);
// a region worker routes on a private sub-grid world spanning exactly its
// window.  A net is assigned to the region whose core contains its
// bounding-box center, provided the whole box fits that region's *core*
// strip (the halo is detour room only — see plan_partitions for why
// admitting nets into the shared halo band is a bad trade); every other
// net (spanning nets, nets leaning into a halo) is a *boundary* net,
// routed serially on the master grid before the region workers start and
// injected into overlapping sub-worlds as immovable obstacle geometry.
//
// Window low edges are aligned down to a multiple of the turn-rule
// coordinate period lcm (4 — covers both the SADP period-2 and the SAQP
// period-4 tables), so translating geometry by -window_lo preserves every
// periodic classification (turn classes, track colors, FVP windows)
// bit-exactly.  This is what makes a region sub-world equivalent to the
// same coordinates in the full grid.
#pragma once

#include <vector>

#include "grid/geometry.hpp"
#include "grid/routing_grid.hpp"
#include "netlist/netlist.hpp"

namespace sadp::core {

/// Alignment of region-window origins: lcm of the SADP (2) and SAQP (4)
/// turn-rule periods, so one planner serves every style.
inline constexpr int kPartitionAlign = 4;

/// Halo margin (grid units) each region window extends past its core on
/// the cut axis.  The halo is detour/search room only: a net stays
/// regional when its bounding box fits the owner's *core* strip (see
/// core/partition.cpp for the measured cost of looser assignment);
/// everything else routes in the boundary pass before the regions and is
/// injected into overlapping sub-worlds as immovable obstacle geometry.
inline constexpr int kPartitionHalo = 16;

/// One strip region of a partition plan.  Coordinates are along the cut
/// axis; the other axis always spans the full grid.
struct PartitionRegion {
  int core_lo = 0;    ///< first coordinate owned by this region
  int core_hi = 0;    ///< last coordinate owned by this region
  int window_lo = 0;  ///< sub-world low edge (core_lo - halo, aligned down)
  int window_hi = 0;  ///< sub-world high edge (core_hi + halo, clamped)
  /// Nets assigned to this region, in ascending global id order.
  std::vector<grid::NetId> nets;
};

struct PartitionPlan {
  bool cut_along_x = true;  ///< strips cut the x axis (grid wider than tall)
  std::vector<PartitionRegion> regions;
  /// Nets no region can own (bounding box exceeds every core), ascending.
  std::vector<grid::NetId> boundary;

  /// Translation that maps region-window coordinates into grid coordinates.
  [[nodiscard]] grid::Point region_offset(std::size_t r) const noexcept {
    const int lo = regions[r].window_lo;
    return cut_along_x ? grid::Point{lo, 0} : grid::Point{0, lo};
  }
  /// Sub-world dimensions of region `r` for a grid of `width` x `height`.
  [[nodiscard]] int region_width(std::size_t r, int width) const noexcept {
    return cut_along_x ? regions[r].window_hi - regions[r].window_lo + 1 : width;
  }
  [[nodiscard]] int region_height(std::size_t r, int height) const noexcept {
    return cut_along_x ? height : regions[r].window_hi - regions[r].window_lo + 1;
  }
};

/// Shard `netlist` into at most `partitions` strip regions with
/// kPartitionHalo halos.  Deterministic in its inputs.  The plan may hold
/// fewer regions than requested (the axis must give every core at least
/// max(2 * halo, 32) coordinates, so small grids degrade gracefully — a
/// plan with < 2 regions tells the caller to route serially).
[[nodiscard]] PartitionPlan plan_partitions(
    const netlist::PlacedNetlist& netlist, int partitions);

}  // namespace sadp::core
