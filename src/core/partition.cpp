#include "core/partition.hpp"

#include <algorithm>

namespace sadp::core {

namespace {

constexpr int align_down(int v) noexcept {
  return v < 0 ? 0 : (v / kPartitionAlign) * kPartitionAlign;
}

}  // namespace

PartitionPlan plan_partitions(const netlist::PlacedNetlist& netlist,
                              int partitions) {
  PartitionPlan plan;
  plan.cut_along_x = netlist.width >= netlist.height;
  const int axis_len = plan.cut_along_x ? netlist.width : netlist.height;

  // Every core strip must be wide enough that the halo does not swallow it
  // (and that the sub-world is a meaningful search space); shrink K until
  // that holds.  Fewer than two usable regions means "route serially".
  constexpr int kMinCore = std::max(2 * kPartitionHalo, 32);
  const int k = std::min(std::max(partitions, 1), axis_len / kMinCore);
  if (k < 2) return plan;

  plan.regions.resize(static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r) {
    auto& region = plan.regions[static_cast<std::size_t>(r)];
    region.core_lo = static_cast<int>(
        (static_cast<long long>(axis_len) * r) / k);
    region.core_hi = static_cast<int>(
        (static_cast<long long>(axis_len) * (r + 1)) / k) - 1;
    region.window_lo = align_down(region.core_lo - kPartitionHalo);
    region.window_hi = std::min(axis_len - 1, region.core_hi + kPartitionHalo);
  }

  for (const auto& net : netlist.nets) {
    int lo = plan.cut_along_x ? net.pins.front().at.x : net.pins.front().at.y;
    int hi = lo;
    for (const auto& pin : net.pins) {
      const int c = plan.cut_along_x ? pin.at.x : pin.at.y;
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    // Region whose core strip contains the bounding-box center.  With the
    // proportional cores above this is just a scaled division, but walking
    // the (tiny) region list keeps the planner independent of the core
    // formula.
    const int center = lo + (hi - lo) / 2;
    std::size_t owner = plan.regions.size() - 1;
    for (std::size_t r = 0; r < plan.regions.size(); ++r) {
      if (center <= plan.regions[r].core_hi) {
        owner = r;
        break;
      }
    }
    // A net is assigned only when its pin bbox fits the owner's *core*
    // strip: adjacent windows overlap by up to two halos, and letting two
    // regions both place nets in that shared band is the main source of
    // post-merge conflicts (measured: admitting even 4 cells of overlap
    // raises merged congestion ~1.5x).  The halo stays purely as
    // detour/search room.  One cell of slack at interior window edges
    // keeps pin-stub geometry inside the sub-world (grid-boundary edges
    // clamp identically in both worlds).
    const auto& win = plan.regions[owner];
    const int slack_lo = win.window_lo == 0 ? 0 : 1;
    const int slack_hi = win.window_hi == axis_len - 1 ? 0 : 1;
    const int fit_lo = std::max(win.core_lo, win.window_lo + slack_lo);
    const int fit_hi = std::min(win.core_hi, win.window_hi - slack_hi);
    if (lo >= fit_lo && hi <= fit_hi) {
      plan.regions[owner].nets.push_back(net.id);
    } else {
      plan.boundary.push_back(net.id);
    }
  }
  return plan;
}

}  // namespace sadp::core
