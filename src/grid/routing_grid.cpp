#include "grid/routing_grid.hpp"

#include <algorithm>

namespace sadp::grid {

RoutingGrid::RoutingGrid(int width, int height, int num_metal_layers)
    : width_(width), height_(height), num_metal_(num_metal_layers) {
  assert(width > 0 && height > 0 && num_metal_layers >= 2);
  metal_.resize(static_cast<std::size_t>(num_metal_) * num_points());
  vias_.resize(static_cast<std::size_t>(num_via_layers()) * num_points(), kNoNet);
  metal_count_.assign(metal_.size(), 0);
  via_count_.assign(vias_.size(), 0);
}

void RoutingGrid::add_metal(int layer, Point p, NetId net, ArmMask arms) {
  const std::size_t s = metal_slot(layer, p);
  std::uint16_t& count = metal_count_[s];
  if (count == 0) {
    metal_[s] = MetalOcc{net, arms};
    count = 1;
    return;
  }
  if (count == 1) {
    if (metal_[s].net == net) {
      metal_[s].arms |= arms;
      return;
    }
    metal_shared_[s] = {metal_[s], MetalOcc{net, arms}};
  } else {
    auto& occ = metal_shared_.find(s)->second;
    for (auto& entry : occ) {
      if (entry.net == net) {
        entry.arms |= arms;
        return;
      }
    }
    occ.push_back(MetalOcc{net, arms});
  }
  ++count;
  if (layer >= 2 && count == 2) ++congested_;
}

void RoutingGrid::remove_metal(int layer, Point p, NetId net) {
  const std::size_t s = metal_slot(layer, p);
  std::uint16_t& count = metal_count_[s];
  if (count <= 1) {
    if (count == 1 && metal_[s].net == net) count = 0;
    return;
  }
  const auto it = metal_shared_.find(s);
  auto& occ = it->second;
  const auto entry = std::find_if(occ.begin(), occ.end(),
                                  [net](const MetalOcc& e) { return e.net == net; });
  if (entry == occ.end()) return;
  occ.erase(entry);
  if (--count == 1) {
    metal_[s] = occ.front();
    metal_shared_.erase(it);
    if (layer >= 2) --congested_;
  }
}

std::span<const MetalOcc> RoutingGrid::metal_occupants(int layer, Point p) const {
  const std::size_t s = metal_slot(layer, p);
  switch (metal_count_[s]) {
    case 0: return {};
    case 1: return {&metal_[s], 1};
    default: return metal_shared_.find(s)->second;
  }
}

const MetalOcc* RoutingGrid::metal_occupant(int layer, Point p, NetId net) const {
  for (const auto& entry : metal_occupants(layer, p)) {
    if (entry.net == net) return &entry;
  }
  return nullptr;
}

NetId RoutingGrid::metal_single_owner(int layer, Point p) const {
  const std::size_t s = metal_slot(layer, p);
  return metal_count_[s] == 1 ? metal_[s].net : kNoNet;
}

bool RoutingGrid::metal_free_for(int layer, Point p, NetId net) const {
  const std::size_t s = metal_slot(layer, p);
  return metal_count_[s] == 0 || (metal_count_[s] == 1 && metal_[s].net == net);
}

void RoutingGrid::add_via(int via_layer, Point p, NetId net) {
  const std::size_t s = via_slot(via_layer, p);
  std::uint16_t& count = via_count_[s];
  if (count == 0) {
    vias_[s] = net;
    count = 1;
    return;
  }
  if (count == 1) {
    if (vias_[s] == net) return;
    via_shared_[s] = {vias_[s], net};
  } else {
    auto& occ = via_shared_.find(s)->second;
    if (std::find(occ.begin(), occ.end(), net) != occ.end()) return;
    occ.push_back(net);
  }
  if (++count == 2) ++congested_;
}

void RoutingGrid::remove_via(int via_layer, Point p, NetId net) {
  const std::size_t s = via_slot(via_layer, p);
  std::uint16_t& count = via_count_[s];
  if (count <= 1) {
    if (count == 1 && vias_[s] == net) count = 0;
    return;
  }
  const auto it = via_shared_.find(s);
  auto& occ = it->second;
  const auto entry = std::find(occ.begin(), occ.end(), net);
  if (entry == occ.end()) return;
  occ.erase(entry);
  if (--count == 1) {
    vias_[s] = occ.front();
    via_shared_.erase(it);
    --congested_;
  }
}

std::span<const NetId> RoutingGrid::via_occupants(int via_layer, Point p) const {
  const std::size_t s = via_slot(via_layer, p);
  switch (via_count_[s]) {
    case 0: return {};
    case 1: return {&vias_[s], 1};
    default: return via_shared_.find(s)->second;
  }
}

std::vector<RoutingGrid::CongestedVertex> RoutingGrid::collect_congestion() const {
  // Only shared slots can be congested.  Slot order is layer-major and
  // row-major within a layer, so sorting the keys yields the order a scan
  // of the count arrays would.
  const auto np = static_cast<std::size_t>(num_points());
  std::vector<std::size_t> metal_slots;
  for (const auto& [s, occ] : metal_shared_) {
    if (s >= np) metal_slots.push_back(s);  // metal 1 carries only pins
  }
  std::vector<std::size_t> via_slots;
  for (const auto& [s, occ] : via_shared_) via_slots.push_back(s);
  std::sort(metal_slots.begin(), metal_slots.end());
  std::sort(via_slots.begin(), via_slots.end());

  std::vector<CongestedVertex> out;
  out.reserve(metal_slots.size() + via_slots.size());
  for (const std::size_t s : metal_slots) {
    out.push_back({false, static_cast<int>(s / np) + 1,
                   point_of(static_cast<std::int32_t>(s % np))});
  }
  for (const std::size_t s : via_slots) {
    out.push_back({true, static_cast<int>(s / np) + 1,
                   point_of(static_cast<std::int32_t>(s % np))});
  }
  return out;
}

}  // namespace sadp::grid
