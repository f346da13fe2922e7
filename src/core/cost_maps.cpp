#include "core/cost_maps.hpp"

#include <bit>
#include <cassert>
#include <string>

#include "util/status.hpp"

namespace sadp::core {

CostMaps::CostMaps(const grid::RoutingGrid& grid, const grid::TurnRules& rules,
                   FlowOptions options)
    : grid_(grid),
      rules_(rules),
      options_(options),
      width_(grid.width()),
      height_(grid.height()),
      num_points_(static_cast<std::size_t>(grid.num_points())),
      num_via_layers_(grid.num_via_layers()) {
  const std::size_t via_cells = static_cast<std::size_t>(num_via_layers_) * num_points_;
  const std::size_t metal_cells =
      static_cast<std::size_t>(grid.num_metal_layers()) * num_points_;
  via_.assign(via_cells, ViaCosts{});
  metal_.assign(metal_cells, MetalCosts{});
  fused_metal_.assign(metal_cells, 0.0);
  fused_via_.assign(via_cells, 0.0);
}

void CostMaps::apply_deposits(const RoutedNet& net, const Record& record,
                              double sign) {
  const auto deposit_via = [&](double ViaCosts::*component, int via_layer,
                               grid::Point p, double amount) {
    const std::size_t i = via_slot(via_layer, p);
    via_[i].*component += sign * amount;
    refresh_fused_via(i);
  };
  const auto deposit_metal_bdc = [&](int layer, grid::Point p, double amount) {
    const std::size_t i = metal_slot(layer, p);
    metal_[i].bdc += sign * amount;
    refresh_fused_metal(i);
  };

  if (options_.consider_dvi) {
    // BDC and CDC around each via of the net (Fig. 9(b)(d)), on the DVICs
    // that were feasible when the costs were added.
    for (std::size_t v = 0; v < net.vias().size(); ++v) {
      const NetVia& via = net.vias()[v];
      const grid::ArmMask mask = record.dvic_masks[v];
      if (mask == 0) continue;
      const auto feasible = static_cast<double>(std::popcount(mask));
      const double bdc = options_.cost.alpha / feasible;
      const double cdc = options_.cost.beta / feasible;
      for (grid::Dir dir : grid::kPlanarDirs) {
        if (!grid::has_arm(mask, dir)) continue;
        const grid::Point d = via.at + grid::step(dir);
        deposit_via(&ViaCosts::bdc, via.via_layer, d, bdc);
        deposit_metal_bdc(via.via_layer, d, bdc);
        deposit_metal_bdc(via.via_layer + 1, d, bdc);
        // Conflict-DVIC via locations: vias adjacent to d (other than via_u
        // itself) would contend for the same DVIC location.
        for (grid::Dir around : grid::kPlanarDirs) {
          const grid::Point q = d + grid::step(around);
          if (!grid_.in_bounds(q) || q == via.at) continue;
          deposit_via(&ViaCosts::cdc, via.via_layer, q, cdc);
        }
      }
    }

    // AMC along the net's metal (Fig. 9(c)): a via next to this metal has a
    // DVIC blocked by it.
    for (const auto& [key, arms] : net.metal()) {
      const int layer = key_layer(key);
      const grid::Point p = key_point(key);
      for (grid::Dir dir : grid::kPlanarDirs) {
        const grid::Point q = p + grid::step(dir);
        if (!grid_.in_bounds(q)) continue;
        for (int v : {layer - 1, layer}) {
          if (v < 1 || v > num_via_layers_) continue;
          deposit_via(&ViaCosts::amc, v, q, options_.cost.amc);
        }
      }
    }
  }

  if (options_.consider_tpl) {
    // TPLC on every different-color via location around each via: gamma per
    // existing conflicting via, accumulated incrementally.
    for (const auto& via : net.vias()) {
      for (const grid::Point d : via::kConflictOffsets) {
        const grid::Point q = via.at + d;
        if (!grid_.in_bounds(q)) continue;
        deposit_via(&ViaCosts::tplc, via.via_layer, q, options_.cost.gamma);
      }
    }
  }
}

void CostMaps::add_net_costs(const RoutedNet& net) {
  assert(!records_.contains(net.id()));
  Record record;
  record.vias = net.vias().size();
  record.metal_points = net.metal().size();
  if (options_.consider_dvi) {
    record.dvic_masks.reserve(record.vias);
    for (const auto& via : net.vias()) {
      grid::ArmMask mask = 0;
      for (grid::Dir dir : grid::kPlanarDirs) {
        if (dvic_feasible(grid_, rules_, net, via.via_layer, via.at, dir)) {
          mask |= grid::arm_bit(dir);
        }
      }
      record.dvic_masks.push_back(mask);
    }
  }
  apply_deposits(net, record, 1.0);
  records_.emplace(net.id(), std::move(record));
}

void CostMaps::remove_net_costs(const RoutedNet& net) {
  const auto it = records_.find(net.id());
  if (it == records_.end()) return;
  const Record& record = it->second;
  // Regenerating the deposits from changed geometry would subtract amounts
  // that were never added; that is a router bug, so fail loudly in every
  // build type instead of corrupting the cost maps.
  if (net.vias().size() != record.vias ||
      net.metal().size() != record.metal_points) {
    throw FlowError(util::StatusCode::kInternal,
                    "CostMaps::remove_net_costs: net " +
                        std::to_string(net.id()) + " has " +
                        std::to_string(net.vias().size()) + " vias and " +
                        std::to_string(net.metal().size()) +
                        " metal points, but its cost record was built for " +
                        std::to_string(record.vias) + " and " +
                        std::to_string(record.metal_points));
  }
  apply_deposits(net, record, -1.0);
  records_.erase(it);
}

void CostMaps::merge_history_from(const CostMaps& other, grid::Point offset) {
  const int metal_layers =
      static_cast<int>(other.metal_.size() / other.num_points_);
  for (int layer = 1; layer <= metal_layers; ++layer) {
    for (int y = 0; y < other.height_; ++y) {
      for (int x = 0; x < other.width_; ++x) {
        const double h = other.metal_history(layer, {x, y});
        if (h == 0.0) continue;
        bump_metal_history(layer, {x + offset.x, y + offset.y}, h);
      }
    }
  }
  for (int layer = 1; layer <= other.num_via_layers_; ++layer) {
    for (int y = 0; y < other.height_; ++y) {
      for (int x = 0; x < other.width_; ++x) {
        const double h = other.via_history(layer, {x, y});
        if (h == 0.0) continue;
        bump_via_history(layer, {x + offset.x, y + offset.y}, h);
      }
    }
  }
}

}  // namespace sadp::core
