// Cost assignment scheme (paper Section III-B, Algorithm 1, Fig. 9) plus
// the negotiated-congestion history costs.
//
// After a net is routed, penalty costs are written into per-vertex cost
// maps so that subsequently routed nets see them:
//
//  * BDC (block-DVIC cost) = alpha / #feasibleDVICs(via_u) on every feasible
//    DVIC location of each via of the net — both on the via layer (a via
//    there blocks the DVIC) and on the two adjacent metal layers (a wire
//    through it blocks the DVIC too);
//  * AMC (along-metal cost), a constant, on via locations next to the
//    net's metal: a via placed there would have a DVIC blocked by this
//    metal;
//  * CDC (conflict-DVIC cost) = beta / #feasibleDVICs(via_u) on via
//    locations whose own DVIC would coincide with a feasible DVIC of via_u;
//  * TPLC (TPL cost) = gamma per existing via within same-color pitch, on
//    every different-color via location around each via of the net.
//
// BDC/CDC depend on DVI feasibility *at assignment time*, which drifts as
// other nets route; AMC and TPLC depend only on the net's own geometry.  So
// each net's record keeps one feasible-DVIC direction mask per via (1 byte),
// and rip-up regenerates the deposit sequence from the unchanged geometry
// and those masks — the same slots, amounts and order — and subtracts it,
// which removes exactly what routing added.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/dvic.hpp"
#include "core/params.hpp"
#include "core/routed_net.hpp"
#include "grid/routing_grid.hpp"
#include "grid/turns.hpp"

namespace sadp::core {

class CostMaps {
 public:
  CostMaps(const grid::RoutingGrid& grid, const grid::TurnRules& rules,
           FlowOptions options);

  /// Algorithm 1: add this net's BDC/AMC/CDC/TPLC contributions (subject to
  /// the flow options).  The net must currently be applied to the grid.
  void add_net_costs(const RoutedNet& net);

  /// Exact inverse of add_net_costs for the same net geometry: the deposits
  /// are regenerated from `net` and its record and subtracted in the order
  /// they were added.  A no-op when `net` has no record; throws
  /// FlowError(kInternal) when its via or metal-point count differs from
  /// the geometry the record was built from.
  void remove_net_costs(const RoutedNet& net);

  /// Fold the negotiation-history arrays of a region-world cost map into
  /// this one, translating every slot by `offset` (partition merge: the
  /// history a region accumulated keeps steering the reconcile pass).
  /// Only history moves — penalty costs are per-net records and are rebuilt
  /// through add_net_costs when the merged nets are applied.
  void merge_history_from(const CostMaps& other, grid::Point offset);

  [[nodiscard]] bool has_costs_for(grid::NetId net) const {
    return records_.contains(net);
  }

  // --- Queries (hot path of the maze router) -------------------------------

  /// Fused vertex cost of placing a via at (via_layer, p): negotiation
  /// history + BDC + AMC + CDC + TPLC, maintained in place by deposit /
  /// bump_via_history so the maze router pays a single load.  Always equals
  /// via_history + via_penalty bit-exactly (the fused slot is recomputed
  /// from the component arrays in a fixed order on every update).
  [[nodiscard]] double fused_via_cost(int via_layer, grid::Point p) const {
    return fused_via_[via_slot(via_layer, p)];
  }

  /// Fused vertex cost of routing metal through (layer, p): history + BDC.
  [[nodiscard]] double fused_metal_cost(int layer, grid::Point p) const {
    return fused_metal_[metal_slot(layer, p)];
  }

  /// The cost components of one via location and one metal point, stored
  /// interleaved so a deposit touches one record, not one array per map.
  struct ViaCosts {
    double bdc = 0.0;
    double amc = 0.0;
    double cdc = 0.0;
    double tplc = 0.0;
    double hist = 0.0;
  };
  struct MetalCosts {
    double bdc = 0.0;
    double hist = 0.0;
  };
  [[nodiscard]] const ViaCosts& via_costs(int via_layer, grid::Point p) const {
    return via_[via_slot(via_layer, p)];
  }
  [[nodiscard]] const MetalCosts& metal_costs(int layer, grid::Point p) const {
    return metal_[metal_slot(layer, p)];
  }

  /// DVI/TPL penalty of placing a via at (via_layer, p).
  [[nodiscard]] double via_penalty(int via_layer, grid::Point p) const {
    const ViaCosts& c = via_costs(via_layer, p);
    return c.bdc + c.amc + c.cdc + c.tplc;
  }

  /// DVI penalty of routing metal through (layer, p).
  [[nodiscard]] double metal_penalty(int layer, grid::Point p) const {
    return metal_costs(layer, p).bdc;
  }

  // --- Negotiation history costs -------------------------------------------

  [[nodiscard]] double metal_history(int layer, grid::Point p) const {
    return metal_costs(layer, p).hist;
  }
  [[nodiscard]] double via_history(int via_layer, grid::Point p) const {
    return via_costs(via_layer, p).hist;
  }
  void bump_metal_history(int layer, grid::Point p, double amount) {
    const std::size_t i = metal_slot(layer, p);
    metal_[i].hist += amount;
    hist_sum_ += amount;
    refresh_fused_metal(i);
  }
  void bump_via_history(int via_layer, grid::Point p, double amount) {
    const std::size_t i = via_slot(via_layer, p);
    via_[i].hist += amount;
    hist_sum_ += amount;
    refresh_fused_via(i);
  }

  /// Running sum of all negotiation-history bumps (history never decays, so
  /// this equals the sum over both history arrays).  O(1); sampled per R&R
  /// iteration by the convergence telemetry — a still-climbing sum with a
  /// flat violation count means the negotiation is thrashing, not settling.
  [[nodiscard]] double history_cost_sum() const noexcept { return hist_sum_; }

  [[nodiscard]] const FlowOptions& options() const noexcept { return options_; }

 private:
  /// What regenerating a net's deposits needs beyond its geometry: the
  /// feasible-DVIC direction mask (arm bits) of each via at add time — empty
  /// unless DVI is considered — and the via and metal-point counts it was
  /// built from, checked on removal.
  struct Record {
    std::vector<grid::ArmMask> dvic_masks;
    std::size_t vias = 0;
    std::size_t metal_points = 0;
  };

  /// Walk Algorithm 1's deposit sequence for `net` (BDC/CDC per via, AMC
  /// along the metal, TPLC per via), adding `sign` times each amount and
  /// refreshing the touched fused slots.  With sign = -1 it performs exactly
  /// the subtractions a replay of recorded {slot, amount} entries would:
  /// x + (-a) is x - a in IEEE arithmetic, and the order is the same.
  void apply_deposits(const RoutedNet& net, const Record& record, double sign);

  // Recompute a fused slot from its components in a fixed association
  // order.  Keeping the order fixed (history + penalty sum) makes the fused
  // value a pure function of the component values, independent of the
  // update history — the bit-exactness invariant the differential tests
  // check.
  void refresh_fused_metal(std::size_t i) {
    fused_metal_[i] = metal_[i].hist + metal_[i].bdc;
  }
  void refresh_fused_via(std::size_t i) {
    const ViaCosts& c = via_[i];
    fused_via_[i] = c.hist + (c.bdc + c.amc + c.cdc + c.tplc);
  }

  [[nodiscard]] std::size_t metal_slot(int layer, grid::Point p) const {
    return static_cast<std::size_t>(layer - 1) * num_points_ +
           static_cast<std::size_t>(p.y) * width_ + p.x;
  }
  [[nodiscard]] std::size_t via_slot(int via_layer, grid::Point p) const {
    return static_cast<std::size_t>(via_layer - 1) * num_points_ +
           static_cast<std::size_t>(p.y) * width_ + p.x;
  }

  const grid::RoutingGrid& grid_;
  const grid::TurnRules& rules_;
  FlowOptions options_;
  int width_;
  int height_;
  std::size_t num_points_;
  int num_via_layers_;

  std::vector<ViaCosts> via_;
  std::vector<MetalCosts> metal_;
  double hist_sum_ = 0.0;
  // Fused per-slot totals (history + penalties), the single loads of the
  // maze router's vertex-cost queries.
  std::vector<double> fused_metal_;
  std::vector<double> fused_via_;

  std::unordered_map<grid::NetId, Record> records_;
};

}  // namespace sadp::core
