// Double-via-insertion candidates and their feasibility (paper Section II-C,
// Figs. 5 and 6).
//
// A single via has four DVI candidates (DVICs): the via locations at the
// four neighbors on its via layer.  A DVIC is feasible when
//
//  * the location is inside the grid and holds no other via,
//  * on both metal layers the via connects, the location is free or owned
//    by the same net, and
//  * the one-unit metal extensions required to land the redundant via do
//    not create an undecomposable turn — where a forbidden turn whose short
//    arm is one unit may still be decomposable per the rule table's
//    one-unit exception (Fig. 6(a)),
//  * metal-1 extensions (for pin vias) are exempt from turn rules: metal 1
//    carries free-form pin pads, not SADP wires.
//
// Feasibility deliberately ignores via-layer TPL: the TPL interaction of a
// *redundant* via is handled at insertion time (FVP check / ILP coloring).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/routed_net.hpp"
#include "grid/routing_grid.hpp"
#include "grid/turns.hpp"

namespace sadp::core {

/// One single via of the routed design, as seen by the DVI stage.
struct SingleVia {
  grid::NetId net = grid::kNoNet;
  int via_layer = 1;
  grid::Point at{};
  bool is_pin_via = false;
};

/// Check feasibility of one DVIC direction for the via of `net` at
/// (via_layer, p).  `net_geometry` supplies the net's arm masks (the grid
/// stores the same information; the RoutedNet lookup is cheaper).
[[nodiscard]] bool dvic_feasible(const grid::RoutingGrid& grid,
                                 const grid::TurnRules& rules,
                                 const RoutedNet& net_geometry, int via_layer,
                                 grid::Point p, grid::Dir dir);

/// All feasible DVIC locations of a via (subset of the 4 neighbors).
[[nodiscard]] std::vector<grid::Point> feasible_dvics(
    const grid::RoutingGrid& grid, const grid::TurnRules& rules,
    const RoutedNet& net_geometry, int via_layer, grid::Point p);

/// The complete post-routing DVI problem: every single via with its
/// feasible DVICs.
struct DviProblem {
  std::vector<SingleVia> vias;
  /// Per via: feasible DVIC locations (on the via's layer).
  std::vector<std::vector<grid::Point>> feasible;

  [[nodiscard]] int num_vias() const noexcept { return static_cast<int>(vias.size()); }
  [[nodiscard]] std::size_t total_candidates() const noexcept {
    std::size_t n = 0;
    for (const auto& f : feasible) n += f.size();
    return n;
  }
};

/// One feasible DVIC: candidate k of via `via`.
struct DvicRef {
  int via = 0;
  int k = 0;  ///< index into DviProblem::feasible[via]
};

/// The feasible DVICs of a problem by site: grid::site_key of the via's
/// layer and the candidate location maps to that site's DVICs in (via,
/// then k) order.  Algorithm 3 counts conflicting DVICs here, and the
/// C1-C8 builder takes its C2 rows and window cuts from it, in the map's
/// iteration order.
class DviSites {
 public:
  using Map = std::unordered_map<std::int64_t, std::vector<DvicRef>>;

  explicit DviSites(const DviProblem& problem);

  /// The DVICs at (layer, p); empty when none.
  [[nodiscard]] std::span<const DvicRef> at(int layer, grid::Point p) const {
    const auto it = map_.find(grid::site_key(layer, p));
    return it == map_.end() ? std::span<const DvicRef>{} : it->second;
  }

  [[nodiscard]] Map::const_iterator begin() const noexcept { return map_.begin(); }
  [[nodiscard]] Map::const_iterator end() const noexcept { return map_.end(); }

 private:
  Map map_;
};

/// Options for DVI problem construction.
struct DviProblemOptions {
  /// Wire-bending extension (post-routing DVI with line-end extension, after
  /// [25]/[27]/[28]): when a via has no feasible adjacent DVIC, also offer
  /// candidates two tracks away along each axis, reached by a two-unit metal
  /// extension.  Two-unit extensions get no forbidden-turn exemption and
  /// both the intermediate and the landing point must be free.
  bool allow_distance2 = false;
};

/// Check feasibility of a distance-2 DVIC (the wire-bending extension).
[[nodiscard]] bool dvic_feasible_distance2(const grid::RoutingGrid& grid,
                                           const grid::TurnRules& rules,
                                           const RoutedNet& net_geometry,
                                           int via_layer, grid::Point p,
                                           grid::Dir dir);

/// Build the DVI problem from all routed nets.
[[nodiscard]] DviProblem build_dvi_problem(const std::vector<RoutedNet>& nets,
                                           const grid::RoutingGrid& grid,
                                           const grid::TurnRules& rules,
                                           const DviProblemOptions& options = {});

/// Outcome of a DVI pass.
struct DviResult {
  /// Per via: index into feasible[via] of the inserted DVIC, or -1.
  std::vector<int> inserted;
  /// Dead vias: single vias with no redundant via after insertion.
  int dead_vias = 0;
  /// Vias (original or inserted) left uncolorable in the final TPL
  /// decomposition of the via layers.
  int uncolorable = 0;
  double seconds = 0.0;
};

/// A DVI pass's choices with the locations they insert at.  Every solver's
/// output extends it.
struct DviSolution {
  DviResult result;
  /// Locations of the inserted redundant vias, parallel to result.inserted;
  /// entry i is meaningful only when result.inserted[i] >= 0.
  std::vector<grid::Point> inserted_at;
};

}  // namespace sadp::core
