#include "core/dvic.hpp"

namespace sadp::core {

namespace {

/// Turn-legality of extending the net's metal one unit from p toward `dir`
/// on metal layer `layer`.  Checks the new corner at p and (for a landing
/// next to existing metal) the corner at the far end.
bool extension_turns_legal(const grid::TurnRules& rules,
                           const RoutedNet& net_geometry, int layer,
                           grid::Point p, grid::Dir dir) {
  const grid::Point d = p + grid::step(dir);

  // Corner at the via end: new arm `dir` against every existing
  // perpendicular arm.
  const grid::ArmMask arms_p = net_geometry.arms_at(layer, p);
  for (grid::Dir a : grid::kPlanarDirs) {
    if (!grid::has_arm(arms_p, a) || !grid::is_perpendicular(a, dir)) continue;
    if (!rules.unit_extension_legal(p, a, dir)) return false;
  }

  // Corner at the landing end: the extension arrives with an arm pointing
  // back toward p; it may meet existing metal of the same net at d.
  const grid::ArmMask arms_d = net_geometry.arms_at(layer, d);
  const grid::Dir back = grid::opposite(dir);
  for (grid::Dir b : grid::kPlanarDirs) {
    if (!grid::has_arm(arms_d, b) || !grid::is_perpendicular(b, back)) continue;
    if (!rules.unit_extension_legal(d, b, back)) return false;
  }
  return true;
}

}  // namespace

bool dvic_feasible(const grid::RoutingGrid& grid, const grid::TurnRules& rules,
                   const RoutedNet& net_geometry, int via_layer, grid::Point p,
                   grid::Dir dir) {
  const grid::Point d = p + grid::step(dir);
  if (!grid.in_bounds(d)) return false;

  // A redundant via cannot coincide with any existing via.
  if (grid.has_via(via_layer, d)) return false;

  for (int layer : {via_layer, via_layer + 1}) {
    // The landing point must be free or already ours.
    if (!grid.metal_free_for(layer, d, net_geometry.id())) return false;

    // If our metal already extends toward d on this layer, no new shape is
    // created and no turn check is needed.
    if (grid::has_arm(net_geometry.arms_at(layer, p), dir)) continue;

    // Metal 1 holds free-form pin pads; extensions there are exempt from
    // the SADP turn rules.
    if (layer == 1) continue;

    if (!extension_turns_legal(rules, net_geometry, layer, p, dir)) return false;
  }
  return true;
}

std::vector<grid::Point> feasible_dvics(const grid::RoutingGrid& grid,
                                        const grid::TurnRules& rules,
                                        const RoutedNet& net_geometry,
                                        int via_layer, grid::Point p) {
  std::vector<grid::Point> out;
  for (grid::Dir dir : grid::kPlanarDirs) {
    if (dvic_feasible(grid, rules, net_geometry, via_layer, p, dir)) {
      out.push_back(p + grid::step(dir));
    }
  }
  return out;
}

bool dvic_feasible_distance2(const grid::RoutingGrid& grid,
                             const grid::TurnRules& rules,
                             const RoutedNet& net_geometry, int via_layer,
                             grid::Point p, grid::Dir dir) {
  const grid::Point mid = p + grid::step(dir);
  const grid::Point d = mid + grid::step(dir);
  if (!grid.in_bounds(d)) return false;
  // Only the landing needs to be via-free; a via of the SAME net at the
  // intermediate point is fine (the extension runs over its landing pad),
  // and another net's via there is caught by the metal occupancy check.
  if (grid.has_via(via_layer, d)) return false;

  for (int layer : {via_layer, via_layer + 1}) {
    for (const grid::Point q : {mid, d}) {
      if (!grid.metal_free_for(layer, q, net_geometry.id())) return false;
    }
    if (layer == 1) continue;  // metal-1 pads are exempt from turn rules

    // The two-unit arm is a real wire: full forbidden-turn rules apply at
    // the via end against the net's existing perpendicular arms.
    const grid::ArmMask arms_p = net_geometry.arms_at(layer, p);
    if (!grid::has_arm(arms_p, dir)) {
      for (grid::Dir a : grid::kPlanarDirs) {
        if (!grid::has_arm(arms_p, a) || !grid::is_perpendicular(a, dir)) continue;
        if (rules.classify(p, grid::turn_kind(a, dir)) ==
            grid::TurnClass::kForbidden) {
          return false;
        }
      }
    }
    // And at the landing end against any existing metal of the same net.
    const grid::ArmMask arms_d = net_geometry.arms_at(layer, d);
    const grid::Dir back = grid::opposite(dir);
    for (grid::Dir b : grid::kPlanarDirs) {
      if (!grid::has_arm(arms_d, b) || !grid::is_perpendicular(b, back)) continue;
      if (rules.classify(d, grid::turn_kind(b, back)) ==
          grid::TurnClass::kForbidden) {
        return false;
      }
    }
  }
  return true;
}

DviProblem build_dvi_problem(const std::vector<RoutedNet>& nets,
                             const grid::RoutingGrid& grid,
                             const grid::TurnRules& rules,
                             const DviProblemOptions& options) {
  DviProblem problem;
  for (const auto& net : nets) {
    for (const auto& via : net.vias()) {
      problem.vias.push_back(
          SingleVia{net.id(), via.via_layer, via.at, via.is_pin_via});
      auto candidates = feasible_dvics(grid, rules, net, via.via_layer, via.at);
      if (options.allow_distance2 && candidates.empty()) {
        for (grid::Dir dir : grid::kPlanarDirs) {
          if (dvic_feasible_distance2(grid, rules, net, via.via_layer, via.at,
                                      dir)) {
            candidates.push_back(via.at + grid::step(dir) + grid::step(dir));
          }
        }
      }
      problem.feasible.push_back(std::move(candidates));
    }
  }
  return problem;
}

DviSites::DviSites(const DviProblem& problem) {
  for (int i = 0; i < problem.num_vias(); ++i) {
    const int layer = problem.vias[static_cast<std::size_t>(i)].via_layer;
    const auto& cands = problem.feasible[static_cast<std::size_t>(i)];
    for (int k = 0; k < static_cast<int>(cands.size()); ++k) {
      map_[grid::site_key(layer, cands[static_cast<std::size_t>(k)])].push_back(
          DvicRef{i, k});
    }
  }
}

}  // namespace sadp::core
