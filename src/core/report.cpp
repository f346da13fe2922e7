#include "core/report.hpp"

#include <bit>
#include <sstream>

namespace sadp::core {

DesignStats collect_design_stats(const SadpRouter& router) {
  DesignStats stats;
  const auto& grid = router.routing_grid();
  const grid::TurnRules& rules = router.turn_rules();

  stats.layers.resize(static_cast<std::size_t>(grid.num_metal_layers()));
  for (int m = 1; m <= grid.num_metal_layers(); ++m) {
    stats.layers[static_cast<std::size_t>(m - 1)].layer = m;
  }
  stats.vias_per_layer.assign(static_cast<std::size_t>(grid.num_via_layers()), 0);

  for (const auto& net : router.nets()) {
    for (const auto& [key, arms] : net.metal()) {
      const int layer = key_layer(key);
      auto& ls = stats.layers[static_cast<std::size_t>(layer - 1)];
      ++ls.occupied_points;
      // Each unit segment contributes one arm bit at each endpoint; count
      // the east/north bits so every segment is counted exactly once.
      for (grid::Dir d : {grid::Dir::kEast, grid::Dir::kNorth}) {
        if (!grid::has_arm(arms, d)) continue;
        ++ls.wire_segments;
        const bool preferred = grid::RoutingGrid::prefers_horizontal(layer) ==
                               grid::is_horizontal(d);
        if (preferred) ++ls.preferred_segments;
      }
      // Turn census.
      if (layer >= 2) {
        const grid::Point p = key_point(key);
        for (grid::Dir h : {grid::Dir::kEast, grid::Dir::kWest}) {
          if (!grid::has_arm(arms, h)) continue;
          for (grid::Dir v : {grid::Dir::kNorth, grid::Dir::kSouth}) {
            if (!grid::has_arm(arms, v)) continue;
            switch (rules.classify(p, grid::turn_kind(h, v))) {
              case grid::TurnClass::kPreferred: ++stats.preferred_turns; break;
              case grid::TurnClass::kNonPreferred:
                ++stats.non_preferred_turns;
                break;
              case grid::TurnClass::kForbidden: break;  // never created
            }
          }
        }
      }
    }
    for (const auto& via : net.vias()) {
      ++stats.vias_per_layer[static_cast<std::size_t>(via.via_layer - 1)];
    }
  }

  const double total_points = static_cast<double>(grid.num_points());
  for (auto& ls : stats.layers) {
    ls.utilization = total_points > 0
                         ? static_cast<double>(ls.occupied_points) / total_points
                         : 0.0;
  }

  // DVIC feasibility histogram.
  const DviProblem problem = build_dvi_problem(router.nets(), grid, rules);
  for (const auto& candidates : problem.feasible) {
    const std::size_t bucket = candidates.size() < 5 ? candidates.size() : 4;
    ++stats.dvic_histogram[bucket];
  }
  return stats;
}

std::string render_text_report(const ExperimentResult& result,
                               const DesignStats& stats) {
  std::ostringstream out;
  out << "design " << result.benchmark << "\n"
      << "  routability: " << (result.routing.routed_all ? "100%" : "INCOMPLETE")
      << "\n  wirelength: " << result.routing.wirelength
      << "\n  vias: " << result.routing.via_count
      << "\n  routing time: " << result.routing.route_seconds << "s"
      << " (initial " << result.routing.initial_routing_seconds << "s, congestion "
      << result.routing.congestion_rr_seconds << "s, TPL " <<
      result.routing.tpl_rr_seconds << "s, coloring "
      << result.routing.coloring_seconds << "s)"
      << "\n  R&R iterations: " << result.routing.rr_iterations
      << "\n  FVPs left: " << result.routing.remaining_fvps
      << ", uncolorable: " << result.routing.uncolorable_vias << "\n";
  for (const auto& layer : stats.layers) {
    out << "  metal " << layer.layer << ": " << layer.occupied_points
        << " points (" << layer.utilization * 100.0 << "% utilization), "
        << layer.wire_segments << " segments (" << layer.preferred_segments
        << " preferred)\n";
  }
  for (std::size_t v = 0; v < stats.vias_per_layer.size(); ++v) {
    out << "  via layer " << v + 1 << ": " << stats.vias_per_layer[v]
        << " vias\n";
  }
  out << "  turns: " << stats.preferred_turns << " preferred, "
      << stats.non_preferred_turns << " non-preferred\n";
  out << "  DVIC histogram (0..4 feasible):";
  for (const long long count : stats.dvic_histogram) out << ' ' << count;
  out << "\n  DVI: " << result.dvi.dead_vias << " dead vias of "
      << result.single_vias << ", " << result.dvi.uncolorable
      << " uncolorable, " << result.dvi.seconds << "s\n";
  return out.str();
}

}  // namespace sadp::core
