#include "core/validate.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "via/coloring.hpp"
#include "via/decomp_graph.hpp"

namespace sadp::core {

namespace {

void add_issue(std::vector<ValidationIssue>& issues, std::string what) {
  issues.push_back(ValidationIssue{std::move(what)});
}

}  // namespace

std::vector<ValidationIssue> check_connectivity(
    const std::vector<RoutedNet>& nets, const netlist::PlacedNetlist& netlist) {
  std::vector<ValidationIssue> issues;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const RoutedNet& net = nets[n];

    // Union-find over the net's metal keys; union unit-adjacent same-layer
    // points whose facing arms exist, and via-connected stacked points.
    std::unordered_map<std::int64_t, std::int64_t> parent;
    auto find = [&](std::int64_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    auto unite = [&](std::int64_t a, std::int64_t b) { parent[find(a)] = find(b); };

    for (const auto& [key, arms] : net.metal()) parent[key.v] = key.v;
    for (const auto& [key, arms] : net.metal()) {
      const int layer = key_layer(key);
      const grid::Point p = key_point(key);
      for (grid::Dir d : grid::kPlanarDirs) {
        if (!grid::has_arm(arms, d)) continue;
        const MetalKey neighbor = metal_key(layer, p + grid::step(d));
        if (parent.contains(neighbor.v)) unite(key.v, neighbor.v);
      }
    }
    for (const auto& via : net.vias()) {
      const MetalKey lo = metal_key(via.via_layer, via.at);
      const MetalKey hi = metal_key(via.via_layer + 1, via.at);
      if (!parent.contains(lo.v) || !parent.contains(hi.v)) {
        add_issue(issues, "net " + std::to_string(net.id()) +
                              ": via without landing pads at " +
                              grid::to_string(via.at));
        continue;
      }
      unite(lo.v, hi.v);
    }

    const auto& pins = netlist.nets[n].pins;
    if (pins.empty()) continue;
    const MetalKey root = metal_key(1, pins.front().at);
    if (!parent.contains(root.v)) {
      add_issue(issues, "net " + std::to_string(net.id()) + ": pin 0 missing");
      continue;
    }
    for (const auto& pin : pins) {
      const MetalKey key = metal_key(1, pin.at);
      if (!parent.contains(key.v) || find(key.v) != find(root.v)) {
        add_issue(issues, "net " + std::to_string(net.id()) +
                              ": pin disconnected at " + grid::to_string(pin.at));
      }
    }
  }
  return issues;
}

std::vector<ValidationIssue> check_no_congestion(const grid::RoutingGrid& grid) {
  std::vector<ValidationIssue> issues;
  for (const auto& c : grid.collect_congestion()) {
    add_issue(issues, std::string(c.is_via ? "via" : "metal") + " congestion at layer " +
                          std::to_string(c.layer) + " " + grid::to_string(c.p));
  }
  return issues;
}

std::vector<ValidationIssue> check_no_forbidden_turns(
    const std::vector<RoutedNet>& nets, const grid::TurnRules& rules) {
  std::vector<ValidationIssue> issues;
  for (const auto& net : nets) {
    for (const auto& [key, arms] : net.metal()) {
      const int layer = key_layer(key);
      if (layer < 2) continue;  // metal 1 pads are exempt
      const grid::Point p = key_point(key);
      for (grid::Dir h : {grid::Dir::kEast, grid::Dir::kWest}) {
        if (!grid::has_arm(arms, h)) continue;
        for (grid::Dir v : {grid::Dir::kNorth, grid::Dir::kSouth}) {
          if (!grid::has_arm(arms, v)) continue;
          if (rules.classify(p, grid::turn_kind(h, v)) ==
              grid::TurnClass::kForbidden) {
            add_issue(issues, "net " + std::to_string(net.id()) +
                                  ": forbidden turn at layer " +
                                  std::to_string(layer) + " " + grid::to_string(p));
          }
        }
      }
    }
  }
  return issues;
}

std::vector<ValidationIssue> check_no_fvps(const via::ViaDb& vias) {
  std::vector<ValidationIssue> issues;
  for (const auto& fvp : vias.scan_all_fvps()) {
    add_issue(issues, "FVP on via layer " + std::to_string(fvp.via_layer) +
                          " window at " + grid::to_string(fvp.origin));
  }
  return issues;
}

std::vector<ValidationIssue> check_tpl_colorable(const via::ViaDb& vias) {
  std::vector<ValidationIssue> issues;
  const via::DecompGraph graph = via::DecompGraph::build_all_layers(vias);
  if (!via::three_colorable(graph)) {
    add_issue(issues, "via decomposition graph is not 3-colorable");
  }
  return issues;
}

std::vector<ValidationIssue> check_dvi_solution(
    const SadpRouter& router, const DviProblem& problem,
    const std::vector<int>& inserted, const std::vector<grid::Point>& inserted_at,
    bool expect_tpl_clean) {
  std::vector<ValidationIssue> issues;
  const auto n = static_cast<std::size_t>(problem.num_vias());
  if (inserted.size() != n || inserted_at.size() != n) {
    add_issue(issues, "DVI solution has " + std::to_string(inserted.size()) +
                          " choices and " + std::to_string(inserted_at.size()) +
                          " locations for " + std::to_string(n) + " single vias");
    return issues;
  }
  std::unordered_set<std::int64_t> used;

  std::vector<std::pair<grid::Point, int>> all_vias;
  for (const auto& via : problem.vias) all_vias.push_back({via.at, via.via_layer});

  for (int i = 0; i < problem.num_vias(); ++i) {
    const int k = inserted[static_cast<std::size_t>(i)];
    if (k < 0) continue;
    const auto& cands = problem.feasible[static_cast<std::size_t>(i)];
    if (k >= static_cast<int>(cands.size())) {
      add_issue(issues, "via " + std::to_string(i) + ": insertion index out of range");
      continue;
    }
    const grid::Point p = cands[static_cast<std::size_t>(k)];
    if (p != inserted_at[static_cast<std::size_t>(i)]) {
      add_issue(issues, "via " + std::to_string(i) + ": inserted_at mismatch");
    }
    const int layer = problem.vias[static_cast<std::size_t>(i)].via_layer;
    if (!used.insert(grid::site_key(layer, p)).second) {
      add_issue(issues, "two redundant vias share location " + grid::to_string(p));
    }
    if (router.via_db().has(layer, p)) {
      add_issue(issues, "redundant via on top of an existing via at " +
                            grid::to_string(p));
    }
    all_vias.push_back({p, layer});
  }

  if (expect_tpl_clean &&
      !via::three_colorable(via::DecompGraph::from_located(all_vias))) {
    add_issue(issues, "via layers not 3-colorable after DVI");
  }
  return issues;
}

std::vector<ValidationIssue> validate_routing(const SadpRouter& router,
                                              const netlist::PlacedNetlist& netlist,
                                              bool expect_tpl_clean) {
  std::vector<ValidationIssue> issues;
  auto merge = [&issues](std::vector<ValidationIssue> more) {
    issues.insert(issues.end(), std::make_move_iterator(more.begin()),
                  std::make_move_iterator(more.end()));
  };
  merge(check_connectivity(router.nets(), netlist));
  merge(check_no_congestion(router.routing_grid()));
  merge(check_no_forbidden_turns(router.nets(), router.turn_rules()));
  if (expect_tpl_clean) {
    merge(check_no_fvps(router.via_db()));
    merge(check_tpl_colorable(router.via_db()));
  }
  return issues;
}

}  // namespace sadp::core
