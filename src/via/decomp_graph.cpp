#include "via/decomp_graph.hpp"

#include <unordered_map>

namespace sadp::via {

DecompGraph DecompGraph::build_all_layers(const ViaDb& db) {
  DecompGraph g;
  for (int v = 1; v <= db.num_via_layers(); ++v) {
    for (const grid::Point p : db.locations(v)) g.add_vertex(p, v);
  }
  g.connect_conflicts();
  return g;
}

DecompGraph DecompGraph::from_located(
    const std::vector<std::pair<grid::Point, int>>& located) {
  DecompGraph g;
  for (const auto& [p, layer] : located) g.add_vertex(p, layer);
  g.connect_conflicts();
  return g;
}

void DecompGraph::add_vertex(grid::Point p, int via_layer) {
  point_.push_back(p);
  layer_.push_back(via_layer);
  adj_.emplace_back();
}

void DecompGraph::connect_conflicts() {
  // Hash every vertex by site, then probe its conflict neighbourhood.
  std::unordered_map<std::int64_t, int> at;
  at.reserve(point_.size() * 2);
  for (int v = 0; v < num_vertices(); ++v) at[grid::site_key(layer_[v], point_[v])] = v;
  for (int v = 0; v < num_vertices(); ++v) {
    for (const grid::Point d : kConflictOffsets) {
      const auto it = at.find(grid::site_key(layer_[v], point_[v] + d));
      if (it == at.end() || it->second <= v) continue;
      const int u = it->second;
      adj_[v].push_back(u);
      adj_[u].push_back(v);
      ++num_edges_;
    }
  }
}

std::vector<std::vector<int>> DecompGraph::components() const {
  std::vector<std::vector<int>> comps;
  std::vector<char> seen(static_cast<std::size_t>(num_vertices()), 0);
  std::vector<int> stack;
  for (int s = 0; s < num_vertices(); ++s) {
    if (seen[s]) continue;
    comps.emplace_back();
    stack.push_back(s);
    seen[s] = 1;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      comps.back().push_back(v);
      for (int u : adj_[v]) {
        if (!seen[u]) {
          seen[u] = 1;
          stack.push_back(u);
        }
      }
    }
  }
  return comps;
}

}  // namespace sadp::via
