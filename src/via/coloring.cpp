#include "via/coloring.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace sadp::via {

namespace {

/// Vertices ordered by non-increasing degree (Welsh-Powell order), ties by
/// index for determinism.
std::vector<int> degree_order(const DecompGraph& graph) {
  std::vector<int> order(static_cast<std::size_t>(graph.num_vertices()));
  for (int v = 0; v < graph.num_vertices(); ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return graph.degree(a) > graph.degree(b);
  });
  return order;
}

/// Smallest color in [0, kNumTplColors) unused among colored neighbors, or
/// kUncolored.
int smallest_free_color(const DecompGraph& graph, const std::vector<int>& color,
                        int v) {
  std::array<bool, kNumTplColors> used{};
  for (int u : graph.neighbors(v)) {
    if (color[u] != kUncolored) used[static_cast<std::size_t>(color[u])] = true;
  }
  for (int c = 0; c < kNumTplColors; ++c) {
    if (!used[static_cast<std::size_t>(c)]) return c;
  }
  return kUncolored;
}

}  // namespace

ColoringResult welsh_powell(const DecompGraph& graph) {
  return welsh_powell_extend(
      graph, std::vector<int>(static_cast<std::size_t>(graph.num_vertices()),
                              kUncolored));
}

ColoringResult welsh_powell_extend(const DecompGraph& graph,
                                   std::vector<int> color) {
  assert(static_cast<int>(color.size()) == graph.num_vertices());
  ColoringResult result;
  for (int v : degree_order(graph)) {
    if (color[v] != kUncolored) continue;
    color[v] = smallest_free_color(graph, color, v);
    if (color[v] == kUncolored) result.uncolored.push_back(v);
  }
  std::sort(result.uncolored.begin(), result.uncolored.end());
  result.color = std::move(color);
  return result;
}

namespace {

/// Backtracking 3-coloring of one component (vertex list), highest degree
/// first.  Returns false on failure or budget exhaustion.
bool color_component(const DecompGraph& graph, const std::vector<int>& comp,
                     std::vector<int>& color, std::size_t& budget) {
  std::vector<int> order = comp;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return graph.degree(a) > graph.degree(b);
  });

  const int n = static_cast<int>(order.size());
  std::vector<int> tentative(color);

  // Every color tried costs one step, rejected ones included; the check
  // comes before the decrement so a spent budget never wraps.
  auto recurse = [&](auto&& self, int i) -> bool {
    if (i == n) return true;
    const int v = order[static_cast<std::size_t>(i)];
    for (int c = 0; c < kNumTplColors; ++c) {
      if (budget == 0) return false;
      --budget;
      bool ok = true;
      for (int u : graph.neighbors(v)) {
        if (tentative[u] == c) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      tentative[v] = c;
      if (self(self, i + 1)) return true;
      tentative[v] = kUncolored;
    }
    return false;
  };

  if (!recurse(recurse, 0)) return false;
  for (int v : comp) color[v] = tentative[v];
  return true;
}

}  // namespace

std::optional<std::vector<int>> exact_three_coloring(const DecompGraph& graph,
                                                     std::size_t budget) {
  std::vector<int> color(static_cast<std::size_t>(graph.num_vertices()), kUncolored);
  for (const auto& comp : graph.components()) {
    if (!color_component(graph, comp, color, budget)) return std::nullopt;
  }
  return color;
}

bool three_colorable(const DecompGraph& graph, std::size_t budget) {
  return exact_three_coloring(graph, budget).has_value();
}

bool is_proper_coloring(const DecompGraph& graph, const std::vector<int>& color) {
  if (static_cast<int>(color.size()) != graph.num_vertices()) return false;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    if (color[v] == kUncolored) continue;
    if (color[v] < 0 || color[v] >= kNumTplColors) return false;
    for (int u : graph.neighbors(v)) {
      if (u > v && color[u] == color[v]) return false;
    }
  }
  return true;
}

}  // namespace sadp::via
