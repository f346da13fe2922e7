// The via-layer TPL decomposition graph (paper Sections II-D and III-D).
//
// Each via pattern is a vertex; an edge joins two vias of the same layer
// that lie within same-color via pitch (vias_conflict()).  TPL layout
// decomposition is 3-coloring of this graph.  The graph is built once after
// routing (maintaining it during routing is what the FVP machinery avoids).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "grid/geometry.hpp"
#include "via/via_db.hpp"

namespace sadp::via {

/// Adjacency-list graph over the vias of one or more via layers.
class DecompGraph {
 public:
  /// Build one graph spanning all via layers (layers are independent; the
  /// combined graph is simply their disjoint union, convenient for a single
  /// coloring call).  Vertices run layer by layer in row-major order.
  static DecompGraph build_all_layers(const ViaDb& db);

  /// Build from explicit (location, via layer) pairs; vertex i corresponds
  /// to input element i.  Locations must be unique per layer.
  static DecompGraph from_located(
      const std::vector<std::pair<grid::Point, int>>& located);

  [[nodiscard]] int num_vertices() const noexcept {
    return static_cast<int>(adj_.size());
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  [[nodiscard]] const std::vector<int>& neighbors(int v) const { return adj_[v]; }
  [[nodiscard]] int degree(int v) const { return static_cast<int>(adj_[v].size()); }

  /// Via layer and location of vertex v.
  [[nodiscard]] int vertex_layer(int v) const { return layer_[v]; }
  [[nodiscard]] grid::Point vertex_point(int v) const { return point_[v]; }

  /// Connected components as vertex-index lists.
  [[nodiscard]] std::vector<std::vector<int>> components() const;

 private:
  void add_vertex(grid::Point p, int via_layer);
  void connect_conflicts();

  std::vector<std::vector<int>> adj_;
  std::vector<grid::Point> point_;
  std::vector<int> layer_;
  std::size_t num_edges_ = 0;
};

}  // namespace sadp::via
