// Modified Dijkstra maze routing over the colored grid (paper Section III-B,
// inherited from the framework of [20]).
//
// Search states are (metal layer, grid point, incoming travel direction);
// carrying the direction lets the expansion
//
//  * hard-exclude forbidden turns (including turns against the net's own
//    existing arms when branching off the routed tree),
//  * charge non-preferred turns,
//  * strongly discourage non-preferred-direction segments ("restricted
//    detailed routing": the perpendicular direction is expensive, never
//    impossible).
//
// Via moves reset the direction state (a via landing pad starts a fresh
// wire).  During the TPL-violation-removal phase, via locations whose
// occupation would create an FVP are hard-blocked (Algorithm 2, Fig. 10).
//
// The search is A* (admissible Manhattan-distance heuristic) restricted to
// an inflated bounding box of sources and target; on failure it retries
// unwindowed.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost_maps.hpp"
#include "core/routed_net.hpp"
#include "grid/routing_grid.hpp"
#include "grid/turns.hpp"
#include "util/stats.hpp"
#include "util/zero_array.hpp"
#include "via/via_db.hpp"

namespace sadp::core {

class MazeRouter {
 public:
  // Base routing costs of the restricted detailed routing model.
  static constexpr double kSegmentCost = 1.0;  ///< preferred-direction segment
  static constexpr double kNonPreferredFactor = 4.0;  ///< non-preferred segment
  static constexpr double kViaCost = 2.0;
  static constexpr double kNonPreferredTurnCost = 1.5;  ///< added per such turn

  MazeRouter(const grid::RoutingGrid& grid, const grid::TurnRules& rules,
             const CostMaps& costs, const via::ViaDb& vias);

  /// Penalty multiplier for presently-occupied vertices; the negotiation
  /// engine escalates this between rounds.
  void set_present_factor(double factor) noexcept { present_factor_ = factor; }

  /// Enable the hard FVP block on via placements (Algorithm 2 phase).
  void set_fvp_blocking(bool enabled) noexcept { fvp_blocking_ = enabled; }

  /// Route one connection: from `sources` (the metal points of the net's
  /// connected tree on routable layers) to the metal-2 point above
  /// `target_pin`.  On success the path is appended to `net` (grid databases
  /// NOT updated — the caller applies the net afterwards) and the touched
  /// routable-layer points are appended to `*new_points`.  Returns false
  /// when no path exists.
  ///
  /// Invariant: the net being routed must not be applied to the grid (the
  /// router always rips before rerouting).  The vertex-cost "others" term
  /// can then read the incremental occupancy counts directly instead of
  /// walking occupant spans to subtract the net's own entries.
  [[nodiscard]] bool route_connection(RoutedNet& net,
                                      const std::vector<MetalKey>& sources,
                                      grid::Point target_pin,
                                      std::vector<MetalKey>* new_points);

  /// Search-effort statistics (nodes popped in the last call).
  [[nodiscard]] std::size_t last_pops() const noexcept { return last_pops_; }

  /// Cumulative search-effort counters across the router's lifetime.
  struct SearchStats {
    std::uint64_t pops = 0;         ///< heap pops over all searches
    std::uint64_t relaxations = 0;  ///< successful distance improvements
    std::uint64_t searches = 0;     ///< search() invocations
    std::uint64_t heap_reused = 0;  ///< searches needing no open-list regrowth
  };
  [[nodiscard]] const SearchStats& stats() const noexcept { return stats_; }

  /// Distribution of per-search pop counts (one sample per search()); the
  /// p50/p95/max land in RoutingReport/StageMetrics so a handful of
  /// pathological searches is visible next to the cumulative totals.
  [[nodiscard]] const util::Histogram& search_pops() const noexcept {
    return pops_hist_;
  }

  /// Fold another router's cumulative counters and pop distribution into
  /// this one (partition merge: region-world searches count toward the same
  /// job totals a serial run would report).
  void absorb_stats(const MazeRouter& other) noexcept {
    stats_.pops += other.stats_.pops;
    stats_.relaxations += other.stats_.relaxations;
    stats_.searches += other.stats_.searches;
    stats_.heap_reused += other.stats_.heap_reused;
    pops_hist_.merge(other.pops_hist_);
  }

 private:
  struct OpenEntry {
    double f;  ///< g + admissible heuristic
    double g;
    std::int64_t state;

    friend bool operator<(const OpenEntry& a, const OpenEntry& b) {
      return a.f > b.f;  // min-heap under std::push_heap/pop_heap
    }
  };

  struct Window {
    int lo_x, lo_y, hi_x, hi_y;
    [[nodiscard]] bool contains(grid::Point p) const noexcept {
      return p.x >= lo_x && p.x <= hi_x && p.y >= lo_y && p.y <= hi_y;
    }
  };

  [[nodiscard]] bool search(RoutedNet& net, const std::vector<MetalKey>& sources,
                            grid::Point target_pin, const Window& window,
                            std::vector<MetalKey>* new_points);

  // State encoding: ((layer - 2) * num_points + point_index) * 5 + dir.
  [[nodiscard]] std::int64_t state_id(int layer, grid::Point p, int dir) const {
    return (static_cast<std::int64_t>(layer - 2) * num_points_ + grid_.index(p)) *
               5 +
           dir;
  }

  [[nodiscard]] double metal_vertex_cost(int layer, grid::Point p,
                                         grid::NetId net) const;
  [[nodiscard]] double via_vertex_cost(int via_layer, grid::Point p,
                                       grid::NetId net) const;

  const grid::RoutingGrid& grid_;
  const grid::TurnRules& rules_;
  const CostMaps& costs_;
  const via::ViaDb& vias_;

  std::int64_t num_points_;

  double present_factor_ = 1.0;
  bool fvp_blocking_ = false;
  std::size_t last_pops_ = 0;
  SearchStats stats_;
  util::Histogram pops_hist_;

  // Per-state scratch, epoch-stamped to avoid clearing between calls.  The
  // arrays are demand-zero (DESIGN.md section 9): a state whose stamp is not
  // the current epoch is unvisited, so a page no search reaches is never
  // materialized, and dist/parent are read only behind a current stamp.
  util::ZeroArray<double> dist_;
  /// Parent of each reached state as a 32-bit state id, half the resident
  /// bytes of a 64-bit one; the constructor rejects a grid with more states.
  util::ZeroArray<std::int32_t> parent_;
  util::ZeroArray<std::uint32_t> epoch_;
  std::uint32_t current_epoch_ = 0;

  // Reusable open list: cleared (capacity kept) per search instead of
  // constructing a fresh std::priority_queue, so steady-state searches are
  // allocation-free.  Identical heap algorithm (push_heap/pop_heap), so the
  // pop order — including tiebreaks — matches the priority_queue it
  // replaces bit for bit.
  std::vector<OpenEntry> open_;
};

}  // namespace sadp::core
