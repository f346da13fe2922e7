// Per-via-layer occupancy database used by the TPL machinery.
//
// The routing grid (grid/routing_grid.hpp) tracks which *nets* own each via;
// this database tracks only *where* vias exist per layer, which is all the
// TPL analysis needs, and provides the O(1) FVP queries of the paper.
//
// FVP state is maintained incrementally: every 3x3 window keeps a cached
// 9-bit occupancy mask and its FVP classification, both updated in O(1) on
// add()/remove() (a via touches exactly 9 windows).  On top of the flags an
// index of the currently-FVP windows is maintained with O(1)
// insert/swap-remove, so
//
//  * would placing a via at p create an FVP? (the "blocked via location"
//    test of Algorithm 2 / Fig. 10) is 9 cached-mask table tests,
//  * is the window at `origin` an FVP right now? is one flag load,
//  * which windows are FVPs right now? is O(#FVPs log #FVPs) — an iteration
//    over the maintained index plus a sort into the deterministic row-major
//    order (never a grid scan),
//  * the different-color via location conflict counts feeding the TPLC cost.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/geometry.hpp"
#include "via/fvp.hpp"

namespace sadp::via {

class ViaDb {
 public:
  ViaDb(int width, int height, int num_via_layers);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] int num_via_layers() const noexcept { return layers_; }

  [[nodiscard]] bool in_bounds(grid::Point p) const noexcept {
    return p.x >= 0 && p.x < width_ && p.y >= 0 && p.y < height_;
  }

  /// Add one via occurrence at (via_layer, p).  Multiple occurrences (e.g.
  /// two congested nets with coincident vias) are reference-counted; the
  /// location reads as occupied while any remain.  Out-of-range layers or
  /// points, count overflow and removal of an absent via throw
  /// sadp::FlowError in every build type (they indicate router bugs that
  /// would otherwise corrupt the occupancy silently in release builds).
  void add(int via_layer, grid::Point p);
  void remove(int via_layer, grid::Point p);

  [[nodiscard]] bool has(int via_layer, grid::Point p) const {
    return count_[slot(via_layer, p)] > 0;
  }

  /// All occupied via locations of a layer.
  [[nodiscard]] std::vector<grid::Point> locations(int via_layer) const;

  /// 9-bit via-occupancy mask of the window with lower-left `origin`.
  /// Cells outside the grid read as empty.  Served from the incremental
  /// per-window cache (windows entirely outside the grid read as 0).
  [[nodiscard]] WindowMask window_mask(int via_layer, grid::Point origin) const {
    return window_in_range(origin) ? mask_[wslot(via_layer, origin)]
                                   : WindowMask{0};
  }

  /// True when the window at `origin` currently holds an FVP.  One cached
  /// flag load.
  [[nodiscard]] bool window_is_fvp(int via_layer, grid::Point origin) const {
    ++fvp_cache_hits_;
    return window_in_range(origin) &&
           fvp_pos_[wslot(via_layer, origin)] != kNotFvp;
  }

  /// True when hypothetically adding a via at (via_layer, p) would make any
  /// 3x3 window containing p an FVP.  This is the "blocked via location"
  /// predicate: during TPL-violation-removal R&R such locations are excluded
  /// from rerouting, and the DVI heuristic refuses insertions that trip it.
  /// Nine cached-mask table tests (no occupancy rescan).
  [[nodiscard]] bool would_create_fvp(int via_layer, grid::Point p) const;

  /// True when the vias currently in some window containing p form an FVP.
  [[nodiscard]] bool in_fvp(int via_layer, grid::Point p) const;

  /// All FVP windows of one layer, in row-major window-origin order.
  /// O(#FVPs log #FVPs) over the maintained index — never a grid scan.
  [[nodiscard]] std::vector<FvpWindow> scan_fvps(int via_layer) const;

  /// All FVP windows over all layers, ordered (layer, row-major origin).
  [[nodiscard]] std::vector<FvpWindow> scan_all_fvps() const;

  /// Number of FVP windows currently alive across all layers (O(1)).
  [[nodiscard]] std::size_t fvp_count() const noexcept {
    return fvp_list_.size();
  }

  /// Perf counter: FVP predicate evaluations served by the incremental
  /// cache (would_create_fvp / window_is_fvp / in_fvp calls).
  [[nodiscard]] std::uint64_t fvp_cache_hits() const noexcept {
    return fvp_cache_hits_;
  }

  /// Number of existing vias within same-color pitch of location p
  /// (excluding a via at p itself).  This is the multiplier of the TPLC
  /// penalty gamma * (#coloring conflicts).
  [[nodiscard]] int conflict_count(int via_layer, grid::Point p) const;

 private:
  void check_slot(int via_layer, grid::Point p, const char* op) const;
  void update_windows_around(int via_layer, grid::Point p);

  [[nodiscard]] std::size_t slot(int via_layer, grid::Point p) const noexcept {
    return static_cast<std::size_t>(via_layer - 1) * width_ * height_ +
           static_cast<std::size_t>(p.y) * width_ + p.x;
  }

  // Window-origin index space: origins in [-(kWindowSize-1), width-1] x
  // [-(kWindowSize-1), height-1] cover every window that intersects the
  // grid; anything outside is permanently empty.
  [[nodiscard]] bool window_in_range(grid::Point origin) const noexcept {
    return origin.x >= -(kWindowSize - 1) && origin.x < width_ &&
           origin.y >= -(kWindowSize - 1) && origin.y < height_;
  }
  [[nodiscard]] std::size_t wslot(int via_layer, grid::Point origin) const noexcept {
    return static_cast<std::size_t>(via_layer - 1) * wwidth_ * wheight_ +
           static_cast<std::size_t>(origin.y + kWindowSize - 1) * wwidth_ +
           (origin.x + kWindowSize - 1);
  }
  [[nodiscard]] FvpWindow window_of(std::size_t wslot_index) const noexcept;

  static constexpr std::uint32_t kNotFvp = UINT32_MAX;

  int width_;
  int height_;
  int layers_;
  int wwidth_;   ///< width_ + kWindowSize - 1 window origins per row
  int wheight_;  ///< height_ + kWindowSize - 1 window origins per column
  std::vector<std::uint8_t> count_;

  // Incremental FVP state (functions of count_, maintained by add/remove).
  std::vector<WindowMask> mask_;       ///< per-window cached occupancy mask
  std::vector<std::uint32_t> fvp_pos_; ///< index into fvp_list_, or kNotFvp
  std::vector<std::uint32_t> fvp_list_; ///< wslots of the live FVP windows
  mutable std::uint64_t fvp_cache_hits_ = 0;
};

}  // namespace sadp::via
