// Forbidden via patterns (paper Section II-D, Fig. 7).
//
// Two vias of the same via layer cannot receive the same TPL mask color when
// their center-to-center distance is below the same-color via pitch.  The
// paper states the pitch is slightly larger than twice the track pitch; the
// unique conflict predicate consistent with the paper's FVP classification
// rules is
//
//     conflict(a, b)  <=>  0 < sq_dist(a, b) < 8
//
// i.e. every pair of vias inside a common 3x3 subregion conflicts *except*
// vias on exactly diagonally opposite corners (distance 2*sqrt(2)).
//
// A *forbidden via pattern* (FVP) is the via pattern of a 3x3 subregion
// whose conflict graph is not 3-colorable.  Classifying a 3x3 pattern is
// O(1) via a 512-entry lookup table built once by brute-force 3-coloring;
// the table provably matches the paper's four classification rules (see
// tests/test_fvp.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "grid/geometry.hpp"

namespace sadp::via {

/// 9-bit occupancy mask of a 3x3 subregion; bit (dy*3 + dx) is the cell at
/// offset (dx, dy) from the window origin (lower-left corner).
using WindowMask = std::uint16_t;

inline constexpr int kWindowSize = 3;
inline constexpr int kWindowCells = 9;
inline constexpr int kNumWindowMasks = 512;

/// Bit index of offset (dx, dy), 0 <= dx, dy < 3.
[[nodiscard]] constexpr int window_bit(int dx, int dy) noexcept {
  return dy * kWindowSize + dx;
}

/// TPL same-color-pitch conflict predicate between two via locations of the
/// same via layer (in grid units).
[[nodiscard]] constexpr bool vias_conflict(grid::Point a, grid::Point b) noexcept {
  const auto d = grid::sq_dist(a, b);
  return d > 0 && d < 8;
}

/// Offsets q - p of the 20 locations q that vias_conflict(p, q) admits, in
/// dy-then-dx order (a row-major scan of the 5x5 neighbourhood).  Graph
/// adjacency, the C5-C7 rows and the TPLC deposits follow this order.
inline constexpr std::array<grid::Point, 20> kConflictOffsets = {{
    {-1, -2}, {0, -2}, {1, -2},
    {-2, -1}, {-1, -1}, {0, -1}, {1, -1}, {2, -1},
    {-2, 0}, {-1, 0}, {1, 0}, {2, 0},
    {-2, 1}, {-1, 1}, {0, 1}, {1, 1}, {2, 1},
    {-1, 2}, {0, 2}, {1, 2},
}};

/// True when the 3x3 via pattern `mask` is *not* 3-colorable, i.e. is a
/// forbidden via pattern.  O(1) table lookup.
[[nodiscard]] bool is_fvp(WindowMask mask) noexcept;

/// Ground-truth 3-colorability of a window pattern by brute force; used to
/// build the lookup table and by the property tests.
[[nodiscard]] bool window_three_colorable_bruteforce(WindowMask mask) noexcept;

/// The paper's rule-based classification (Section II-D, rules 1-4); exposed
/// so tests can prove it equals the brute-force table on all 512 patterns.
[[nodiscard]] bool is_fvp_by_paper_rules(WindowMask mask) noexcept;

/// Chromatic number (via brute force, up to 9 colors) of a window pattern;
/// used in diagnostics and the Fig. 7 demo.
[[nodiscard]] int window_chromatic_number(WindowMask mask) noexcept;

/// An FVP occurrence: the window origin (lower-left cell) on a via layer.
struct FvpWindow {
  int via_layer = 0;
  grid::Point origin{};

  friend constexpr auto operator<=>(const FvpWindow&, const FvpWindow&) = default;
};

}  // namespace sadp::via
