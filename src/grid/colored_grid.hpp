// Color pre-assignment of the routing grid (paper Section II-B, Fig. 4).
//
// Before detailed routing the multi-layer grid is colored so that the SADP
// layout decomposition of any routed pattern is known the moment the pattern
// is created:
//
//  * SIM (spacer-is-metal, cut mask): *panels* — the areas between adjacent
//    grid lines — are colored grey/white alternately in both directions.
//    Mandrel patterns must be aligned in the middle of grey panels.
//  * SID (spacer-is-dielectric, trim mask): *tracks* are colored black/grey
//    alternately in both directions.  Mandrels form only along black tracks.
//
// For the routing algorithms the only consequence of the coloring is the
// *parity class* of each grid point, which (together with the turn
// direction) determines whether an L-shape is a preferred, non-preferred or
// forbidden turn, and which DVI candidates of a via are feasible.  This
// header exposes the coloring and the parity classification; the turn tables
// themselves live in turns.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "grid/geometry.hpp"

namespace sadp::grid {

/// Patterning flavour: the paper's SIM type SADP with cut approach and SID
/// type SADP with trim approach, plus the variants the paper names as easy
/// adaptations — SIM with trim approach — and the SAQP (quadruple
/// patterning) extension of [17].
enum class SadpStyle : std::uint8_t {
  kSim = 0,      ///< spacer-is-metal, cut mask (paper's primary flavour)
  kSid = 1,      ///< spacer-is-dielectric, trim mask
  kSaqpSim = 2,  ///< quadruple patterning, SIM-style ([17] extension)
  kSimTrim = 3,  ///< spacer-is-metal with a trim mask (paper Section I)
};

[[nodiscard]] constexpr const char* style_name(SadpStyle s) noexcept {
  switch (s) {
    case SadpStyle::kSim: return "SIM";
    case SadpStyle::kSid: return "SID";
    case SadpStyle::kSaqpSim: return "SAQP-SIM";
    case SadpStyle::kSimTrim: return "SIM-TRIM";
  }
  return "?";
}

/// Inverse of style_name, exact case ("SIM", "SID", "SAQP-SIM",
/// "SIM-TRIM"): requests, journals, solution files and CLI flags all spell
/// a style this way.
[[nodiscard]] constexpr std::optional<SadpStyle> parse_style(
    std::string_view name) noexcept {
  for (const SadpStyle s : {SadpStyle::kSim, SadpStyle::kSid,
                            SadpStyle::kSaqpSim, SadpStyle::kSimTrim}) {
    if (name == style_name(s)) return s;
  }
  return std::nullopt;
}

/// Panel color in the SIM pre-assignment.
enum class PanelColor : std::uint8_t { kGrey = 0, kWhite = 1 };

/// Track color in the SID pre-assignment.
enum class TrackColor : std::uint8_t { kBlack = 0, kGrey = 1 };

/// Parity class of a grid point: (x mod 2, y mod 2) encoded as 2*(x&1)+(y&1).
/// All color-pre-assignment-derived rules are keyed by this class.
[[nodiscard]] constexpr int parity_class(Point p) noexcept {
  return 2 * (p.x & 1) + (p.y & 1);
}

inline constexpr int kNumParityClasses = 4;

/// The colored routing grid.  Stateless (colors are pure functions of the
/// coordinates), but carried as an object so alternative offsets can be
/// configured per layer if ever needed.
class ColoredGrid {
 public:
  explicit ColoredGrid(SadpStyle style) noexcept : style_(style) {}

  [[nodiscard]] SadpStyle style() const noexcept { return style_; }

  /// SIM: color of the panel whose lower-left grid cell corner is (i, j).
  /// Panels alternate in both directions, Fig. 4(a).
  [[nodiscard]] static PanelColor panel_color(int i, int j) noexcept {
    return ((i + j) & 1) == 0 ? PanelColor::kGrey : PanelColor::kWhite;
  }

  /// SID: color of a horizontal track (row index y).  Alternates, Fig. 4(c).
  [[nodiscard]] static TrackColor horizontal_track_color(int y) noexcept {
    return (y & 1) == 0 ? TrackColor::kBlack : TrackColor::kGrey;
  }

  /// SID: color of a vertical track (column index x).
  [[nodiscard]] static TrackColor vertical_track_color(int x) noexcept {
    return (x & 1) == 0 ? TrackColor::kBlack : TrackColor::kGrey;
  }

  /// SID: true when a wire running in the given direction through point p
  /// lies on a mandrel ("black") track.
  [[nodiscard]] static bool on_mandrel_track(Point p, bool horizontal_wire) noexcept {
    return horizontal_wire
               ? horizontal_track_color(p.y) == TrackColor::kBlack
               : vertical_track_color(p.x) == TrackColor::kBlack;
  }

 private:
  SadpStyle style_;
};

}  // namespace sadp::grid
