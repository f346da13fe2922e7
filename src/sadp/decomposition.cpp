#include "sadp/decomposition.hpp"

#include <algorithm>

namespace sadp::litho {

namespace {

using grid::ArmMask;
using grid::Dir;
using grid::Point;

constexpr int kScale = kMaskUnitsPerTrack;

/// Mask-space center of a grid point.
[[nodiscard]] Point mask_center(Point p) { return {p.x * kScale, p.y * kScale}; }

/// Rect of half-width w/2 around the segment from grid point p one track in
/// direction d (the wire stick of one arm).
[[nodiscard]] MaskRect arm_rect(Point p, Dir d, int width) {
  const Point c = mask_center(p);
  const Point s = grid::step(d);
  const int half = width / 2;
  MaskRect r;
  r.lo_x = std::min(c.x, c.x + s.x * kScale) - half;
  r.hi_x = std::max(c.x, c.x + s.x * kScale) + half;
  r.lo_y = std::min(c.y, c.y + s.y * kScale) - half;
  r.hi_y = std::max(c.y, c.y + s.y * kScale) + half;
  return r;
}

/// Small square at the outside corner of a turn, displaced diagonally.
[[nodiscard]] MaskRect corner_rect(Point p, grid::TurnKind kind, int size,
                                   int diag_offset) {
  const Point c = mask_center(p);
  int sx = 1, sy = 1;
  switch (kind) {
    case grid::TurnKind::kNE: sx = -1; sy = -1; break;  // outside = SW
    case grid::TurnKind::kNW: sx = +1; sy = -1; break;
    case grid::TurnKind::kSE: sx = -1; sy = +1; break;
    case grid::TurnKind::kSW: sx = +1; sy = +1; break;
  }
  const int cx = c.x + sx * diag_offset;
  const int cy = c.y + sy * diag_offset;
  return MaskRect{cx - size / 2, cy - size / 2, cx + size - size / 2,
                  cy + size - size / 2};
}

/// Rect just beyond a line end (the end-cut / end-trim shape).
[[nodiscard]] MaskRect line_end_rect(Point p, Dir open_dir, int width) {
  const Point c = mask_center(p);
  const Point s = grid::step(open_dir);
  const int half = width / 2;
  // A width x width square centered one half-pitch beyond the wire tip.
  const int cx = c.x + s.x * (half + width);
  const int cy = c.y + s.y * (half + width);
  return MaskRect{cx - half, cy - half, cx + half, cy + half};
}

/// Whether a wire arm lies on a mandrel-defining track under the parity
/// model (see grid/colored_grid.hpp).
[[nodiscard]] bool arm_on_mandrel(Point p, Dir d, grid::SadpStyle style) {
  const bool horizontal = grid::is_horizontal(d);
  if (style == grid::SadpStyle::kSid) {
    return grid::ColoredGrid::on_mandrel_track(p, horizontal);
  }
  // SIM: mandrels sit in the middle of grey panels; a wire prints as the
  // spacer of the mandrel in the adjacent panel, which exists (without an
  // assist feature) when the track index has mandrel parity.
  return horizontal ? (p.y & 1) == 0 : (p.x & 1) == 0;
}

}  // namespace

TurnCensus census_turns(const LayerPattern& pattern, const grid::TurnRules& rules) {
  TurnCensus census;
  for (const auto& [p, arms] : pattern.points) {
    for (Dir h : {Dir::kEast, Dir::kWest}) {
      if (!grid::has_arm(arms, h)) continue;
      for (Dir v : {Dir::kNorth, Dir::kSouth}) {
        if (!grid::has_arm(arms, v)) continue;
        switch (rules.classify(p, grid::turn_kind(h, v))) {
          case grid::TurnClass::kPreferred: ++census.preferred; break;
          case grid::TurnClass::kNonPreferred: ++census.non_preferred; break;
          case grid::TurnClass::kForbidden: ++census.forbidden; break;
        }
      }
    }
  }
  return census;
}

LayerDecomposition decompose_layer(const LayerPattern& pattern,
                                   grid::SadpStyle style) {
  LayerDecomposition out;
  out.core.name = "core";
  out.assist.name = (style == grid::SadpStyle::kSid ||
                   style == grid::SadpStyle::kSimTrim)
                      ? "trim"
                      : "cut";

  const grid::TurnRules turn_rules = grid::TurnRules::for_style(style);
  constexpr int w = kWireWidth;

  for (const auto& [p, arms] : pattern.points) {
    // Landing pad at every occupied point (pins and via landings included);
    // arm sticks below extend it along the wires.
    const Point c = mask_center(p);
    out.core.rects.push_back(
        MaskRect{c.x - w / 2, c.y - w / 2, c.x + w - w / 2, c.y + w - w / 2});

    // Mandrel sticks for arms on mandrel tracks; spacer-derived arms do not
    // draw core shapes.  The core mask is what SADP actually exposes first.
    for (Dir d : grid::kPlanarDirs) {
      if (!grid::has_arm(arms, d)) continue;
      if (arm_on_mandrel(p, d, style)) out.core.rects.push_back(arm_rect(p, d, w));
    }

    // Line ends: a wire that terminates at this point needs an end cut /
    // trim shape beyond the tip.  Corners and junctions (points with both a
    // horizontal and a vertical arm) are not line ends — their second-mask
    // geometry comes from the turn synthesis below.
    const bool has_h =
        grid::has_arm(arms, Dir::kEast) || grid::has_arm(arms, Dir::kWest);
    const bool has_v =
        grid::has_arm(arms, Dir::kNorth) || grid::has_arm(arms, Dir::kSouth);
    if (arms != 0 && !(has_h && has_v)) {
      for (Dir d : grid::kPlanarDirs) {
        const bool wire_runs_this_axis = grid::is_horizontal(d) ? has_h : has_v;
        if (wire_runs_this_axis && !grid::has_arm(arms, d)) {
          out.assist.rects.push_back(line_end_rect(p, d, w));
        }
      }
    }

    // Turns: synthesize the corner's second-mask geometry.
    for (Dir h : {Dir::kEast, Dir::kWest}) {
      if (!grid::has_arm(arms, h)) continue;
      for (Dir v : {Dir::kNorth, Dir::kSouth}) {
        if (!grid::has_arm(arms, v)) continue;
        const grid::TurnKind kind = grid::turn_kind(h, v);
        switch (turn_rules.classify(p, kind)) {
          case grid::TurnClass::kPreferred:
            // The mandrel itself turns; no extra second-mask shape needed.
            break;
          case grid::TurnClass::kNonPreferred:
            // Decomposable with a spacer-rounding patch: one legal corner
            // cut/trim shape.
            out.assist.rects.push_back(corner_rect(p, kind, w, kScale));
            ++out.degradations;
            break;
          case grid::TurnClass::kForbidden:
            // Undecomposable: the corner would require two second-mask
            // shapes at sub-minimum spacing.  Synthesize exactly that so the
            // geometric DRC reports the violation.
            out.assist.rects.push_back(corner_rect(p, kind, w, kScale));
            out.assist.rects.push_back(
                corner_rect(p, kind, w, kScale + w + kMinMaskSpacing - 1));
            ++out.forbidden_turns;
            break;
        }
      }
    }
  }

  auto core_violations = check_mask(out.core, kMinMaskWidth, kMinMaskSpacing);
  auto assist_violations = check_mask(out.assist, kMinMaskWidth, kMinMaskSpacing);
  out.violations = std::move(core_violations);
  out.violations.insert(out.violations.end(), assist_violations.begin(),
                        assist_violations.end());
  return out;
}

}  // namespace sadp::litho
