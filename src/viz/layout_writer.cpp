#include "viz/layout_writer.hpp"

#include <algorithm>

namespace sadp::viz {

namespace {

const char* layer_color(int layer) {
  switch (layer) {
    case 2: return "#1f77d0";  // metal 2: blue
    case 3: return "#d03030";  // metal 3: red
    case 4: return "#2ca02c";  // metal 4: green
    default: return "#9467bd";
  }
}

/// SVG pixels per grid unit of a layout, and per mask unit of a mask.
constexpr double kLayoutScale = 12.0;
constexpr double kMaskScale = 6.0;

struct Clip {
  int hi_x, hi_y;
  [[nodiscard]] bool contains(grid::Point p) const noexcept {
    return p.x >= 0 && p.x <= hi_x && p.y >= 0 && p.y <= hi_y;
  }
};

Clip make_clip(const core::SadpRouter& router, const LayoutWriterOptions& options) {
  Clip clip{options.clip_hi_x, options.clip_hi_y};
  if (clip.hi_x < 0) clip.hi_x = router.routing_grid().width() - 1;
  if (clip.hi_y < 0) clip.hi_y = router.routing_grid().height() - 1;
  return clip;
}

void draw_base(SvgDocument& doc, const core::SadpRouter& router, const Clip& clip) {
  const auto& grid = router.routing_grid();

  doc.begin_group("grid", 0.25);
  Style grid_style;
  grid_style.stroke = "#cccccc";
  grid_style.stroke_width = 0.4;
  for (int x = 0; x <= clip.hi_x; ++x) {
    doc.line(x, 0, x, clip.hi_y, grid_style);
  }
  for (int y = 0; y <= clip.hi_y; ++y) {
    doc.line(0, y, clip.hi_x, y, grid_style);
  }
  doc.end_group();

  // Wires: one line per unit arm (drawn from the point halfway, so shared
  // segments render once per endpoint without bookkeeping).
  for (int layer = 2; layer <= grid.num_metal_layers(); ++layer) {
    doc.begin_group("metal" + std::to_string(layer), 0.8);
    Style wire;
    wire.stroke = layer_color(layer);
    wire.stroke_width = 3.0;
    for (const auto& net : router.nets()) {
      for (const auto& [key, arms] : net.metal()) {
        if (core::key_layer(key) != layer) continue;
        const grid::Point p = core::key_point(key);
        if (!clip.contains(p)) continue;
        const double x = p.x, y = p.y;
        for (grid::Dir d : grid::kPlanarDirs) {
          if (!grid::has_arm(arms, d)) continue;
          const grid::Point s = grid::step(d);
          doc.line(x, y, x + s.x * 0.5, y + s.y * 0.5, wire);
        }
      }
    }
    doc.end_group();
  }

  doc.begin_group("vias");
  for (const auto& net : router.nets()) {
    for (const auto& via : net.vias()) {
      if (!clip.contains(via.at)) continue;
      Style dot;
      dot.fill = via.is_pin_via ? "black" : "#555555";
      dot.stroke = "none";
      doc.circle(via.at.x, via.at.y, via.is_pin_via ? 0.22 : 0.18, dot);
    }
  }
  doc.end_group();

  doc.begin_group("fvps");
  Style bad;
  bad.stroke = "#ff9900";
  bad.stroke_width = 2.0;
  for (const auto& fvp : router.via_db().scan_all_fvps()) {
    if (!clip.contains(fvp.origin)) continue;
    doc.rect(fvp.origin.x - 0.4, fvp.origin.y - 0.4, 2.8, 2.8, bad);
  }
  doc.end_group();
}

}  // namespace

SvgDocument render_layout(const core::SadpRouter& router,
                          const LayoutWriterOptions& options) {
  const Clip clip = make_clip(router, options);
  SvgDocument doc(clip.hi_x + 2.0, clip.hi_y + 2.0, kLayoutScale);
  draw_base(doc, router, clip);
  return doc;
}

SvgDocument render_layout_with_dvi(const core::SadpRouter& router,
                                   const core::DviProblem& problem,
                                   const std::vector<int>& inserted,
                                   const std::vector<grid::Point>& inserted_at,
                                   const LayoutWriterOptions& options) {
  const Clip clip = make_clip(router, options);
  SvgDocument doc(clip.hi_x + 2.0, clip.hi_y + 2.0, kLayoutScale);
  draw_base(doc, router, clip);

  doc.begin_group("redundant-vias");
  Style ring;
  ring.stroke = "#00aa44";
  ring.stroke_width = 1.6;
  Style dead;
  dead.stroke = "#dd0000";
  dead.stroke_width = 1.6;
  for (int i = 0; i < problem.num_vias(); ++i) {
    const grid::Point at = problem.vias[static_cast<std::size_t>(i)].at;
    if (inserted[static_cast<std::size_t>(i)] >= 0) {
      const grid::Point p = inserted_at[static_cast<std::size_t>(i)];
      if (!clip.contains(p)) continue;
      doc.circle(p.x, p.y, 0.3, ring);
    } else if (clip.contains(at)) {
      // Dead via: red ring around the original.
      doc.circle(at.x, at.y, 0.34, dead);
    }
  }
  doc.end_group();
  return doc;
}

SvgDocument render_masks(const litho::LayerDecomposition& decomposition) {
  // Bounds over both masks, in mask units.
  int lo_x = 0, lo_y = 0, hi_x = 1, hi_y = 1;
  bool first = true;
  auto grow = [&](const litho::MaskRect& r) {
    if (first) {
      lo_x = r.lo_x;
      lo_y = r.lo_y;
      hi_x = r.hi_x;
      hi_y = r.hi_y;
      first = false;
    } else {
      lo_x = std::min(lo_x, r.lo_x);
      lo_y = std::min(lo_y, r.lo_y);
      hi_x = std::max(hi_x, r.hi_x);
      hi_y = std::max(hi_y, r.hi_y);
    }
  };
  for (const auto& r : decomposition.core.rects) grow(r);
  for (const auto& r : decomposition.assist.rects) grow(r);

  SvgDocument doc(hi_x - lo_x + 4.0, hi_y - lo_y + 4.0, kMaskScale);
  const double ox = 2.0 - lo_x, oy = 2.0 - lo_y;

  doc.begin_group("core", 0.7);
  Style core;
  core.fill = "#4f86d0";
  core.stroke = "#1f4f90";
  core.stroke_width = 0.5;
  for (const auto& r : decomposition.core.rects) {
    doc.rect(r.lo_x + ox, r.lo_y + oy, r.width(), r.height(), core);
  }
  doc.end_group();

  doc.begin_group(decomposition.assist.name, 0.7);
  Style assist;
  assist.fill = "#e0a030";
  assist.stroke = "#905010";
  assist.stroke_width = 0.5;
  for (const auto& r : decomposition.assist.rects) {
    doc.rect(r.lo_x + ox, r.lo_y + oy, r.width(), r.height(), assist);
  }
  doc.end_group();

  doc.begin_group("violations");
  Style bad;
  bad.stroke = "#ff0000";
  bad.stroke_width = 1.2;
  for (const auto& violation : decomposition.violations) {
    doc.rect(violation.a.lo_x + ox - 0.5, violation.a.lo_y + oy - 0.5,
             violation.a.width() + 1.0, violation.a.height() + 1.0, bad);
  }
  doc.end_group();
  return doc;
}

}  // namespace sadp::viz
