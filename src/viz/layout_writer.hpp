// Render a routed design (and optionally its DVI result or synthesized SADP
// masks) to SVG for visual inspection.
//
// Layers render as translucent groups over the grid lines: metal 2 in
// blue, metal 3 in red, higher layers in green hues; vias are filled
// circles (pin vias black), redundant vias are ring markers, FVP windows
// (if any survive) are highlighted.
#pragma once

#include <string>
#include <vector>

#include "core/dvic.hpp"
#include "core/router.hpp"
#include "sadp/decomposition.hpp"
#include "viz/svg.hpp"

namespace sadp::viz {

/// The rendered window runs from grid point (0, 0) to (clip_hi_x,
/// clip_hi_y); a negative bound means the grid's far edge.
struct LayoutWriterOptions {
  int clip_hi_x = -1, clip_hi_y = -1;
};

/// Render the routed design of `router` to an SVG document.
[[nodiscard]] SvgDocument render_layout(const core::SadpRouter& router,
                                        const LayoutWriterOptions& options = {});

/// Render with redundant vias from a DVI result overlaid.
[[nodiscard]] SvgDocument render_layout_with_dvi(
    const core::SadpRouter& router, const core::DviProblem& problem,
    const std::vector<int>& inserted, const std::vector<grid::Point>& inserted_at,
    const LayoutWriterOptions& options = {});

/// Render the synthesized core + cut/trim masks of one layer decomposition
/// (mask units; Fig. 1/4 style).
[[nodiscard]] SvgDocument render_masks(const litho::LayerDecomposition& decomposition);

}  // namespace sadp::viz
