// Render a routed benchmark (with DVI overlay) and a mask decomposition to
// SVG files for visual inspection.
//
//   ./build/examples/render_layout [benchmark] [out_prefix]
#include <cstdio>
#include <string>

#include "core/dvi_heuristic.hpp"
#include "core/flow.hpp"
#include "netlist/bench_gen.hpp"
#include "sadp/decomposition.hpp"
#include "viz/layout_writer.hpp"

int main(int argc, char** argv) {
  using namespace sadp;
  const std::string name = argc > 1 ? argv[1] : "ecc_s";
  const std::string prefix = argc > 2 ? argv[2] : "layout";

  const netlist::PlacedNetlist instance = netlist::generate_named(name, true);
  core::FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  core::SadpRouter router(instance, options);
  (void)router.run();

  const core::DviProblem problem = core::build_dvi_problem(
      router.nets(), router.routing_grid(), router.turn_rules());
  const core::DviHeuristicOutput dvi =
      core::run_dvi_heuristic(problem, router.via_db());

  viz::LayoutWriterOptions render;
  render.clip_hi_x = std::min(63, router.routing_grid().width() - 1);
  render.clip_hi_y = std::min(63, router.routing_grid().height() - 1);

  const auto with_dvi = viz::render_layout_with_dvi(
      router, problem, dvi.result.inserted, dvi.inserted_at, render);
  const std::string layout_path = prefix + "_" + name + ".svg";
  if (!with_dvi.save(layout_path)) {
    std::fprintf(stderr, "cannot write %s\n", layout_path.c_str());
    return 1;
  }
  std::printf("wrote %s (64x64 window; green rings = redundant vias, red "
              "rings = dead vias)\n", layout_path.c_str());

  // Also render the mask decomposition of a small L-shape for Fig. 4 flavour.
  litho::LayerPattern pattern;
  pattern.points.push_back(
      {{10, 10}, static_cast<grid::ArmMask>(grid::arm_bit(grid::Dir::kEast) |
                                            grid::arm_bit(grid::Dir::kNorth))});
  pattern.points.push_back({{11, 10}, grid::arm_bit(grid::Dir::kWest)});
  pattern.points.push_back({{10, 11}, grid::arm_bit(grid::Dir::kSouth)});
  const auto decomposition =
      litho::decompose_layer(pattern, grid::SadpStyle::kSim);
  const std::string mask_path = prefix + "_masks.svg";
  if (!viz::render_masks(decomposition).save(mask_path)) {
    std::fprintf(stderr, "cannot write %s\n", mask_path.c_str());
    return 1;
  }
  std::printf("wrote %s (blue = core/mandrel mask, orange = cut mask)\n",
              mask_path.c_str());
  return 0;
}
