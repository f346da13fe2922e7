// Tests of the JSON writer, design statistics and report rendering, and
// the flow's DVI method dispatch.
#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/report.hpp"
#include "netlist/bench_gen.hpp"
#include "util/json.hpp"
#include "viz/layout_writer.hpp"

namespace sadp {
namespace {

TEST(Json, ObjectsArraysAndEscaping) {
  util::JsonWriter json;
  json.begin_object();
  json.key("name").value("a\"b\\c\nd");
  json.key("n").value(42);
  json.key("pi").value(3.25);
  json.key("ok").value(true);
  json.key("list").begin_array();
  json.value(1).value(2);
  json.begin_object();
  json.key("nested").value("x");
  json.end_object();
  json.end_array();
  json.end_object();

  EXPECT_EQ(json.str(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"n\":42,\"pi\":3.25,\"ok\":true,"
            "\"list\":[1,2,{\"nested\":\"x\"}]}");
}

TEST(Json, EscapeControlCharacters) {
  EXPECT_EQ(util::JsonWriter::escape(std::string("\x01")), "\\u0001");
  EXPECT_EQ(util::JsonWriter::escape("\t"), "\\t");
}

struct FlowFixture {
  netlist::PlacedNetlist instance;
  std::unique_ptr<core::SadpRouter> router;
  core::ExperimentResult result;

  FlowFixture() {
    netlist::BenchSpec spec;
    spec.name = "report_itest";
    spec.width = 48;
    spec.height = 48;
    spec.num_nets = 30;
    spec.seed = 5;
    instance = netlist::generate(spec);
    core::FlowConfig config;
    config.options.consider_dvi = true;
    config.options.consider_tpl = true;
    config.dvi_method = core::DviMethod::kHeuristic;
    core::FlowRun run = core::run_flow(instance, config);
    result = std::move(run.result);
    router = std::move(run.router);
  }
};

TEST(Report, DesignStatsAreConsistent) {
  FlowFixture f;
  const core::DesignStats stats = core::collect_design_stats(*f.router);

  // Segment counts across layers match the reported wirelength.
  long long segments = 0;
  for (const auto& layer : stats.layers) {
    segments += layer.wire_segments;
    EXPECT_GE(layer.wire_segments, layer.preferred_segments);
    EXPECT_GE(layer.utilization, 0.0);
    EXPECT_LE(layer.utilization, 1.0);
  }
  EXPECT_EQ(segments, f.result.routing.wirelength);

  // Via counts match.
  long long vias = 0;
  for (const long long count : stats.vias_per_layer) vias += count;
  EXPECT_EQ(vias, f.result.routing.via_count);

  // Histogram covers every single via.
  long long histogram_total = 0;
  for (const long long count : stats.dvic_histogram) histogram_total += count;
  EXPECT_EQ(histogram_total, f.result.single_vias);
}

TEST(Report, TextRender) {
  FlowFixture f;
  const core::DesignStats stats = core::collect_design_stats(*f.router);

  const std::string text = core::render_text_report(f.result, stats);
  EXPECT_NE(text.find("routability: 100%"), std::string::npos);
  EXPECT_NE(text.find("metal 2"), std::string::npos);
}

TEST(Report, PhaseTimingsSumBelowTotal) {
  FlowFixture f;
  const auto& r = f.result.routing;
  EXPECT_GE(r.initial_routing_seconds, 0.0);
  EXPECT_LE(r.initial_routing_seconds + r.congestion_rr_seconds +
                r.tpl_rr_seconds + r.coloring_seconds,
            r.route_seconds + 0.05);
}

TEST(Flow, ExactMethodDispatch) {
  netlist::BenchSpec spec;
  spec.name = "flow_exact_itest";
  spec.width = 40;
  spec.height = 40;
  spec.num_nets = 20;
  const netlist::PlacedNetlist instance = netlist::generate(spec);
  core::FlowConfig config;
  config.options.consider_dvi = true;
  config.options.consider_tpl = true;
  config.dvi_method = core::DviMethod::kExact;
  const core::ExperimentResult result = core::run_flow(instance, config).result;
  EXPECT_TRUE(result.routing.routed_all);
  EXPECT_EQ(result.ilp_status, ilp::SolveStatus::kOptimal);
  EXPECT_EQ(result.dvi.uncolorable, 0);
}

TEST(Viz, SvgRendersValidDocument) {
  FlowFixture f;
  viz::LayoutWriterOptions options;
  options.clip_hi_x = 20;
  options.clip_hi_y = 20;
  const viz::SvgDocument doc = viz::render_layout(*f.router, options);
  const std::string svg = doc.to_string();
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<line"), std::string::npos);   // wires
  EXPECT_NE(svg.find("<circle"), std::string::npos); // vias
  // Every <g> closed.
  std::size_t opens = 0, closes = 0, pos = 0;
  while ((pos = svg.find("<g ", pos)) != std::string::npos) { ++opens; pos += 3; }
  pos = 0;
  while ((pos = svg.find("</g>", pos)) != std::string::npos) { ++closes; pos += 4; }
  EXPECT_EQ(opens, closes);
}

TEST(Viz, MaskRenderShowsViolations) {
  litho::LayerPattern pattern;
  // A forbidden turn at a class where SIM forbids NE.
  grid::Point corner{11, 10};  // class (1,0): NE forbidden in SIM
  pattern.points.push_back(
      {corner, static_cast<grid::ArmMask>(grid::arm_bit(grid::Dir::kEast) |
                                          grid::arm_bit(grid::Dir::kNorth))});
  pattern.points.push_back({{12, 10}, grid::arm_bit(grid::Dir::kWest)});
  pattern.points.push_back({{11, 11}, grid::arm_bit(grid::Dir::kSouth)});
  const auto decomposition =
      litho::decompose_layer(pattern, grid::SadpStyle::kSim);
  ASSERT_FALSE(decomposition.violations.empty());
  const std::string svg = viz::render_masks(decomposition).to_string();
  EXPECT_NE(svg.find("violations"), std::string::npos);
}

}  // namespace
}  // namespace sadp
