// Property-style fuzzing of the whole flow: random instance shapes, styles
// and densities.  The invariants under test: whenever the router reports
// 100% routability, every independent validator passes; TPL arms always end
// FVP-free and colorable; DVI solutions are always legal.
#include <gtest/gtest.h>

#include "core/dvi_heuristic.hpp"
#include "core/flow.hpp"
#include "core/validate.hpp"
#include "netlist/bench_gen.hpp"
#include "util/rng.hpp"

namespace sadp::core {
namespace {

class FlowFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FlowFuzz, InvariantsHoldOnRandomInstances) {
  util::Xoshiro256StarStar rng(static_cast<std::uint64_t>(GetParam()) * 40111 + 9);

  netlist::BenchSpec spec;
  spec.name = "fuzz" + std::to_string(GetParam());
  spec.width = 32 + static_cast<int>(rng.below(48));
  spec.height = 32 + static_cast<int>(rng.below(48));
  // Density between sparse and fairly packed.
  const double nets_per_cell = 0.006 + rng.uniform() * 0.012;
  spec.num_nets = std::max(
      8, static_cast<int>(nets_per_cell * spec.width * spec.height));
  spec.local_radius = 6 + static_cast<int>(rng.below(14));
  spec.global_net_fraction = rng.uniform() * 0.08;
  spec.row_structured = rng.chance(0.3);
  spec.seed = rng();

  const netlist::PlacedNetlist instance = netlist::generate(spec);

  FlowOptions options;
  const auto style_pick = rng.below(3);
  options.style = style_pick == 0   ? grid::SadpStyle::kSim
                  : style_pick == 1 ? grid::SadpStyle::kSid
                                    : grid::SadpStyle::kSaqpSim;
  options.consider_dvi = rng.chance(0.7);
  options.consider_tpl = rng.chance(0.7);

  SadpRouter router(instance, options);
  const RoutingReport report = router.run();

  if (!report.routed_all) {
    // Legitimate on dense random instances; the router must still report
    // consistently (no silent success).
    EXPECT_TRUE(report.unrouted_nets > 0 || report.remaining_congestion > 0);
    return;
  }

  const auto issues =
      validate_routing(router, instance, /*expect_tpl_clean=*/options.consider_tpl);
  EXPECT_TRUE(issues.empty())
      << "seed " << GetParam() << " style " << grid::style_name(options.style)
      << ": " << issues.front().what;

  if (options.consider_tpl) {
    EXPECT_EQ(report.remaining_fvps, 0u) << "seed " << GetParam();
    EXPECT_EQ(report.uncolorable_vias, 0) << "seed " << GetParam();
  }

  // DVI legality holds whenever the input via layers are TPL-clean (the
  // no-TPL arms may carry uncolorable original vias, for which the global
  // colorability part of the check cannot apply).
  if (options.consider_tpl) {
    const DviProblem problem = build_dvi_problem(
        router.nets(), router.routing_grid(), router.turn_rules());
    const DviHeuristicOutput dvi = run_dvi_heuristic(problem, router.via_db());
    EXPECT_TRUE(check_dvi_solution(router, problem, dvi.result.inserted,
                                   dvi.inserted_at)
                    .empty())
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowFuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace sadp::core
