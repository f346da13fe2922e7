// Ablation studies of the design choices DESIGN.md calls out (not a paper
// table; the paper's Table V is the authors' own single ablation):
//
//   1. cost-assignment weights: each of alpha (BDC), AMC, beta (CDC) and
//      gamma (TPLC) zeroed individually — how much each contributes to the
//      dead-via reduction;
//   2. Algorithm 2 with and without hard FVP blocking of via locations
//      (cost-only vs cost+blocking);
//   3. DVI ILP with and without the heuristic warm start (anytime quality
//      under the same time limit).
//
// Defaults to one mid-size circuit; --ckt/--full as usual.  The flow-level
// variants (sections 1 and 2) run as one FlowEngine batch; metrics go to
// bench_results/ablation.{json,csv}.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/dvi_exact.hpp"
#include "core/dvi_heuristic.hpp"
#include "core/flow.hpp"
#include "util/table.hpp"

using namespace sadp;

int main(int argc, char** argv) {
  auto args = bench::parse_args(argc, argv);
  if (args.only_ckt.empty()) args.only_ckt = "ctl";
  const auto rows = bench::selected_benchmarks(args);
  if (rows.empty()) {
    std::fprintf(stderr, "unknown circuit\n");
    return 1;
  }
  const auto spec = netlist::spec_for(rows[0].name, !args.full);
  const netlist::PlacedNetlist instance = netlist::generate(*spec);
  std::printf("== Ablations on %s ==\n", instance.name.c_str());

  // --- 1 & 2. flow-level variants, one engine batch ---------------------------
  struct Variant {
    const char* label;
    core::CostParams cost;
  };
  core::CostParams base;
  std::vector<Variant> variants = {{"full scheme (Table II)", base}};
  {
    core::CostParams c = base;
    c.alpha = 0;
    variants.push_back({"alpha=0 (no BDC)", c});
  }
  {
    core::CostParams c = base;
    c.amc = 0;
    variants.push_back({"AMC=0 (no along-metal)", c});
  }
  {
    core::CostParams c = base;
    c.beta = 0;
    variants.push_back({"beta=0 (no CDC)", c});
  }
  {
    core::CostParams c = base;
    c.gamma = 0;
    variants.push_back({"gamma=0 (no TPLC)", c});
  }

  std::vector<engine::FlowJob> jobs;
  for (const auto& variant : variants) {
    engine::FlowJob job;
    job.label = instance.name;
    job.arm = variant.label;
    job.spec = *spec;
    job.config = bench::flow_config_from_args(args, grid::SadpStyle::kSim,
                                              true, true,
                                              core::DviMethod::kHeuristic);
    job.config.options.cost = variant.cost;
    jobs.push_back(std::move(job));
  }
  // Section 2: the TPL phase's contribution (off vs on).
  for (bool tpl : {false, true}) {
    engine::FlowJob job;
    job.label = instance.name;
    job.arm = tpl ? "with TPL phase (Alg. 2)" : "without TPL phase";
    job.spec = *spec;
    job.config = bench::flow_config_from_args(args, grid::SadpStyle::kSim,
                                              true, tpl,
                                              core::DviMethod::kHeuristic);
    jobs.push_back(std::move(job));
  }
  const engine::BatchResult batch =
      bench::run_batch(args, "ablation", std::move(jobs));
  const auto& outcomes = batch.outcomes;
  if (!batch.all_ok()) {
    std::fprintf(stderr, "ablation batch had failing jobs\n");
    return 1;
  }

  std::printf("\n-- cost-assignment knockouts (DVI by heuristic) --\n");
  util::TextTable t1({"variant", "WL", "#Vias", "CPU(s)", "#DV", "#UV", "rr iters"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const core::ExperimentResult& result = outcomes[v].result;
    t1.begin_row();
    t1.cell(variants[v].label);
    t1.cell(result.routing.wirelength);
    t1.cell(result.routing.via_count);
    t1.cell(result.routing.route_seconds, 2);
    t1.cell(result.dvi.dead_vias);
    t1.cell(result.dvi.uncolorable);
    t1.cell(static_cast<long long>(result.routing.rr_iterations));
  }
  t1.print();

  // Blocking cannot be toggled from the public options (it is part of the
  // algorithm); approximate the ablation by comparing the TPL arm against
  // the no-TPL arm's residual FVP count, which shows what the phase earns.
  std::printf("\n-- Algorithm 2 contribution (TPL phase off vs on) --\n");
  util::TextTable t2({"configuration", "FVPs left", "#UV (router)", "CPU(s)"});
  for (std::size_t i = 0; i < 2; ++i) {
    const engine::JobOutcome& outcome = outcomes[variants.size() + i];
    t2.begin_row();
    t2.cell(outcome.arm);
    t2.cell(static_cast<long long>(outcome.result.routing.remaining_fvps));
    t2.cell(outcome.result.routing.uncolorable_vias);
    t2.cell(outcome.result.routing.route_seconds, 2);
  }
  t2.print();

  // --- 3. ILP warm start ------------------------------------------------------
  std::printf("\n-- DVI ILP anytime quality, %gs limit --\n", args.ilp_limit);
  core::FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  core::SadpRouter router(instance, options);
  (void)router.run();
  const core::DviProblem problem = core::build_dvi_problem(
      router.nets(), router.routing_grid(), router.turn_rules());

  util::TextTable t3({"solver", "#DV", "#UV", "CPU(s)", "status"});
  const auto heuristic = core::run_dvi_heuristic(problem, router.via_db());
  for (const bool warm : {false, true}) {
    const util::SolverBudget budget(args.ilp_limit, {});
    const auto out =
        core::solve_dvi_ilp(problem, warm ? &heuristic : nullptr, budget);
    t3.begin_row();
    t3.cell(warm ? "ILP, heuristic warm start" : "ILP, cold start");
    t3.cell(out.result.dead_vias);
    t3.cell(out.result.uncolorable);
    t3.cell(out.result.seconds, 1);
    t3.cell(out.status == ilp::SolveStatus::kOptimal ? "optimal" : "time-limit");
    std::fflush(stdout);
  }
  t3.begin_row();
  t3.cell("heuristic (reference)");
  t3.cell(heuristic.result.dead_vias);
  t3.cell(heuristic.result.uncolorable);
  t3.cell(heuristic.result.seconds, 2);
  t3.cell("-");
  t3.print();

  // --- 4. wire-bending extension (distance-2 DVICs) ---------------------------
  std::printf("\n-- line-end-extension DVI (distance-2 candidates for "
              "otherwise-dead vias) --\n");
  core::DviProblemOptions extended;
  extended.allow_distance2 = true;
  const core::DviProblem problem_ex = core::build_dvi_problem(
      router.nets(), router.routing_grid(), router.turn_rules(), extended);
  const auto heuristic_ex =
      core::run_dvi_heuristic(problem_ex, router.via_db());
  util::TextTable t4({"candidate model", "#DV", "#UV", "candidates"});
  t4.begin_row();
  t4.cell("adjacent only (paper)");
  t4.cell(heuristic.result.dead_vias);
  t4.cell(heuristic.result.uncolorable);
  t4.cell(static_cast<long long>(problem.total_candidates()));
  t4.begin_row();
  t4.cell("+ distance-2 extension");
  t4.cell(heuristic_ex.result.dead_vias);
  t4.cell(heuristic_ex.result.uncolorable);
  t4.cell(static_cast<long long>(problem_ex.total_candidates()));
  t4.print();

  // --- 5. heuristic repair passes ---------------------------------------------
  std::printf("\n-- heuristic repair passes (extension; pass 0 = paper's "
              "Algorithm 3) --\n");
  util::TextTable t5({"repair passes", "#DV", "CPU(s)"});
  for (int passes : {0, 1, 2, 4}) {
    core::DviHeuristicOptions heuristic_options;
    heuristic_options.repair_passes = passes;
    const auto out =
        core::run_dvi_heuristic(problem, router.via_db(), heuristic_options);
    t5.begin_row();
    t5.cell(passes);
    t5.cell(out.result.dead_vias);
    t5.cell(out.result.seconds, 3);
  }
  t5.print();

  // Reference: the exact optimum.
  const auto exact_ref = core::solve_dvi_exact(problem, router.via_db());
  std::printf("exact optimum: #DV = %d (%s)\n", exact_ref.result.dead_vias,
              exact_ref.proven_optimal ? "proven" : "time-limited");
  return 0;
}
