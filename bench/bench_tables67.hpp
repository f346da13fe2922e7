// Shared driver for Tables VI (SIM) and VII (SID): solvers for the
// post-routing TPL-aware DVI problem, on routing solutions produced with
// both DVI and via-layer TPL consideration enabled.
//
// Three solvers are compared:
//   * "ILP": the literal C1-C8 formulation through the in-house 0-1 branch
//     & bound (the role Gurobi 6.5 plays in the paper) — warm-started and
//     time-limited; like the paper's Gurobi runs, this is the expensive
//     reference;
//   * "exact": the domain-specific exact branch & bound (dvi_exact.hpp),
//     which provably solves the same optimization (cross-checked in
//     tests/test_dvi.cpp) orders of magnitude faster;
//   * "heuristic": the paper's Algorithm 3.
//
// Each (circuit, solver) pair is one FlowEngine job (routing is
// deterministic, so the three solvers see identical routing solutions);
// every DVI solution is re-validated against the retained router.
#pragma once

#include <cstdio>

#include "bench_common.hpp"
#include "core/flow.hpp"
#include "core/validate.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace sadp::bench {

/// Returns the process exit code: non-zero when any job failed or any row's
/// DVI solution is not valid.
inline int run_tables67(grid::SadpStyle style, const BenchArgs& args,
                        const std::string& stem) {
  const auto benchmarks = selected_benchmarks(args);
  constexpr core::DviMethod kMethods[3] = {
      core::DviMethod::kIlp, core::DviMethod::kExact, core::DviMethod::kHeuristic};

  std::vector<engine::FlowJob> jobs;
  for (const auto& bench : benchmarks) {
    for (const core::DviMethod method : kMethods) {
      engine::FlowJob job;
      job.label = bench.name;
      job.arm = core::dvi_method_name(method);
      job.spec = *netlist::spec_for(bench.name, !args.full);
      job.config = flow_config_from_args(args, style, true, true, method);
      job.keep_router = true;
      jobs.push_back(std::move(job));
    }
  }
  const engine::BatchResult batch = run_batch(args, stem, std::move(jobs));
  const auto& outcomes = batch.outcomes;

  util::TextTable table({"CKT", "ILP #DV", "ILP CPU(s)", "Exact #DV",
                         "Exact CPU(s)", "Exact status", "Heu #DV", "Heu CPU(s)",
                         "#UV", "valid"});
  util::Accumulator ilp_dv, ilp_cpu, exact_dv, exact_cpu, heu_dv, heu_cpu;
  bool every_row_valid = true;

  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    const engine::JobOutcome& ilp = outcomes[b * 3 + 0];
    const engine::JobOutcome& exact = outcomes[b * 3 + 1];
    const engine::JobOutcome& heuristic = outcomes[b * 3 + 2];

    bool all_valid = true;
    for (const engine::JobOutcome* outcome : {&ilp, &exact, &heuristic}) {
      if (!outcome->ok() || outcome->router == nullptr) {
        all_valid = false;
        continue;
      }
      const core::DviProblem problem = core::build_dvi_problem(
          outcome->router->nets(), outcome->router->routing_grid(),
          outcome->router->turn_rules());
      all_valid = all_valid &&
                  core::check_dvi_solution(*outcome->router, problem,
                                           outcome->result.dvi.inserted,
                                           outcome->dvi_inserted_at)
                      .empty();
    }

    ilp_dv.add(ilp.result.dvi.dead_vias);
    ilp_cpu.add(ilp.result.dvi.seconds);
    exact_dv.add(exact.result.dvi.dead_vias);
    exact_cpu.add(exact.result.dvi.seconds);
    heu_dv.add(heuristic.result.dvi.dead_vias);
    heu_cpu.add(heuristic.result.dvi.seconds);

    const int uv = ilp.result.dvi.uncolorable + exact.result.dvi.uncolorable +
                   heuristic.result.dvi.uncolorable;
    table.begin_row();
    table.cell(benchmarks[b].name);
    table.cell(ilp.result.dvi.dead_vias);
    table.cell(ilp.result.dvi.seconds, 1);
    table.cell(exact.result.dvi.dead_vias);
    table.cell(exact.result.dvi.seconds, 2);
    table.cell(exact.result.ilp_status == ilp::SolveStatus::kOptimal
                   ? "optimal"
                   : "time-limit");
    table.cell(heuristic.result.dvi.dead_vias);
    table.cell(heuristic.result.dvi.seconds, 3);
    table.cell(uv);
    table.cell(all_valid ? "yes" : "NO");
    every_row_valid = every_row_valid && all_valid;
  }
  table.print();

  std::printf("\nAve.: ILP #DV %.1f (%.1fs) | exact #DV %.1f (%.2fs) | "
              "heuristic #DV %.1f (%.3fs)\n",
              ilp_dv.mean(), ilp_cpu.mean(), exact_dv.mean(), exact_cpu.mean(),
              heu_dv.mean(), heu_cpu.mean());
  if (heu_dv.mean() > 0 && heu_cpu.mean() > 0) {
    std::printf("Nor.: exact/heuristic #DV = %.2f; heuristic speedup vs "
                "literal ILP = %.0fx, vs exact = %.1fx\n",
                exact_dv.mean() / heu_dv.mean(), ilp_cpu.mean() / heu_cpu.mean(),
                exact_cpu.mean() / heu_cpu.mean());
  }
  return every_row_valid ? batch.exit_code() : 1;
}

}  // namespace sadp::bench
