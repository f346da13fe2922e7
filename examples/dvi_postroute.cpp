// Post-routing TPL-aware DVI deep dive: routes a benchmark, then runs both
// the exact ILP (C1-C8, in-house branch & bound) and the Algorithm 3
// heuristic on the same routing solution, validating both and printing a
// per-via breakdown of the DVI problem (the paper's Section III-E).
//
//   ./build/examples/dvi_postroute [benchmark_name] [ilp_seconds]
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "core/dvi_exact.hpp"
#include "core/dvi_heuristic.hpp"
#include "core/dvi_ilp.hpp"
#include "core/flow.hpp"
#include "core/validate.hpp"
#include "netlist/bench_gen.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace sadp;
  const std::string name = argc > 1 ? argv[1] : "ecc_s";
  const double ilp_seconds = argc > 2 ? std::atof(argv[2]) : 20.0;

  const netlist::PlacedNetlist instance = netlist::generate_named(name, true);
  core::FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;

  core::SadpRouter router(instance, options);
  const core::RoutingReport routing = router.run();
  std::printf("routing %s: %s, WL=%lld, vias=%d (%.2fs)\n", instance.name.c_str(),
              routing.routed_all ? "100%" : "INCOMPLETE", routing.wirelength,
              routing.via_count, routing.route_seconds);

  const core::DviProblem problem = core::build_dvi_problem(
      router.nets(), router.routing_grid(), router.turn_rules());

  // Feasible-DVIC histogram: how fragile are the single vias?
  std::map<std::size_t, int> histogram;
  for (const auto& f : problem.feasible) ++histogram[f.size()];
  std::printf("\nfeasible-DVIC histogram over %d single vias:\n",
              problem.num_vias());
  for (const auto& [count, vias] : histogram) {
    std::printf("  %zu feasible DVIC(s): %d vias\n", count, vias);
  }

  // ILP (warm-started with the heuristic) vs the heuristic alone.  As in
  // the flow, one budget covers the heuristic and the ILP search.
  const util::SolverBudget ilp_budget(ilp_seconds, {});
  const core::DviHeuristicOutput heuristic =
      core::run_dvi_heuristic(problem, router.via_db());
  const core::DviIlpOutput ilp =
      core::solve_dvi_ilp(problem, &heuristic, ilp_budget);

  util::TextTable table({"method", "#DV", "#UV", "CPU(s)", "status", "valid"});
  table.begin_row();
  table.cell("ILP (C1-C8)");
  table.cell(ilp.result.dead_vias);
  table.cell(ilp.result.uncolorable);
  table.cell(ilp.result.seconds, 2);
  table.cell(ilp.status == ilp::SolveStatus::kOptimal ? "optimal" : "time-limit");
  table.cell(core::check_dvi_solution(router, problem, ilp.result.inserted,
                                      ilp.inserted_at)
                     .empty()
                 ? "yes"
                 : "NO");
  core::DviExactParams exact_params;
  exact_params.time_limit_seconds = ilp_seconds;
  const core::DviExactOutput exact =
      core::solve_dvi_exact(problem, router.via_db(), exact_params);
  table.begin_row();
  table.cell("exact (domain B&B)");
  table.cell(exact.result.dead_vias);
  table.cell(exact.result.uncolorable);
  table.cell(exact.result.seconds, 2);
  table.cell(exact.proven_optimal ? "optimal" : "time-limit");
  table.cell(core::check_dvi_solution(router, problem, exact.result.inserted,
                                      exact.inserted_at)
                     .empty()
                 ? "yes"
                 : "NO");
  table.begin_row();
  table.cell("heuristic (Alg. 3)");
  table.cell(heuristic.result.dead_vias);
  table.cell(heuristic.result.uncolorable);
  table.cell(heuristic.result.seconds, 3);
  table.cell("-");
  table.cell(core::check_dvi_solution(router, problem, heuristic.result.inserted,
                                      heuristic.inserted_at)
                     .empty()
                 ? "yes"
                 : "NO");
  std::printf("\n");
  table.print();

  std::printf("\nprotection rate: ILP %.2f%%, heuristic %.2f%%\n",
              100.0 * (problem.num_vias() - ilp.result.dead_vias) /
                  std::max(problem.num_vias(), 1),
              100.0 * (problem.num_vias() - heuristic.result.dead_vias) /
                  std::max(problem.num_vias(), 1));
  return 0;
}
