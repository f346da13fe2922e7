#include "core/flow.hpp"

#include "core/dvi_exact.hpp"
#include "core/dvi_heuristic.hpp"
#include "obs/trace.hpp"

namespace sadp::core {

DviStageOutput run_post_routing_dvi(const via::ViaDb& vias,
                                    const FlowConfig& config,
                                    const DviProblem& problem) {
  DviStageOutput out;
  switch (config.dvi_method) {
    case DviMethod::kHeuristic: {
      obs::Span span("dvi:heuristic");
      static_cast<DviSolution&>(out) = run_dvi_heuristic(problem, vias);
      out.status = ilp::SolveStatus::kOptimal;
      break;
    }
    case DviMethod::kExact: {
      obs::Span span("dvi:exact");
      DviExactParams params;
      params.time_limit_seconds = config.ilp_time_limit_seconds;
      params.cancel = config.options.cancel;
      DviExactOutput exact = solve_dvi_exact(problem, vias, params);
      static_cast<DviSolution&>(out) = std::move(exact);
      out.status = exact.proven_optimal ? ilp::SolveStatus::kOptimal
                                        : ilp::SolveStatus::kFeasible;
      break;
    }
    case DviMethod::kIlp: {
      obs::Span span("dvi:ilp");
      // One budget and one Algorithm 3 run per stage: the clock starts
      // before the warm start, so the limit and the row's seconds cover
      // Algorithm 3, the C1-C8 build and the search.
      const util::SolverBudget budget(config.ilp_time_limit_seconds,
                                      config.options.cancel);
      DviHeuristicOutput heuristic = run_dvi_heuristic(problem, vias);
      // Degradation policy: an ILP solve that cannot prove optimality (time
      // limit, external cancel) or dies outright falls back to the warm
      // start, keeping the batch row usable at the cost of optimality.
      bool solver_failed = false;
      try {
        DviIlpOutput ilp = solve_dvi_ilp(problem, &heuristic, budget);
        static_cast<DviSolution&>(out) = std::move(ilp);
        out.status = ilp.status;
      } catch (const std::exception&) {
        if (!config.degrade_dvi_on_timeout) throw;
        solver_failed = true;
      }
      if (config.degrade_dvi_on_timeout &&
          (solver_failed || out.status != ilp::SolveStatus::kOptimal) &&
          !config.options.cancel.stop_requested()) {
        static_cast<DviSolution&>(out) = std::move(heuristic);
        out.result.seconds = budget.seconds();
        if (solver_failed) out.status = ilp::SolveStatus::kUnknown;
        out.degraded = true;
      }
      break;
    }
  }
  return out;
}

DviProblem build_dvi_problem(const SadpRouter& router,
                             const std::vector<grid::NetId>* subset) {
  std::vector<RoutedNet> subset_nets;
  if (subset != nullptr) {
    subset_nets.reserve(subset->size());
    for (const grid::NetId id : *subset) {
      subset_nets.push_back(router.nets()[static_cast<std::size_t>(id)]);
    }
  }
  return build_dvi_problem(subset != nullptr ? subset_nets : router.nets(),
                           router.routing_grid(), router.turn_rules());
}

void run_dvi_tail(FlowRun& run, const FlowConfig& config,
                  const std::vector<grid::NetId>* subset, const char* stage) {
  const SadpRouter& router = *run.router;
  obs::Span build_span("build_dvi_problem");
  const DviProblem problem = build_dvi_problem(router, subset);
  build_span.end();
  run.result.single_vias = problem.num_vias();
  run.result.dvi_candidates = problem.total_candidates();

  obs::Span dvi_span("dvi");
  DviStageOutput dvi = run_post_routing_dvi(router.via_db(), config, problem);
  dvi_span.end();
  run.result.dvi = std::move(dvi.result);
  run.result.ilp_status = dvi.status;
  run.dvi_inserted_at = std::move(dvi.inserted_at);
  run.dvi_degraded = dvi.degraded;
  const util::CancelToken& cancel = config.options.cancel;
  if (cancel.stop_requested()) run.status = cancel.status(stage);
}

FlowRun run_flow(const netlist::PlacedNetlist& netlist, const FlowConfig& config) {
  const util::CancelToken& cancel = config.options.cancel;
  FlowRun run;
  run.result.benchmark = netlist.name;

  run.router = std::make_unique<SadpRouter>(netlist, config.options);
  {
    obs::Span span("route");
    run.result.routing = run.router->run();
  }
  if (cancel.stop_requested()) {
    // The router stopped cooperatively mid-search; the report describes the
    // partial state.  Skip the DVI stage entirely.
    run.status = cancel.status("routing");
    return run;
  }

  run_dvi_tail(run, config, nullptr, "post-routing DVI");
  return run;
}

}  // namespace sadp::core
