// End-to-end experiment flow: SADP-aware detailed routing followed by
// post-routing TPL-aware DVI, producing one row of the paper's tables.
//
// Every flow ends in the same DVI stage: run_flow (a full route) and
// run_eco_flow (an ECO re-route, core/eco.hpp) both finish through
// run_dvi_tail, and `sadp_route --dvi-only` solves a saved solution's
// problem through run_post_routing_dvi, so one solver switch and one
// degradation policy serve all three.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dvi_ilp.hpp"
#include "core/params.hpp"
#include "core/router.hpp"
#include "netlist/netlist.hpp"
#include "util/status.hpp"

namespace sadp::core {

enum class DviMethod { kIlp, kHeuristic, kExact };

[[nodiscard]] constexpr const char* dvi_method_name(DviMethod m) noexcept {
  switch (m) {
    case DviMethod::kIlp: return "ILP";
    case DviMethod::kHeuristic: return "heuristic";
    case DviMethod::kExact: return "exact";
  }
  return "?";
}

/// Inverse of dvi_method_name, exact case ("ILP", "heuristic", "exact"),
/// as requests and journals spell a method.
[[nodiscard]] constexpr std::optional<DviMethod> parse_dvi_method(
    std::string_view name) noexcept {
  for (const DviMethod m :
       {DviMethod::kIlp, DviMethod::kHeuristic, DviMethod::kExact}) {
    if (name == dvi_method_name(m)) return m;
  }
  return std::nullopt;
}

/// One table row: routing metrics plus post-routing DVI metrics.
struct ExperimentResult {
  std::string benchmark;
  RoutingReport routing;
  DviResult dvi;               ///< #DV = dvi.dead_vias, #UV = dvi.uncolorable
  int single_vias = 0;         ///< DVI problem size
  std::size_t dvi_candidates = 0;
  ilp::SolveStatus ilp_status = ilp::SolveStatus::kUnknown;  ///< ILP runs only
};

struct FlowConfig {
  FlowOptions options;
  DviMethod dvi_method = DviMethod::kIlp;
  double ilp_time_limit_seconds = 120.0;
  /// Graceful degradation: when the ILP DVI solve fails to prove optimality
  /// (time limit, external cancel) or throws, keep the stage's Algorithm 3
  /// answer (the ILP's warm start) and mark the run degraded.  Off by
  /// default so the paper-faithful tables keep reporting the time-limited
  /// ILP rows.
  bool degrade_dvi_on_timeout = false;
};

/// Everything one post-routing DVI stage produces, regardless of solver.
struct DviStageOutput : DviSolution {
  ilp::SolveStatus status = ilp::SolveStatus::kUnknown;
  /// True when the configured solver failed and the stage fell back to the
  /// heuristic (FlowConfig::degrade_dvi_on_timeout).
  bool degraded = false;
};

/// A finished flow: the table row plus the router (and DVI geometry) that
/// produced it, for callers that validate, render or post-process the
/// solution.  Owns the router — `router` is never null after run_flow.
struct FlowRun {
  ExperimentResult result;
  /// DVI insertion locations, parallel to result.dvi.inserted.
  std::vector<grid::Point> dvi_inserted_at;
  std::unique_ptr<SadpRouter> router;
  /// Non-ok when the flow stopped early (cancel token fired): the routing
  /// and DVI fields then describe the partial state, not a finished run.
  util::Status status;
  /// True when the DVI stage degraded to the heuristic fallback.
  bool dvi_degraded = false;
};

/// Route the netlist and run post-routing DVI.
[[nodiscard]] FlowRun run_flow(const netlist::PlacedNetlist& netlist,
                               const FlowConfig& config);

/// Solve a caller-built DVI problem with config's method against the
/// routed design's via occupancy `vias`, degrading an ILP solve that cannot
/// prove optimality to its Algorithm 3 warm start when config asks for it.
[[nodiscard]] DviStageOutput run_post_routing_dvi(const via::ViaDb& vias,
                                                  const FlowConfig& config,
                                                  const DviProblem& problem);

/// The DVI problem of a routed design: over every net of `router`, or over
/// only the nets in `subset` when it is given (an ECO re-route solves just
/// the nets it ripped, so the solve cost scales with the delta, not the
/// design — DESIGN.md §16).
[[nodiscard]] DviProblem build_dvi_problem(
    const SadpRouter& router, const std::vector<grid::NetId>* subset);

/// The post-routing DVI stage of a routed run: build run.router's problem
/// over `subset` (as above), solve it, and fill run's DVI fields.  A cancel
/// token fired by the end sets run.status, naming `stage`.
void run_dvi_tail(FlowRun& run, const FlowConfig& config,
                  const std::vector<grid::NetId>* subset, const char* stage);

}  // namespace sadp::core
