// sadp_route — command-line front end for the full flow.
//
// Route a netlist (file or generated benchmark), run post-routing TPL-aware
// DVI, optionally validate, save the solution, and render an SVG:
//
//   sadp_route --netlist design.nl --style SIM --dvi-method heuristic
//              --save-solution out.sol --svg out.svg
//   sadp_route --benchmark ecc_s --validate
//
// Batch mode: `--benchmark` takes a comma-separated list (or `all` for the
// whole set); the jobs run concurrently on the FlowEngine thread pool:
//
//   sadp_route --benchmark all --jobs 8 --json-report metrics.json
//
// Or run DVI standalone on a previously saved solution:
//
//   sadp_route --dvi-only out.sol --dvi-method exact --ilp-limit 60
//
// Incremental ECO re-route (warm-start from a saved base solution, rip up
// only the nets the change list dirties — DESIGN.md section 16):
//
//   sadp_route --benchmark ecc_s --delta --base-solution base.sol
//              --move-pin "3,1,10,12" --add-blockage "4,4,9,9" --validate
//
// Remote: --connect HOST:PORT sends the same request to a running
// sadp_routed daemon or sadp_route_dispatch front instead of running it
// here; rows stream back into the same table.  --control VERB sends one
// control-plane line instead: ping, stats, metrics, drain, schemas, or
// failpoints, which arms the server's fault sites from --failpoints (or
// clears them when it is empty):
//
//   sadp_route --connect 127.0.0.1:7471 --benchmark all --keep-going
//   sadp_route --connect 127.0.0.1:7471 --benchmark ecc_s --delta
//              --base-solution base.sol --move-pin "3,1,10,12"
//   sadp_route --connect 127.0.0.1:7470 --control stats
//
// Exit codes: 0 when every row is usable, 1 on a failed row or a transport
// or server error, 2 on bad flags.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "core/dvi_exact.hpp"
#include "core/dvi_heuristic.hpp"
#include "core/dvi_ilp.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "core/solution_io.hpp"
#include "core/validate.hpp"
#include "engine/flow_engine.hpp"
#include "netlist/bench_gen.hpp"
#include "netlist/io.hpp"
#include "obs/trace.hpp"
#include "server/route_client.hpp"
#include "util/args.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "viz/layout_writer.hpp"

namespace {

using namespace sadp;

struct CliOptions {
  std::string netlist_path;
  std::string benchmark;  ///< comma-separated names, or "all"
  std::string dvi_only_path;
  std::string save_solution_path;
  std::string svg_path;
  std::string json_report_path;
  bool print_stats = false;
  bool validate = false;
  bool full_scale = false;
  /// The batch flags, and the per-job flags every named job copies.
  api::FlowRequest request;
  api::JobRequest job;
  std::string trace_path;  ///< Chrome trace-event JSON output (empty = off)
  // Incremental ECO mode (--delta): warm-start from a saved base solution.
  bool delta = false;
  std::string base_solution_path;  ///< --base-solution FILE
  bool wire = false;  ///< print the raw response wire lines (smoke tests)
  std::string move_pins;    ///< "net,pin,x,y" specs, ';'-separated
  std::string remove_nets;  ///< base net ids, ';'-separated
  std::string add_nets;     ///< "name:x,y,x,y,..." specs, ';'-separated
  std::string blockages;    ///< "x0,y0,x1,y1" rects, ';'-separated
  // Remote mode (--connect): send the request to a daemon or dispatcher.
  std::optional<server::HostPort> remote;
  std::string control;  ///< --control verb (needs --connect)
  server::RetryOptions retry;
  bool trace_context = false;
  std::string failpoints_spec;  ///< armed here, or sent by --control
  std::uint64_t failpoints_seed = 0;
};

// Fault site (util/failpoint.hpp): solution/report file writes.
util::FailPoint g_fp_solution_write("solution.write");

std::optional<CliOptions> parse_cli(int argc, char** argv) {
  CliOptions options;
  std::string style = "SIM";
  std::string method = "heuristic";
  bool no_dvi = false;
  bool no_tpl = false;

  util::ArgParser parser(
      "SADP-aware detailed routing with post-routing TPL-aware DVI");
  parser.add_string("--netlist", &options.netlist_path, "route a netlist file",
                    "FILE");
  parser.add_string("--benchmark", &options.benchmark,
                    "route generated benchmark(s); comma-separated, or 'all'",
                    "NAMES");
  parser.add_string("--dvi-only", &options.dvi_only_path,
                    "run DVI on a saved solution", "FILE");
  parser.add_flag("--delta", &options.delta,
                  "incremental ECO re-route: warm-start the --netlist/"
                  "--benchmark job from --base-solution and rip up only the "
                  "nets the change list dirties");
  parser.add_string("--base-solution", &options.base_solution_path,
                    "saved base routing the ECO patches (--delta)", "FILE");
  parser.add_string("--move-pin", &options.move_pins,
                    "ECO edit(s): net,pin,x,y (';'-separated)", "SPEC");
  parser.add_string("--remove-net", &options.remove_nets,
                    "ECO edit(s): base net id(s) to remove (';'-separated)",
                    "N");
  parser.add_string("--add-net", &options.add_nets,
                    "ECO edit(s): name:x,y,x,y,... (';'-separated)", "SPEC");
  parser.add_string("--add-blockage", &options.blockages,
                    "ECO edit(s): x0,y0,x1,y1 cell rect (';'-separated)",
                    "RECT");
  parser.add_flag("--wire", &options.wire,
                  "ECO mode: print the raw response wire lines (row, delta, "
                  "batch) instead of the human summary");
  parser.add_string("--style", &style, "SIM, SID, SAQP-SIM or SIM-TRIM", "STYLE");
  parser.add_string("--dvi-method", &method, "heuristic, exact or ilp (ILP)",
                    "M");
  parser.add_double("--ilp-limit", &options.job.ilp_limit_seconds,
                    "DVI solver time limit in seconds", "S");
  parser.add_int("--jobs", &options.request.workers,
                 "worker threads for batch runs (0 = all cores; a server "
                 "caps this to its pool)",
                 "N");
  parser.add_int("--partitions", &options.job.partitions,
                 "partition-parallel regions per job (0/1 = serial)", "K");
  parser.add_double("--deadline", &options.job.deadline_seconds,
                    "per-job wall-clock deadline in seconds (0 = none)", "S");
  parser.add_double("--batch-deadline", &options.request.batch_deadline_seconds,
                    "whole-batch wall-clock deadline in seconds (0 = none)",
                    "S");
  parser.add_flag("--keep-going", &options.request.keep_going,
                  "batch: keep running after a job fails (default fails fast)");
  parser.add_flag("--degrade-dvi", &options.job.degrade_dvi,
                  "fall back to heuristic DVI when the ILP solver times out");
  parser.add_string("--journal", &options.request.journal_path,
                    "append per-job records to a crash-safe JSONL journal "
                    "(a server-side path with --connect)",
                    "FILE");
  parser.add_flag("--resume", &options.request.resume,
                  "skip jobs already recorded in the --journal file");
  std::string journal_sync = "batch";
  parser.add_string("--journal-sync", &journal_sync,
                    "journal fsync policy: none, batch or always", "POLICY");
  parser.add_string("--failpoints", &options.failpoints_spec,
                    "arm deterministic fault sites here, or in the server "
                    "with --control failpoints "
                    "(e.g. journal.append=err@0.3;engine.job=delay(50ms))",
                    "SPEC");
  parser.add_uint64("--failpoints-seed", &options.failpoints_seed,
                    "base seed for failpoint probability draws", "SEED");
  parser.add_string("--trace", &options.trace_path,
                    "write a Chrome trace-event JSON of the run "
                    "(chrome://tracing / Perfetto)",
                    "FILE");
  parser.add_flag("--no-dvi", &no_dvi, "disable DVI consideration in routing");
  parser.add_flag("--no-tpl", &no_tpl, "disable via-layer TPL consideration");
  parser.add_string("--save-solution", &options.save_solution_path,
                    "write the routed solution", "FILE");
  parser.add_string("--svg", &options.svg_path, "render the layout", "FILE");
  parser.add_string("--json-report", &options.json_report_path,
                    "write a JSON report (single run) or engine metrics (batch)",
                    "FILE");
  parser.add_flag("--stats", &options.print_stats, "print the design statistics");
  parser.add_flag("--validate", &options.validate,
                  "validate the routing and DVI solution(s)");
  parser.add_flag("--full", &options.full_scale,
                  "paper-scale benchmarks (default: scaled)");
  std::string connect;
  parser.add_string("--connect", &connect,
                    "send the request to a running sadp_routed or "
                    "sadp_route_dispatch instead of running it here",
                    "HOST:PORT");
  parser.add_string("--control", &options.control,
                    "with --connect: send one control verb instead (ping, "
                    "stats, metrics, drain, schemas or failpoints)",
                    "VERB");
  parser.add_int("--retries", &options.retry.retries,
                 "retry a resource_exhausted rejection up to N times with "
                 "jittered exponential backoff (default 0 = give up)",
                 "N");
  parser.add_int("--retry-max-ms", &options.retry.max_delay_ms,
                 "backoff cap per retry in milliseconds", "MS");
  parser.add_flag("--trace-context", &options.trace_context,
                  "mint a trace_id + per-job span_ids on the request (for "
                  "daemons reached directly; the dispatcher mints its own)");
  if (!parser.parse(argc, argv)) return std::nullopt;

  options.job.consider_dvi = !no_dvi;
  options.job.consider_tpl = !no_tpl;

  const auto parsed_style = grid::parse_style(style);
  if (!parsed_style) {
    std::fprintf(stderr, "unknown style: %s\n", style.c_str());
    return std::nullopt;
  }
  options.job.style = *parsed_style;
  // "ilp" is the spelling the README uses; requests and journals say "ILP".
  const auto parsed_method = method == "ilp"
                                 ? std::optional(core::DviMethod::kIlp)
                                 : core::parse_dvi_method(method);
  if (!parsed_method) {
    std::fprintf(stderr, "unknown dvi method: %s\n", method.c_str());
    return std::nullopt;
  }
  options.job.dvi_method = *parsed_method;

  if (!connect.empty()) {
    options.remote = server::parse_host_port(connect);
    if (!options.remote) {
      std::fprintf(stderr, "bad --connect address '%s' (want HOST:PORT)\n",
                   connect.c_str());
      return std::nullopt;
    }
    const std::pair<const char*, bool> local_only[] = {
        {"--dvi-only", !options.dvi_only_path.empty()},
        {"--save-solution", !options.save_solution_path.empty()},
        {"--svg", !options.svg_path.empty()},
        {"--validate", options.validate},
        {"--stats", options.print_stats},
        {"--json-report", !options.json_report_path.empty()},
        {"--wire", options.wire},
        {"--trace", !options.trace_path.empty()},
    };
    for (const auto& [flag, set] : local_only) {
      if (set) {
        std::fprintf(stderr, "%s needs a local run, not --connect\n", flag);
        return std::nullopt;
      }
    }
  } else if (!options.control.empty()) {
    std::fprintf(stderr, "--control needs --connect HOST:PORT\n");
    return std::nullopt;
  }

  const int sources = (!options.netlist_path.empty()) +
                      (!options.benchmark.empty()) +
                      (!options.dvi_only_path.empty());
  if (sources != 1 && options.control.empty()) {
    std::fprintf(stderr,
                 "exactly one of --netlist, --benchmark, --dvi-only required\n");
    return std::nullopt;
  }
  if (options.request.resume && options.request.journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal FILE\n");
    return std::nullopt;
  }
  if (options.delta) {
    if (options.base_solution_path.empty()) {
      std::fprintf(stderr, "--delta requires --base-solution FILE\n");
      return std::nullopt;
    }
    if (!options.dvi_only_path.empty()) {
      std::fprintf(stderr, "--delta needs --netlist or --benchmark\n");
      return std::nullopt;
    }
  } else if (!options.base_solution_path.empty() || options.wire ||
             !options.move_pins.empty() || !options.remove_nets.empty() ||
             !options.add_nets.empty() || !options.blockages.empty()) {
    std::fprintf(stderr, "ECO flags need --delta\n");
    return std::nullopt;
  }
  const auto sync = engine::parse_journal_sync(journal_sync);
  if (!sync) {
    std::fprintf(stderr, "unknown --journal-sync policy: %s\n",
                 journal_sync.c_str());
    return std::nullopt;
  }
  options.request.journal_sync = *sync;
  // `--control failpoints` sends the spec to the server instead.
  if (!options.failpoints_spec.empty() && options.control != "failpoints") {
    const util::Status armed =
        util::FailPointRegistry::instance().configure(
            options.failpoints_spec, options.failpoints_seed);
    if (!armed.is_ok()) {
      std::fprintf(stderr, "bad --failpoints: %s\n", armed.to_string().c_str());
      return std::nullopt;
    }
  }
  return options;
}

int run_dvi_only(const CliOptions& options) {
  std::ifstream in(options.dvi_only_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", options.dvi_only_path.c_str());
    return 1;
  }
  std::string error;
  const auto solution = core::read_solution(in, &error);
  if (!solution) {
    std::fprintf(stderr, "parse error: %s\n", error.c_str());
    return 1;
  }

  grid::RoutingGrid routing(solution->width, solution->height,
                            solution->num_metal_layers);
  via::ViaDb vias(solution->width, solution->height,
                  solution->num_metal_layers - 1);
  if (const util::Status applied = core::apply_solution(*solution, routing, vias);
      !applied.is_ok()) {
    std::fprintf(stderr, "bad solution: %s\n", applied.to_string().c_str());
    return 1;
  }
  const grid::TurnRules rules = grid::TurnRules::for_style(solution->style);
  const core::DviProblem problem =
      core::build_dvi_problem(solution->nets, routing, rules);
  std::printf("loaded %s: %zu nets, %d single vias, %zu candidates\n",
              solution->name.c_str(), solution->nets.size(), problem.num_vias(),
              problem.total_candidates());

  core::DviResult result;
  switch (options.job.dvi_method) {
    case core::DviMethod::kHeuristic:
      result = core::run_dvi_heuristic(problem, vias, core::DviParams{}).result;
      break;
    case core::DviMethod::kExact: {
      core::DviExactParams params;
      params.time_limit_seconds = options.job.ilp_limit_seconds;
      result = core::solve_dvi_exact(problem, vias, params).result;
      break;
    }
    case core::DviMethod::kIlp: {
      core::DviIlpParams params;
      params.bnb.time_limit_seconds = options.job.ilp_limit_seconds;
      result = core::solve_dvi_ilp(problem, vias, params).result;
      break;
    }
  }
  std::printf("DVI (%s): dead vias %d / %d, uncolorable %d, %.2fs\n",
              core::dvi_method_name(options.job.dvi_method), result.dead_vias,
              problem.num_vias(), result.uncolorable, result.seconds);
  return 0;
}

/// The request every run sends, in-process or over --connect: the batch
/// flags plus one job per --benchmark name (`all` expands to the whole
/// set), labelled as given, or one --netlist job.
api::FlowRequest flow_request(const CliOptions& options) {
  api::FlowRequest request = options.request;
  std::vector<std::string> names = util::split_list(options.benchmark, ',');
  if (options.benchmark == "all") {
    names.clear();
    for (const auto& row : options.full_scale ? netlist::paper_benchmarks()
                                              : netlist::scaled_benchmarks()) {
      names.push_back(row.name);
    }
  }
  for (const std::string& name : names) {
    api::JobRequest& job = request.jobs.emplace_back(options.job);
    job.label = name;
    job.benchmark = name;
    job.scaled = !options.full_scale;
  }
  if (!options.netlist_path.empty()) {
    request.jobs.emplace_back(options.job).netlist_path = options.netlist_path;
  }
  return request;
}

/// Crash-safe file write (temp + rename) behind the solution.write fault
/// site; failures never leave a half-written file at `path`.
int write_file_atomically(const std::string& path, const std::string& content) {
  util::Status written = util::Status::ok();
  if (g_fp_solution_write.evaluate().kind == util::FailKind::kError) {
    written = util::Status::internal(
        "failpoint(solution.write): injected write failure");
  } else {
    written = util::atomic_write_file(path, content);
  }
  if (!written.is_ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 written.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// Every --validate check of a finished run that kept its router: the
/// routing, then the DVI solution against its problem rebuilt from that
/// router.  The problem spans every net, or only `dvi_nets` when given (an
/// ECO re-route solves just the nets it ripped).
std::vector<core::ValidationIssue> validate_outcome(
    const CliOptions& options, const netlist::PlacedNetlist& instance,
    const engine::JobOutcome& outcome,
    const std::vector<grid::NetId>* dvi_nets = nullptr) {
  const core::SadpRouter& router = *outcome.router;
  std::vector<core::ValidationIssue> issues =
      core::validate_routing(router, instance, options.job.consider_tpl);
  std::vector<core::RoutedNet> subset;
  if (dvi_nets != nullptr) {
    for (const grid::NetId id : *dvi_nets) {
      subset.push_back(router.nets()[static_cast<std::size_t>(id)]);
    }
  }
  const core::DviProblem problem =
      core::build_dvi_problem(dvi_nets != nullptr ? subset : router.nets(),
                              router.routing_grid(), router.turn_rules());
  const std::vector<core::ValidationIssue> dvi = core::check_dvi_solution(
      router, problem, outcome.result.dvi.inserted, outcome.dvi_inserted_at,
      options.job.consider_tpl);
  issues.insert(issues.end(), dvi.begin(), dvi.end());
  return issues;
}

/// Post-process one finished run: print, report, validate, save, render.
/// `dvi_nets` is as in validate_outcome.
int finish_single(const CliOptions& options, const netlist::PlacedNetlist& instance,
                  const engine::JobOutcome& outcome,
                  const std::vector<grid::NetId>* dvi_nets = nullptr) {
  if (!outcome.ok() || outcome.router == nullptr) {
    std::fprintf(stderr, "flow %s: %s\n",
                 engine::job_status_name(outcome.status),
                 outcome.error.to_string().c_str());
    return 1;
  }
  if (outcome.status == engine::JobStatus::kDegraded) {
    std::fprintf(stderr,
                 "note: ILP DVI hit its limit; results use the heuristic "
                 "fallback (--degrade-dvi)\n");
  }
  const core::ExperimentResult& result = outcome.result;
  const core::SadpRouter& router = *outcome.router;

  std::printf("routing: %s, WL %lld, vias %d, %.2fs, R&R iterations %zu\n",
              result.routing.routed_all ? "100%" : "INCOMPLETE",
              result.routing.wirelength, result.routing.via_count,
              result.routing.route_seconds, result.routing.rr_iterations);
  std::printf("via TPL: FVPs %zu, uncolorable %d\n", result.routing.remaining_fvps,
              result.routing.uncolorable_vias);
  std::printf("DVI (%s): dead vias %d / %d, uncolorable %d, %.2fs\n",
              core::dvi_method_name(options.job.dvi_method),
              result.dvi.dead_vias, result.single_vias, result.dvi.uncolorable,
              result.dvi.seconds);

  if (options.print_stats || !options.json_report_path.empty()) {
    const core::DesignStats stats = core::collect_design_stats(router);
    if (options.print_stats) {
      std::fputs(core::render_text_report(result, stats).c_str(), stdout);
    }
    if (!options.json_report_path.empty() &&
        write_file_atomically(options.json_report_path,
                              core::render_json_report(result, stats) + "\n") !=
            0) {
      return 1;
    }
  }

  int exit_code = result.routing.routed_all ? 0 : 1;
  if (options.validate) {
    const auto issues = validate_outcome(options, instance, outcome, dvi_nets);
    if (issues.empty()) {
      std::printf("validation: all checks passed\n");
    } else {
      for (const auto& issue : issues) {
        std::printf("validation issue: %s\n", issue.what.c_str());
      }
      exit_code = 1;
    }
  }

  if (!options.save_solution_path.empty()) {
    std::ostringstream out;
    core::write_solution(out, core::capture_solution(instance.name,
                                                     router.routing_grid(),
                                                     options.job.style,
                                                     router.nets()));
    if (write_file_atomically(options.save_solution_path, out.str()) != 0) {
      exit_code = 1;
    }
  }
  if (!options.svg_path.empty()) {
    viz::LayoutWriterOptions render;
    render.clip_hi_x = std::min(95, router.routing_grid().width() - 1);
    render.clip_hi_y = std::min(95, router.routing_grid().height() - 1);
    if (viz::render_layout(router, render).save(options.svg_path)) {
      std::printf("wrote %s\n", options.svg_path.c_str());
    }
  }
  return exit_code;
}

/// Materialize a job's instance here too: the banner, the exact parse
/// diagnostics and --validate need it; dispatch re-derives it from the same
/// deterministic source.
int load_instance(const api::JobRequest& job,
                  netlist::PlacedNetlist* instance) {
  if (!job.benchmark.empty()) {
    const auto spec = netlist::spec_for(job.benchmark, job.scaled);
    if (!spec) {
      std::fprintf(stderr, "unknown benchmark %s\n", job.benchmark.c_str());
      return 1;
    }
    *instance = netlist::generate(*spec);
    return 0;
  }
  std::ifstream in(job.netlist_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", job.netlist_path.c_str());
    return 1;
  }
  std::string error;
  auto parsed = netlist::read_netlist(in, &error);
  if (!parsed) {
    std::fprintf(stderr, "parse error: %s\n", error.c_str());
    return 1;
  }
  *instance = std::move(*parsed);
  return 0;
}

/// One stderr line per finished row, local or remote.
void print_progress(const engine::JobOutcome& outcome, std::size_t done,
                    std::size_t total) {
  std::fprintf(stderr, "[%zu/%zu] %s: status=%s %.2fs%s\n", done, total,
               outcome.label.c_str(), engine::job_status_name(outcome.status),
               outcome.metrics.total_seconds,
               outcome.from_journal ? " (resumed)" : "");
}

/// The result table of a batch, local or remote; a failed row's error goes
/// to stderr.
void print_table(const std::vector<engine::JobOutcome>& rows) {
  util::TextTable table(
      {"CKT", "status", "WL", "#Vias", "CPU(s)", "#DV", "#UV", "routed"});
  for (const auto& outcome : rows) {
    const core::ExperimentResult& r = outcome.result;
    table.begin_row();
    table.cell(outcome.label);
    table.cell(engine::job_status_name(outcome.status));
    table.cell(r.routing.wirelength);
    table.cell(r.routing.via_count);
    table.cell(r.routing.route_seconds, 1);
    table.cell(r.dvi.dead_vias);
    table.cell(r.dvi.uncolorable);
    table.cell(!outcome.ok() ? "-" : (r.routing.routed_all ? "100%" : "NO"));
    if (!outcome.ok()) {
      std::fprintf(stderr, "job %s %s: %s\n", outcome.label.c_str(),
                   engine::job_status_name(outcome.status),
                   outcome.error.to_string().c_str());
    }
  }
  table.print();
}

/// The line under every batch table.  `counts` is the local
/// engine::BatchResult or a remote batch's api::ResponseSummary; a remote
/// one names the server's workers and its result-cache hits.
template <typename Counts>
void print_summary(const Counts& counts, std::size_t jobs, int workers,
                   double wall_seconds) {
  constexpr bool kRemote = std::is_same_v<Counts, api::ResponseSummary>;
  std::printf(
      "%zu jobs on %d %sworkers in %.2fs wall (%zu ok, %zu degraded, "
      "%zu failed, %zu timeout, %zu cancelled, %zu resumed",
      jobs, workers, kRemote ? "server " : "", wall_seconds, counts.ok,
      counts.degraded, counts.failed, counts.timed_out, counts.cancelled,
      counts.resumed);
  if constexpr (kRemote) {
    std::printf(", cache %zu/%zu", counts.cache_hits,
                counts.cache_hits + counts.cache_misses);
  }
  std::printf(")\n");
}

/// What a --connect run prints: the rows that streamed back, the server's
/// summary, and for an ECO its "delta" line.  Rows arrive in completion
/// order; the table lists them in the order of `jobs`, as a local batch
/// does, so equal runs print equal tables.
int finish_remote(server::RemoteBatch batch,
                  const std::vector<api::JobRequest>& jobs) {
  if (!batch.status.is_ok()) {
    std::fprintf(stderr, "server error%s: %s\n",
                 batch.attempts > 1 ? " (after retries)" : "",
                 batch.status.to_string().c_str());
    return 1;
  }
  const auto rank = [&](const engine::JobOutcome& row) {
    return std::find_if(jobs.begin(), jobs.end(),
                        [&](const api::JobRequest& job) {
                          return api::effective_label(job) == row.label;
                        }) -
           jobs.begin();
  };
  std::stable_sort(
      batch.rows.begin(), batch.rows.end(),
      [&](const auto& a, const auto& b) { return rank(a) < rank(b); });
  print_table(batch.rows);
  const api::ResponseSummary& summary = batch.summary;
  print_summary(summary, summary.jobs, summary.workers, summary.wall_seconds);
  if (batch.delta_received) {
    std::printf("delta: %d/%d net(s) ripped, %d untouched, base=%s\n",
                batch.delta.nets_ripped, batch.delta.nets_total,
                batch.delta.nets_untouched,
                batch.delta.base_fingerprint.c_str());
  }
  return batch.all_ok() ? 0 : 1;
}

/// --control VERB: one control-plane round trip, its reply printed.
int run_control(const CliOptions& options) {
  const std::string& host = options.remote->host;
  const int port = options.remote->port;
  const std::string& verb = options.control;
  util::Status status;
  if (verb == "ping") {
    double uptime = 0.0;
    status = server::ping_remote(host, port, &uptime);
    if (status.is_ok()) std::printf("pong uptime=%.1fs\n", uptime);
  } else if (verb == "stats") {
    api::StatsReply stats;
    status = server::query_stats(host, port, &stats);
    if (status.is_ok()) {
      std::printf(
          "queue_depth=%zu active=%zu rejected=%zu cache_hits=%zu "
          "cache_misses=%zu pool=%d uptime=%.1fs draining=%s "
          "latency_p50_ms=%.3f latency_p99_ms=%.3f\n",
          stats.queue_depth, stats.active, stats.rejected, stats.cache_hits,
          stats.cache_misses, stats.pool_size, stats.uptime_seconds,
          stats.draining ? "yes" : "no", stats.latency_p50_ms,
          stats.latency_p99_ms);
      for (const auto& peer : stats.peers) {
        std::printf("peer %s: queue_depth=%d active=%d age=%.2fs alive=%s\n",
                    peer.addr.c_str(), peer.queue_depth, peer.active,
                    peer.age_seconds, peer.alive ? "yes" : "no");
      }
    }
  } else if (verb == "metrics") {
    std::string exposition;
    status = server::query_metrics(host, port, &exposition);
    if (status.is_ok()) std::fputs(exposition.c_str(), stdout);
  } else if (verb == "drain") {
    status = server::drain_remote(host, port);
    if (status.is_ok()) std::printf("draining\n");
  } else if (verb == "schemas") {
    api::SchemasReply schemas;
    status = server::query_schemas(host, port, &schemas);
    if (status.is_ok()) {
      std::printf("request:  %s\nresponse: %s\ncontrol:  %s\ndelta:    %s\n",
                  schemas.request.c_str(), schemas.response.c_str(),
                  schemas.control.c_str(),
                  schemas.delta.empty() ? "(unsupported)"
                                        : schemas.delta.c_str());
    }
  } else if (verb == "failpoints") {
    std::size_t armed = 0;
    status = server::configure_failpoints_remote(
        host, port, options.failpoints_spec, options.failpoints_seed, &armed);
    if (status.is_ok()) std::printf("failpoints armed=%zu\n", armed);
  } else {
    std::fprintf(stderr,
                 "unknown --control verb '%s' (want ping, stats, metrics, "
                 "drain, schemas or failpoints)\n",
                 verb.c_str());
    return 2;
  }
  if (!status.is_ok()) {
    std::fprintf(stderr, "%s failed: %s\n", verb.c_str(),
                 status.to_string().c_str());
    return 1;
  }
  return 0;
}

/// Incremental ECO mode (--delta): a FlowDeltaRequest from the one base job
/// plus the change-spec flags.  Remote, it goes over the wire with the base
/// solution inlined.  In-process, it either dumps the raw wire lines
/// (--wire, for byte-comparison against a daemon's stream in the smoke
/// tests) or post-processes like any single run.
int run_delta(const CliOptions& options, api::JobRequest base) {
  api::FlowDeltaRequest eco;
  eco.base = std::move(base);
  netlist::PlacedNetlist base_instance;
  if (options.remote) {
    // The server need not share this filesystem: send the text, not a path.
    std::ifstream in(options.base_solution_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n",
                   options.base_solution_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    eco.base_solution = text.str();
  } else {
    // --validate checks the re-route against the *edited* netlist derived
    // from the base instance.
    if (const int code = load_instance(eco.base, &base_instance); code != 0) {
      return code;
    }
    eco.base.label = base_instance.name;
    eco.base_solution_path = options.base_solution_path;
  }

  if (const util::Status parsed = api::parse_change_specs(
          options.move_pins, options.remove_nets, options.add_nets,
          options.blockages, &eco.changes);
      !parsed.is_ok()) {
    std::fprintf(stderr, "%s\n", parsed.to_string().c_str());
    return 2;
  }
  if (options.remote) {
    if (options.trace_context) {
      api::ensure_delta_trace_context(&eco);
      std::fprintf(stderr, "trace_id=%s\n", eco.trace_id.c_str());
    }
    return finish_remote(
        server::run_remote_retry(options.remote->host, options.remote->port,
                                 eco, options.retry, print_progress),
        {eco.base});
  }
  if (!options.wire) {
    std::printf("eco %s: %zu change(s), base %s...\n",
                base_instance.name.c_str(), eco.changes.size(),
                options.base_solution_path.c_str());
  }

  api::DeltaDispatchOptions hooks;
  hooks.keep_router = true;
  const api::DeltaDispatchResult run = api::dispatch_delta(eco, hooks);
  if (!run.status.is_ok()) {
    std::fprintf(stderr, "%s\n", run.status.message().c_str());
    return 1;
  }

  if (options.wire) {
    // The exact stream a daemon would send (modulo framing-only members the
    // smoke test normalizes: cache markers, timings, trace context).
    api::ResponseSummary summary;
    summary.jobs = 1;
    summary.workers = 1;
    summary.wall_seconds = run.wall_seconds;
    summary.tally(run.outcome.status);
    std::printf("%s\n%s\n%s\n",
                api::response_row_line(run.outcome, 1, 1).c_str(),
                api::response_delta_line(run.summary).c_str(),
                api::response_summary_line(summary).c_str());
    return run.outcome.ok() ? 0 : 1;
  }

  std::printf("eco: ripped %d/%d net(s), %d untouched, base %s, load %.2fs\n",
              run.summary.nets_ripped, run.summary.nets_total,
              run.summary.nets_untouched, run.summary.base_fingerprint.c_str(),
              run.summary.load_seconds);

  // --validate and the solution/SVG writers need the edited netlist; the
  // change list already applied cleanly inside dispatch_delta.
  core::EcoEditOutcome edit;
  if (const util::Status edited =
          core::apply_eco_changes(base_instance, eco.changes, &edit);
      !edited.is_ok()) {
    std::fprintf(stderr, "%s\n", edited.to_string().c_str());
    return 1;
  }
  return finish_single(options, edit.edited, run.outcome, &run.summary.ripped_ids);
}

/// Batch mode: several benchmarks through the engine, summary table + metrics.
int run_batch(const CliOptions& options, const api::FlowRequest& request) {
  api::DispatchOptions hooks;
  hooks.keep_router = options.validate;
  hooks.on_job_done = print_progress;
  const api::DispatchResult run = api::dispatch(request, hooks);
  if (!run.status.is_ok()) {
    std::fprintf(stderr, "%s\n", run.status.message().c_str());
    return 2;
  }
  const engine::BatchResult& batch = run.batch;
  if (batch.journal_skipped > 0) {
    std::fprintf(stderr,
                 "journal: skipped %zu torn/corrupt record(s) during resume\n",
                 batch.journal_skipped);
  }
  if (!batch.journal_error.is_ok()) {
    std::fprintf(stderr, "journal error: %s\n",
                 batch.journal_error.to_string().c_str());
  }

  int exit_code = batch.exit_code();
  for (const auto& outcome : batch.outcomes) {
    if (!outcome.ok()) continue;
    if (!outcome.result.routing.routed_all) exit_code = 1;
    if (options.validate && outcome.router != nullptr) {
      const netlist::PlacedNetlist instance = netlist::generate(
          *netlist::spec_for(outcome.label, !options.full_scale));
      for (const auto& issue : validate_outcome(options, instance, outcome)) {
        std::printf("validation issue (%s): %s\n", outcome.label.c_str(),
                    issue.what.c_str());
        exit_code = 1;
      }
    }
  }
  print_table(batch.outcomes);
  print_summary(batch, batch.outcomes.size(), run.workers, run.wall_seconds);

  if (!options.json_report_path.empty() &&
      write_file_atomically(options.json_report_path,
                            engine::metrics_json(batch.outcomes, run.workers,
                                                 run.wall_seconds) +
                                "\n") != 0) {
    return 1;
  }
  return exit_code;
}

/// Single-instance mode (one benchmark or a netlist file): a one-job request
/// with the router retained for validation/rendering; the row is labelled
/// with the instance name.
int run_single(const CliOptions& options, api::FlowRequest request) {
  api::JobRequest& job = request.jobs.front();
  netlist::PlacedNetlist instance;
  if (const int code = load_instance(job, &instance); code != 0) return code;
  std::printf("routing %s (%d nets, %dx%d, %s, dvi=%d tpl=%d)...\n",
              instance.name.c_str(), instance.num_nets(), instance.width,
              instance.height, grid::style_name(options.job.style),
              options.job.consider_dvi, options.job.consider_tpl);
  job.label = instance.name;

  api::DispatchOptions hooks;
  hooks.keep_router = true;
  const api::DispatchResult run = api::dispatch(request, hooks);
  if (!run.status.is_ok()) {
    std::fprintf(stderr, "%s\n", run.status.message().c_str());
    return 1;
  }
  return finish_single(options, instance, run.batch.outcomes[0]);
}

int dispatch(const CliOptions& options) {
  if (!options.control.empty()) return run_control(options);
  if (!options.dvi_only_path.empty()) return run_dvi_only(options);

  api::FlowRequest request = flow_request(options);
  if (request.jobs.empty()) {
    std::fprintf(stderr, "no benchmark names given\n");
    return 2;
  }
  if (options.delta) {
    if (request.jobs.size() != 1) {
      std::fprintf(stderr, "--delta needs a single --benchmark name\n");
      return 2;
    }
    return run_delta(options, std::move(request.jobs.front()));
  }
  if (options.remote) {
    if (options.trace_context) {
      api::ensure_trace_context(&request);
      std::fprintf(stderr, "trace_id=%s\n", request.trace_id.c_str());
    }
    return finish_remote(
        server::run_remote_retry(options.remote->host, options.remote->port,
                                 request, options.retry, print_progress),
        request.jobs);
  }
  if (request.jobs.size() == 1) return run_single(options, std::move(request));
  if (!options.save_solution_path.empty() || !options.svg_path.empty()) {
    std::fprintf(stderr,
                 "--save-solution/--svg apply to single-instance runs only\n");
    return 2;
  }
  return run_batch(options, request);
}

}  // namespace

int main(int argc, char** argv) {
  auto options = parse_cli(argc, argv);
  if (!options) return 2;
  // Work outside the engine's isolation boundary (benchmark generation for
  // --validate, solution loading, ...) can still throw; exit cleanly.
  try {
    if (options->trace_path.empty()) return dispatch(*options);

    obs::TraceSession session;
    session.install();
    const int code = dispatch(*options);
    // All engine workers are joined by now; merge and write the trace.
    session.uninstall();
    const util::Status written = session.write_json(options->trace_path);
    if (!written.is_ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n",
                   written.to_string().c_str());
      return code == 0 ? 1 : code;
    }
    std::printf("wrote %s (%zu events)\n", options->trace_path.c_str(),
                session.event_count());
    return code;
  } catch (const sadp::FlowError& e) {
    std::fprintf(stderr, "error: %s\n", e.status().to_string().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
