// Shared helpers for the table-reproducing benchmark binaries.
//
// Every binary accepts:
//   --full        run the paper-scale benchmarks (default: scaled "_s" set)
//   --ckt NAME    restrict to one circuit (e.g. --ckt ecc)
//   --ilp-limit S per-instance ILP time limit in seconds
//   --jobs N      worker threads for the batch engine (0 = all cores)
//   --trace FILE  write a Chrome trace-event JSON of the batch
//
// Unknown flags are hard errors (exit 2), via util::ArgParser.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/flow_engine.hpp"
#include "netlist/bench_gen.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

namespace sadp::bench {

struct BenchArgs {
  bool full = false;
  std::string only_ckt;
  double ilp_limit = 15.0;
  int jobs = 0;        ///< engine workers; 0 = hardware_concurrency
  int partitions = 0;  ///< partition-parallel regions per job (0/1 = serial)
  bool quiet = false;
  std::string trace_path;  ///< Chrome trace-event JSON output (empty = off)
};

/// Register the shared flags on a parser (binaries may add their own).
inline void register_common_flags(util::ArgParser& parser, BenchArgs& args) {
  parser.add_flag("--full", &args.full,
                  "run the paper-scale benchmark set (default: scaled)");
  parser.add_string("--ckt", &args.only_ckt, "restrict to one circuit", "NAME");
  parser.add_double("--ilp-limit", &args.ilp_limit,
                    "per-instance ILP time limit in seconds, at most 1e9", "S");
  parser.add_int("--jobs", &args.jobs,
                 "worker threads for the batch engine (0 = all cores)", "N");
  parser.add_int("--partitions", &args.partitions,
                 "partition-parallel regions per job (0/1 = serial)", "K");
  parser.add_flag("--quiet", &args.quiet, "suppress per-job progress lines");
  parser.add_string("--trace", &args.trace_path,
                    "write a Chrome trace-event JSON of the batch "
                    "(chrome://tracing / Perfetto)",
                    "FILE");
}

/// Parse the shared flags; exits 2 on unknown flags or malformed values,
/// such as an --ilp-limit outside the deadlines' range (NaN never runs out).
inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  util::ArgParser parser("reproduce one of the paper's experiment tables");
  register_common_flags(parser, args);
  if (!parser.parse(argc, argv)) std::exit(2);
  if (!util::deadline_in_range(args.ilp_limit)) {
    std::fprintf(stderr, "--ilp-limit %s, got %g\n", util::kDeadlineRange,
                 args.ilp_limit);
    std::exit(2);
  }
  return args;
}

inline std::vector<netlist::BenchStats> selected_benchmarks(const BenchArgs& args) {
  auto rows = args.full ? netlist::paper_benchmarks() : netlist::scaled_benchmarks();
  if (!args.only_ckt.empty()) {
    std::vector<netlist::BenchStats> filtered;
    for (const auto& row : rows) {
      if (row.name == args.only_ckt || row.name == args.only_ckt + "_s") {
        filtered.push_back(row);
      }
    }
    rows = filtered;
  }
  return rows;
}

/// EngineOptions from the shared flags: worker count plus a progress
/// printer on stderr (stdout is reserved for the tables).  Failed jobs
/// always print a `status=<...>` line — even under --quiet — so smoke runs
/// can grep for `status=failed`.
inline engine::EngineOptions engine_options_from_args(const BenchArgs& args) {
  engine::EngineOptions options;
  options.num_workers = args.jobs;
  const bool quiet = args.quiet;
  options.on_job_done = [quiet](const engine::JobOutcome& outcome,
                                std::size_t done, std::size_t total) {
    if (!outcome.ok()) {
      std::fprintf(stderr, "[%zu/%zu] %s%s%s: status=%s (%s)\n", done, total,
                   outcome.label.c_str(), outcome.arm.empty() ? "" : " / ",
                   outcome.arm.c_str(),
                   engine::job_status_name(outcome.status),
                   outcome.error.to_string().c_str());
    } else if (!quiet) {
      std::fprintf(stderr, "[%zu/%zu] %s%s%s: %.2fs\n", done, total,
                   outcome.label.c_str(), outcome.arm.empty() ? "" : " / ",
                   outcome.arm.c_str(), outcome.metrics.total_seconds);
    }
  };
  return options;
}

/// Engine configured from the shared flags (engine_options_from_args).
inline engine::FlowEngine make_engine(const BenchArgs& args) {
  return engine::FlowEngine(engine_options_from_args(args));
}

/// The FlowConfig every table job starts from: one experiment arm is fully
/// described by (style, DVI consideration, TPL consideration, DVI solver),
/// and the shared --ilp-limit bounds whatever solver runs.  Binaries that
/// sweep cost parameters overlay `config.options.cost` afterwards.
inline core::FlowConfig flow_config_from_args(const BenchArgs& args,
                                              grid::SadpStyle style,
                                              bool consider_dvi,
                                              bool consider_tpl,
                                              core::DviMethod dvi_method) {
  core::FlowConfig config;
  config.options.style = style;
  config.options.consider_dvi = consider_dvi;
  config.options.consider_tpl = consider_tpl;
  config.dvi_method = dvi_method;
  config.ilp_time_limit_seconds = args.ilp_limit;
  if (args.partitions > 0) config.options.partitions = args.partitions;
  return config;
}

/// Run the batch and write bench_results/<stem>.{json,csv} next to the
/// text tables.  Exits 1 immediately when the metrics files cannot be
/// written (a bench run whose trajectory files are missing is a failed
/// run, not a quietly-degraded one).
inline engine::BatchResult run_batch(const BenchArgs& args,
                                     const std::string& stem,
                                     std::vector<engine::FlowJob> jobs) {
  util::Timer wall;
  obs::TraceSession trace;
  if (!args.trace_path.empty()) trace.install();
  engine::BatchResult batch = make_engine(args).run(std::move(jobs));
  if (!args.trace_path.empty()) {
    trace.uninstall();  // engine workers are joined; safe to merge
    const util::Status written = trace.write_json(args.trace_path);
    if (!written.is_ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n",
                   written.to_string().c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "trace: %s (%zu events)\n", args.trace_path.c_str(),
                 trace.event_count());
  }
  const int workers = engine::FlowEngine::resolve_workers(args.jobs);
  std::string path;
  const util::Status written =
      engine::write_metrics_files("bench_results", stem, batch.outcomes,
                                  workers, wall.seconds(), &path);
  if (!written.is_ok()) {
    std::fprintf(stderr, "cannot write metrics: %s\n",
                 written.to_string().c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "metrics: %s (%d workers, %.2fs wall)\n", path.c_str(),
               workers, wall.seconds());
  return batch;
}

}  // namespace sadp::bench
