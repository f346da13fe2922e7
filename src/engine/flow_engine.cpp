#include "engine/flow_engine.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "engine/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace sadp::engine {

namespace {

// Fault sites (util/failpoint.hpp).  Zero-cost unless armed.
util::FailPoint g_fp_engine_job("engine.job");
util::FailPoint g_fp_metrics_write("metrics.write");

/// The journal/table key of a job before it has run.
std::string effective_label(const FlowJob& job) {
  if (!job.label.empty()) return job.label;
  if (job.netlist.has_value()) return job.netlist->name;
  return job.spec.name;
}

/// Execute one job with full fault isolation: everything the flow throws is
/// caught here and recorded as a failed outcome; a fired cancel token
/// reclassifies the failure as timeout/cancelled.
JobOutcome execute_job(FlowJob job, const util::CancelToken& batch_token) {
  util::Timer total;
  JobOutcome outcome;
  outcome.label = effective_label(job);
  outcome.arm = std::move(job.arm);
  outcome.style = job.config.options.style;
  outcome.dvi_method = job.config.dvi_method;

  // The trace gets one enclosing span per job (dynamic name — allocates
  // only when tracing on).
  obs::Span job_span(
      obs::tracing_enabled() ? "job:" + outcome.label : std::string());
  // Stamp propagated trace context on the job span; a merged fleet trace
  // joins this process's spans to the dispatcher's relay span through
  // these args.
  if (!job.trace_id.empty()) job_span.set_str("trace_id", job.trace_id);
  if (!job.span_id.empty()) job_span.set_str("span_id", job.span_id);

  // Per-job deadline composes with the batch token; with no deadline the
  // job still inherits batch cancellation.
  const util::CancelToken token =
      job.deadline_seconds > 0.0
          ? batch_token.child_with_deadline(job.deadline_seconds)
          : batch_token;
  job.config.options.cancel = token;

  try {
    if (const util::FailDecision fail = g_fp_engine_job.evaluate(); fail) {
      if (fail.kind == util::FailKind::kError) {
        throw FlowError(util::StatusCode::kInternal,
                        "failpoint(engine.job): injected job failure");
      }
      if (fail.kind == util::FailKind::kCancel) {
        throw FlowError(util::StatusCode::kCancelled,
                        "failpoint(engine.job): injected cancellation");
      }
    }

    util::Timer generate;
    netlist::PlacedNetlist local;
    const netlist::PlacedNetlist* instance = nullptr;
    if (job.netlist.has_value()) {
      instance = &*job.netlist;
    } else {
      obs::Span span("generate");
      local = netlist::generate(job.spec);  // throws FlowError on bad specs
      instance = &local;
    }
    outcome.metrics.generate_seconds = generate.seconds();

    core::FlowRun run = job.flow ? job.flow(*instance, job.config)
                                 : core::run_flow(*instance, job.config);
    outcome.result = std::move(run.result);
    if (job.keep_router) {
      outcome.router = std::move(run.router);
      outcome.dvi_inserted_at = std::move(run.dvi_inserted_at);
    }
    outcome.error = run.status;
    if (!run.status.is_ok()) {
      outcome.status = JobStatus::kFailed;  // reclassified below if token fired
    } else if (run.dvi_degraded) {
      outcome.status = JobStatus::kDegraded;
    }

    static_cast<core::RoutingReport&>(outcome.metrics) = outcome.result.routing;
    outcome.metrics.dvi_seconds = outcome.result.dvi.seconds;
  } catch (const FlowError& e) {
    outcome.status = JobStatus::kFailed;
    outcome.error = e.status();
  } catch (const std::exception& e) {
    outcome.status = JobStatus::kFailed;
    outcome.error = util::Status::internal(e.what());
  } catch (...) {
    outcome.status = JobStatus::kFailed;
    outcome.error = util::Status::internal("unknown exception");
  }

  if (outcome.status != JobStatus::kOk &&
      outcome.status != JobStatus::kDegraded) {
    if (token.stop_requested()) {
      // A cooperative abort surfaces as a partial run or an exception; the
      // token knows the real cause.
      outcome.status = token.reason() == util::StopReason::kDeadline
                           ? JobStatus::kTimeout
                           : JobStatus::kCancelled;
      if (outcome.error.is_ok()) outcome.error = token.status("flow");
    } else if (outcome.error.code() == util::StatusCode::kCancelled) {
      // A kCancelled error without the token firing (a flow that stopped
      // on its own terms, or the engine.job cancel failpoint) is still a
      // cancellation, not a failure.
      outcome.status = JobStatus::kCancelled;
    }
  }
  outcome.metrics.total_seconds = total.seconds();
  return outcome;
}

/// The outcome of a job that never ran: the job's header (label, arm,
/// style, DVI method, benchmark) with `status` and `error`.  A rejected
/// batch fails every job this way; a cancelled or drained one skips the
/// jobs no worker picked up.
JobOutcome unrun_outcome(const FlowJob& job, JobStatus status,
                         util::Status error) {
  JobOutcome outcome;
  outcome.label = effective_label(job);
  outcome.arm = job.arm;
  outcome.style = job.config.options.style;
  outcome.dvi_method = job.config.dvi_method;
  outcome.result.benchmark = outcome.label;
  outcome.status = status;
  outcome.error = std::move(error);
  return outcome;
}

}  // namespace

std::optional<JournalSync> parse_journal_sync(const std::string& name) noexcept {
  for (const JournalSync s :
       {JournalSync::kNone, JournalSync::kBatch, JournalSync::kAlways}) {
    if (name == journal_sync_name(s)) return s;
  }
  return std::nullopt;
}

FlowEngine::FlowEngine(EngineOptions options) : options_(std::move(options)) {}

int FlowEngine::resolve_workers(int requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

BatchResult FlowEngine::run(std::vector<FlowJob> jobs) const {
  BatchResult batch;
  batch.outcomes.resize(jobs.size());
  if (jobs.empty()) return batch;
  const auto reject_batch = [&](const util::Status& error) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      batch.outcomes[i] = unrun_outcome(jobs[i], JobStatus::kFailed, error);
    }
    batch.failed = jobs.size();
  };

  // A journaled batch is keyed by label; a duplicate would re-execute under
  // the same key and alias rows on resume.  Reject the whole batch loudly.
  if (!options_.journal_path.empty() || options_.resume) {
    std::map<std::string, std::size_t> labels;
    std::string duplicate;
    for (const FlowJob& job : jobs) {
      if (++labels[effective_label(job)] > 1) {
        duplicate = effective_label(job);
        break;
      }
    }
    if (!duplicate.empty()) {
      reject_batch(util::Status::invalid_input(
          "duplicate job label '" + duplicate +
          "' in a journaled batch (labels key the resume journal and must "
          "be unique)"));
      return batch;
    }
  }

  // The journal is the crash-safety contract: if it cannot even be opened,
  // running the batch would silently void resume, so fail up front (the
  // same loud-failure policy as duplicate labels).
  JournalWriter journal;
  if (!options_.journal_path.empty()) {
    const util::Status opened =
        journal.open(options_.journal_path, options_.journal_sync);
    if (!opened.is_ok()) {
      reject_batch(opened);
      batch.journal_error = opened;
      return batch;
    }
  }

  // Resume: restore journaled rows and schedule only the remainder.
  std::vector<std::size_t> todo;
  todo.reserve(jobs.size());
  {
    std::map<std::string, JobOutcome> journaled;
    if (options_.resume && !options_.journal_path.empty()) {
      JournalLoadStats stats;
      journaled = load_journal(options_.journal_path, &stats);
      batch.journal_skipped = stats.skipped();
      if (stats.skipped() > 0) {
        std::fprintf(
            stderr,
            "journal %s: skipped %zu record(s) (%zu torn, %zu corrupt); "
            "their jobs re-execute\n",
            options_.journal_path.c_str(), stats.skipped(),
            stats.skipped_torn, stats.skipped_corrupt);
      }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto hit = journaled.find(effective_label(jobs[i]));
      if (hit != journaled.end()) {
        batch.outcomes[i] = std::move(hit->second);
        journaled.erase(hit);  // duplicate labels re-execute rather than alias
      } else {
        todo.push_back(i);
      }
    }
  }

  // The batch token: a child of the caller's token (so external cancellation
  // propagates), optionally carrying the batch deadline, and always
  // fireable for fail-fast.
  const util::CancelToken batch_token =
      options_.batch_deadline_seconds > 0.0
          ? options_.cancel.child_with_deadline(options_.batch_deadline_seconds)
          : options_.cancel.child();

  const int workers =
      std::min<int>(resolve_workers(options_.num_workers),
                    static_cast<int>(std::max<std::size_t>(todo.size(), 1)));
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex finish_mutex;

  auto drain = [&]() {
    for (std::size_t t = next.fetch_add(1); t < todo.size();
         t = next.fetch_add(1)) {
      const std::size_t i = todo[t];
      // A fired batch token also stops in-flight work; a fired drain token
      // only keeps new jobs from starting (graceful server shutdown).
      JobOutcome outcome =
          batch_token.stop_requested()
              ? unrun_outcome(jobs[i], JobStatus::kCancelled,
                              batch_token.status("batch scheduling"))
          : options_.drain.stop_requested()
              ? unrun_outcome(jobs[i], JobStatus::kCancelled,
                              options_.drain.status("batch scheduling"))
              : execute_job(std::move(jobs[i]), batch_token);
      const bool journal_it =
          !options_.journal_path.empty() &&
          (outcome.status == JobStatus::kOk ||
           outcome.status == JobStatus::kDegraded ||
           outcome.status == JobStatus::kFailed);
      const std::size_t completed = done.fetch_add(1) + 1;
      {
        // One critical section per finished job: the journal append keeps
        // file order intact and the progress callback stays serialized.
        const std::lock_guard<std::mutex> lock(finish_mutex);
        if (journal_it) {
          // A journal failure does not stop the run — the in-memory
          // outcomes are intact and resume simply re-executes the job —
          // but it is recorded and fails exit_code(), because silently
          // losing crash safety is how torn journals became invisible.
          const util::Status appended = journal.append(outcome);
          if (!appended.is_ok()) {
            std::fprintf(stderr, "journal append failed: %s\n",
                         appended.message().c_str());
            if (batch.journal_error.is_ok()) batch.journal_error = appended;
          }
        }
        batch.outcomes[i] = std::move(outcome);
        if (options_.on_job_done) {
          options_.on_job_done(batch.outcomes[i], completed, todo.size());
        }
        if (options_.fail_fast &&
            (batch.outcomes[i].status == JobStatus::kFailed ||
             batch.outcomes[i].status == JobStatus::kTimeout)) {
          batch_token.request_cancel();
        }
      }
    }
  };

  if (options_.executor != nullptr) {
    // The executor's threads are long-lived and shared across batches, so
    // they keep whatever trace names their owner gave them.
    options_.executor->run_parallel(workers, [&drain](int) { drain(); });
  } else if (workers <= 1 || todo.size() <= 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&drain, w] {
        if (obs::tracing_enabled()) {
          obs::name_this_thread("worker " + std::to_string(w));
        }
        drain();
      });
    }
    for (auto& thread : pool) thread.join();
  }

  if (journal.is_open()) {
    const util::Status finished = journal.finish();
    if (!finished.is_ok()) {
      std::fprintf(stderr, "journal sync failed: %s\n",
                   finished.message().c_str());
      if (batch.journal_error.is_ok()) batch.journal_error = finished;
    }
  }

  // Engine-wide telemetry (obs/metrics.hpp), aggregated once per batch so
  // the hot path never touches an atomic.  Journal-restored jobs still
  // count toward jobs_total (they are rows the caller received) but add no
  // work counters — their routing ran in an earlier process.
  struct EngineMetrics {
    obs::Counter& ok;
    obs::Counter& degraded;
    obs::Counter& failed;
    obs::Counter& timed_out;
    obs::Counter& cancelled;
    obs::Counter& maze_pops;
    obs::Counter& rr_iterations;
  };
  static EngineMetrics metrics{
      obs::metrics().counter("sadp_engine_jobs_total",
                             "Finished flow jobs by final status.",
                             "status=\"ok\""),
      obs::metrics().counter("sadp_engine_jobs_total", "",
                             "status=\"degraded\""),
      obs::metrics().counter("sadp_engine_jobs_total", "", "status=\"failed\""),
      obs::metrics().counter("sadp_engine_jobs_total", "",
                             "status=\"timeout\""),
      obs::metrics().counter("sadp_engine_jobs_total", "",
                             "status=\"cancelled\""),
      obs::metrics().counter("sadp_engine_maze_pops_total",
                             "Maze-router heap pops across all jobs."),
      obs::metrics().counter("sadp_engine_rr_iterations_total",
                             "Rip-up-and-reroute iterations across all jobs."),
  };
  for (const JobOutcome& outcome : batch.outcomes) {
    switch (outcome.status) {
      case JobStatus::kOk: ++batch.ok; metrics.ok.inc(); break;
      case JobStatus::kDegraded: ++batch.degraded; metrics.degraded.inc(); break;
      case JobStatus::kFailed: ++batch.failed; metrics.failed.inc(); break;
      case JobStatus::kTimeout: ++batch.timed_out; metrics.timed_out.inc(); break;
      case JobStatus::kCancelled: ++batch.cancelled; metrics.cancelled.inc(); break;
    }
    if (outcome.from_journal) {
      ++batch.resumed;
    } else {
      metrics.maze_pops.inc(outcome.metrics.maze_pops);
      metrics.rr_iterations.inc(
          static_cast<std::uint64_t>(outcome.metrics.rr_iterations));
    }
  }
  return batch;
}

std::string metrics_json(const std::vector<JobOutcome>& outcomes, int workers,
                         double wall_seconds) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value("sadp.flow_metrics.v1");
  json.key("jobs").value(outcomes.size());
  json.key("workers").value(workers);
  json.key("wall_seconds").value(wall_seconds);
  json.key("results").begin_array();
  for (const auto& outcome : outcomes) {
    const StageMetrics& m = outcome.metrics;
    json.begin_object();
    write_outcome_members(json, outcome);
    json.key("stages").begin_object();
    json.key("generate").value(m.generate_seconds);
    json.key("route").value(m.route_seconds);
    json.key("initial_routing").value(m.initial_routing_seconds);
    json.key("congestion_rr").value(m.congestion_rr_seconds);
    json.key("tpl_rr").value(m.tpl_rr_seconds);
    json.key("coloring").value(m.coloring_seconds);
    json.key("dvi").value(m.dvi_seconds);
    if (m.partitions > 1) {
      json.key("partition").value(m.partition_seconds);
      json.key("boundary").value(m.boundary_seconds);
      json.key("merge").value(m.merge_seconds);
      json.key("reconcile").value(m.reconcile_seconds);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

util::Status write_metrics_files(const std::string& directory,
                                 const std::string& stem,
                                 const std::vector<JobOutcome>& outcomes,
                                 int workers, double wall_seconds,
                                 std::string* json_path) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (const util::FailDecision fail = g_fp_metrics_write.evaluate();
      fail.kind == util::FailKind::kError) {
    return util::Status::internal(
        "failpoint(metrics.write): injected write error");
  }
  // Atomic (write-temp-then-rename): a crash mid-write leaves the previous
  // metrics file intact instead of a truncated JSON document.
  const std::string path = directory + "/" + stem + ".json";
  if (const util::Status wrote = util::atomic_write_file(
          path, metrics_json(outcomes, workers, wall_seconds) + "\n");
      !wrote.is_ok()) {
    return wrote;
  }
  if (json_path != nullptr) *json_path = path;
  return util::Status::ok();
}

}  // namespace sadp::engine
