// Parallel batch flow engine with fault isolation.
//
// The paper's experiment tables (III-VII) are embarrassingly parallel: each
// row is an independent (netlist, SADP style, consideration arm, DVI method)
// job.  FlowEngine runs a vector of such jobs on a fixed-size thread pool
// and collects one JobOutcome per job, in job order, independent of how the
// pool interleaved them.
//
// Fault isolation: each worker catches everything a job throws at the job
// boundary and records a failed outcome (JobStatus + util::Status) instead
// of terminating, so a batch of N jobs with one poisoned job still returns
// N-1 good rows plus one diagnosable failure.  Jobs and the batch carry
// wall-clock deadlines enforced through cooperative util::CancelToken
// chains threaded into the router's R&R loops and the DVI solvers; a
// fail-fast policy cancels the rest of the batch on the first failure.
//
// Crash safety: with EngineOptions::journal_path set, the engine appends
// one JSONL record (schema sadp.flow_journal.v1, see engine/journal.hpp)
// per finished job as it completes; EngineOptions::resume skips journaled
// jobs on restart and returns their recorded rows, so an interrupted batch
// re-executes only the remaining work.
//
// Determinism: a job is either a pre-placed netlist or a BenchSpec, and
// specs are generated inside the worker with the spec-seeded PRNG
// (bench_gen derives the seed from the spec, never from global state), so
// every job sees bit-identical input and produces bit-identical
// ExperimentResult rows regardless of the worker count.  Only the wall-clock
// fields vary between runs — and rows of jobs whose deadline fired, which
// are inherently non-deterministic.
//
// Each job also records per-stage metrics (StageMetrics): its routing
// report plus the job, generation and DVI times.  metrics_json writes a
// batch as one sadp.flow_metrics.v1 document (the bench_results/ files and
// `sadp_route --json-report`): each element is the job's journal object
// (engine/journal.hpp) plus its `stages` times.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "netlist/bench_gen.hpp"
#include "util/cancel.hpp"
#include "util/executor.hpp"
#include "util/status.hpp"

namespace sadp::engine {

/// Per-stage metrics of one finished flow job: the routing report (Fig. 8
/// phase times, search-effort counters, partition breakdown) plus the
/// engine's own times and the DVI solve time.  It has one field list, the
/// report's; an executed job and a parsed journal record both slice-assign
/// their result's report into it.
struct StageMetrics : core::RoutingReport {
  double total_seconds = 0.0;     ///< whole job, including generation
  double generate_seconds = 0.0;  ///< netlist synthesis (0 if pre-placed)
  double dvi_seconds = 0.0;       ///< post-routing DVI solve
};

/// One unit of work: route + post-routing DVI on one instance.
struct FlowJob {
  /// Identifies the job in tables, metrics files and the resume journal;
  /// defaults to the instance name when empty.  Must be unique within a
  /// batch for --resume to work.
  std::string label;
  /// Caller-defined grouping tag (experiment arm, parameter variant, ...).
  std::string arm;
  /// Propagated trace context (api::FlowRequest trace_id / JobRequest
  /// span_id).  When tracing is on, the engine stamps both as string args
  /// on the job's span so a merged fleet trace correlates this process's
  /// spans with the dispatcher's relay span.  Never enters the outcome or
  /// the journal; empty = untraced.
  std::string trace_id;
  std::string span_id;
  /// The instance: either a pre-placed netlist, or a spec generated inside
  /// the worker (deterministically — the generator PRNG is seeded from the
  /// spec, so results do not depend on scheduling).
  std::optional<netlist::PlacedNetlist> netlist;
  netlist::BenchSpec spec;
  core::FlowConfig config;
  /// Retain the router (and DVI geometry) in the outcome for validation or
  /// rendering.  Costs memory proportional to the design; off by default.
  bool keep_router = false;
  /// Per-job wall-clock deadline in seconds (0 = none).  Enforced
  /// cooperatively: the engine arms a CancelToken child and the flow stops
  /// at its next cancellation point, yielding JobStatus::kTimeout.
  double deadline_seconds = 0.0;
  /// The flow this job runs on its instance; empty means core::run_flow.
  /// An ECO delta sets it to a warm-started core::run_eco_flow, and tests
  /// set it to inject faults.  Whatever it throws becomes a failed outcome,
  /// and the job's cancel token is visible as `config.options.cancel`.
  std::function<core::FlowRun(const netlist::PlacedNetlist&,
                              const core::FlowConfig&)>
      flow;
};

/// Terminal state of one job.
enum class JobStatus : std::uint8_t {
  kOk = 0,     ///< finished normally
  kDegraded,   ///< finished via a degradation fallback (heuristic DVI)
  kFailed,     ///< threw; `error` carries the structured cause
  kTimeout,    ///< its (or the batch's) wall deadline fired mid-flow
  kCancelled,  ///< external/fail-fast cancellation before or during the run
};

[[nodiscard]] constexpr const char* job_status_name(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kDegraded: return "degraded";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "?";
}

/// Parse a job-status name back (journal round-trips); nullopt when unknown.
[[nodiscard]] std::optional<JobStatus> parse_job_status(
    const std::string& name) noexcept;

/// When the journal is fsync'd to the device (writes always reach the OS
/// per record; this controls durability across power loss / host crash).
enum class JournalSync : std::uint8_t {
  kNone = 0,  ///< never fsync; OS page cache decides (fastest)
  kBatch,     ///< one fsync when the batch finishes (default)
  kAlways,    ///< fsync after every record (most durable, slowest)
};

[[nodiscard]] constexpr const char* journal_sync_name(JournalSync s) noexcept {
  switch (s) {
    case JournalSync::kNone: return "none";
    case JournalSync::kBatch: return "batch";
    case JournalSync::kAlways: return "always";
  }
  return "?";
}

/// Parse a sync-policy name back; nullopt when unknown.
[[nodiscard]] std::optional<JournalSync> parse_journal_sync(
    const std::string& name) noexcept;

/// What one job produced.
struct JobOutcome {
  std::string label;
  std::string arm;
  grid::SadpStyle style = grid::SadpStyle::kSim;  ///< from the job config
  core::DviMethod dvi_method = core::DviMethod::kIlp;
  JobStatus status = JobStatus::kOk;
  /// Structured failure cause; ok for kOk (and for kDegraded, where the
  /// degradation is recorded in `status` alone).
  util::Status error;
  /// True when the row was restored from the resume journal rather than
  /// executed in this run (its times are then the journaled ones, and the
  /// per-phase times it does not record are zero).
  bool from_journal = false;
  core::ExperimentResult result;
  StageMetrics metrics;
  /// Populated only when FlowJob::keep_router was set.  Shared, so an
  /// outcome copies: the result cache keeps copies of router-less rows.
  std::shared_ptr<core::SadpRouter> router;
  /// DVI insertion locations (parallel to result.dvi.inserted); populated
  /// only when FlowJob::keep_router was set.
  std::vector<grid::Point> dvi_inserted_at;

  [[nodiscard]] bool ok() const noexcept {
    return status == JobStatus::kOk || status == JobStatus::kDegraded;
  }
};

/// Supplies the threads FlowEngine::run executes on.  A long-lived service
/// (the sadp_routed daemon) implements this over one persistent pool so
/// that every concurrent batch shares the same fixed set of worker threads
/// instead of each run() spawning its own.
///
/// The interface lives in util/executor.hpp so the core router (which the
/// engine links, not the other way around) can run partition workers on
/// the same abstraction; this alias keeps the engine-facing name stable.
using Executor = util::Executor;

struct EngineOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().  The
  /// pool never exceeds the job count.
  int num_workers = 0;
  /// When set, the engine submits its worker loops to this executor instead
  /// of spawning threads; num_workers still bounds how many loops are
  /// submitted.  Not owned; must outlive run().
  Executor* executor = nullptr;
  /// Invoked (serialized under an internal mutex) as each executed job
  /// finishes, with the number of completed jobs so far; for progress
  /// output.  Not invoked for journal-restored rows.
  std::function<void(const JobOutcome&, std::size_t done, std::size_t total)>
      on_job_done;
  /// Whole-batch wall-clock deadline in seconds (0 = none); jobs still
  /// running when it fires stop cooperatively (kTimeout) and jobs not yet
  /// started are marked kCancelled.
  double batch_deadline_seconds = 0.0;
  /// Fail fast: the first kFailed/kTimeout job cancels the rest of the
  /// batch.  Default keeps going and reports every row.
  bool fail_fast = false;
  /// External cancellation: fire to stop the batch from another thread.
  /// The engine always derives its own child token, so a default token
  /// simply never fires.
  util::CancelToken cancel;
  /// Graceful drain: when this token fires, jobs that have not started yet
  /// are skipped (kCancelled) but jobs already executing run to completion
  /// — unlike `cancel`, which also stops in-flight work cooperatively.
  /// This is how a SIGTERM'd server finishes (and journals) what it is
  /// doing while giving the rest of the batch back to a resumed run.
  util::CancelToken drain;
  /// When set, append one sadp.flow_journal.v1 JSONL record per finished
  /// job (flushed per line, so a crash loses at most the in-flight jobs).
  /// Cancelled/timed-out jobs are not journaled — a resumed run retries
  /// them.
  std::string journal_path;
  /// Skip jobs that already have a journal record (matched by label) and
  /// return their recorded rows instead of re-executing them.
  bool resume = false;
  /// Journal fsync policy (see JournalSync).  Irrelevant without
  /// journal_path.
  JournalSync journal_sync = JournalSync::kBatch;
};

/// What a whole batch produced: outcomes in job order plus aggregates.
struct BatchResult {
  std::vector<JobOutcome> outcomes;
  std::size_t ok = 0;         ///< JobStatus::kOk
  std::size_t degraded = 0;   ///< JobStatus::kDegraded
  std::size_t failed = 0;     ///< JobStatus::kFailed
  std::size_t timed_out = 0;  ///< JobStatus::kTimeout
  std::size_t cancelled = 0;  ///< JobStatus::kCancelled
  std::size_t resumed = 0;    ///< rows restored from the journal
  /// Journal records skipped on load because they were torn (unparsable)
  /// or corrupt (CRC mismatch); their jobs re-executed.
  std::size_t journal_skipped = 0;
  /// First journal I/O failure of the run (open, append or sync).  The
  /// batch still executes — rows are returned — but exit_code() reports
  /// failure because the crash-safety contract was not honored.
  util::Status journal_error;

  /// Every row usable (ok or degraded)?
  [[nodiscard]] bool all_ok() const noexcept {
    return failed == 0 && timed_out == 0 && cancelled == 0;
  }
  /// Process exit status for batch drivers: 0 when all rows are usable and
  /// the journal (if any) was written intact.
  [[nodiscard]] int exit_code() const noexcept {
    return all_ok() && journal_error.is_ok() ? 0 : 1;
  }
};

class FlowEngine {
 public:
  explicit FlowEngine(EngineOptions options = {});

  /// Run all jobs to completion (or failure — failures are isolated per
  /// job) on the pool.  Outcomes are returned in job order.  Result rows
  /// are bit-identical for any worker count; only the timing metrics vary.
  ///
  /// When the batch is journaled (journal_path set or resume requested),
  /// duplicate job labels are rejected up front: every outcome comes back
  /// kFailed with a kInvalidInput error and nothing executes, because the
  /// journal is keyed by label and a duplicate would silently alias rows
  /// on resume.
  [[nodiscard]] BatchResult run(std::vector<FlowJob> jobs) const;

  /// The worker count `requested` resolves to (0 => hardware concurrency,
  /// always >= 1).
  [[nodiscard]] static int resolve_workers(int requested) noexcept;

 private:
  EngineOptions options_;
};

/// Serialize outcomes as a JSON document:
///   {"schema": "sadp.flow_metrics.v1", "jobs": N, "workers": W,
///    "wall_seconds": S,
///    "results": [{<journal object members>, "stages": {...}}, ...]}
/// Each element parses back through engine::parse_outcome_object.
[[nodiscard]] std::string metrics_json(const std::vector<JobOutcome>& outcomes,
                                       int workers, double wall_seconds);

/// Write metrics_json to `<directory>/<stem>.json`, creating the directory
/// when missing.  On success stores the path in `json_path` (when
/// non-null).
[[nodiscard]] util::Status write_metrics_files(
    const std::string& directory, const std::string& stem,
    const std::vector<JobOutcome>& outcomes, int workers, double wall_seconds,
    std::string* json_path = nullptr);

}  // namespace sadp::engine
