// Routing-as-a-service request/response layer (schemas
// sadp.flow_request.v1 / sadp.flow_response.v1).
//
// One versioned request describes a whole flow batch — spec-or-netlist
// jobs, per-job and batch deadlines, keep-going vs fail-fast, DVI
// degradation, journal/resume — and maps 1:1 onto engine::FlowJob +
// engine::EngineOptions.  Every consumer goes through the same three
// steps:
//
//   FlowRequest request = ...;            // from CLI flags or a socket line
//   DispatchResult run = api::dispatch(request, hooks);
//
// The CLI (sadp_route) builds a request from its flags and either
// dispatches it in-process or, with --connect, serializes the same struct
// onto the wire; the daemon (sadp_routed) parses that JSON off a TCP
// socket and dispatches it on its shared worker pool.  A CLI invocation
// therefore IS a local request — there is exactly one place where
// requests are validated, materialized into jobs, and turned into outcome
// rows.
//
// Wire framing is newline-delimited JSON: the client sends one
// flow_request.v1 line; the server streams back one flow_response.v1 line
// per finished job ("row", in completion order) followed by one "batch"
// summary line, or a single "error" line (e.g. code resource_exhausted
// when the admission queue is full).  Row lines embed the job's full
// sadp.flow_journal.v1 payload, so a row received over the socket carries
// exactly the fields a journaled/in-process run records.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/eco.hpp"
#include "engine/flow_engine.hpp"
#include "netlist/bench_gen.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace sadp::api {

inline constexpr const char* kRequestSchema = "sadp.flow_request.v1";
inline constexpr const char* kResponseSchema = "sadp.flow_response.v1";

/// One job of a request.  Exactly one instance source must be set:
/// `benchmark` (a Table I name, resolved with `scaled`), an inline
/// generator `spec`, or `netlist_path` (a path readable where the request
/// is dispatched — the daemon is a local trusted service, so paths resolve
/// on the server host).
struct JobRequest {
  /// Row, journal and cache-map key.  When empty the row is labelled by
  /// effective_label: the benchmark name as given ("ecc", not the resolved
  /// "ecc_s"), the spec's name, or the netlist path.
  std::string label;
  std::string arm;  ///< display-only grouping tag
  /// Trace context: this job's span id within the request's trace (see
  /// FlowRequest::trace_id).  Minted by the dispatcher (or the client when
  /// talking to a daemon directly); omitted from the wire when empty, so
  /// untraced requests keep their pre-telemetry bytes.
  std::string span_id;
  std::string benchmark;
  bool scaled = true;
  std::optional<netlist::BenchSpec> spec;
  std::string netlist_path;
  grid::SadpStyle style = grid::SadpStyle::kSim;
  bool consider_dvi = true;
  bool consider_tpl = true;
  core::DviMethod dvi_method = core::DviMethod::kHeuristic;
  double ilp_limit_seconds = 60.0;
  bool degrade_dvi = false;       ///< ILP DVI timeout => heuristic fallback
  double deadline_seconds = 0.0;  ///< per-job wall deadline (0 = none)
  /// Partition-parallel routing regions (FlowOptions::partitions).  0 keeps
  /// the engine default (1 = serial); the member is omitted from the wire
  /// format when 0, so pre-partition requests and daemons interoperate.
  int partitions = 0;
};

/// A whole batch: jobs plus the engine-level execution policy.
struct FlowRequest {
  int workers = 0;  ///< engine workers (0 = all cores; servers cap this)
  double batch_deadline_seconds = 0.0;
  bool keep_going = false;  ///< report every row instead of failing fast
  /// Crash-recovery journal (a path where the request is dispatched); with
  /// `resume`, rows already journaled are restored instead of re-executed.
  std::string journal_path;
  bool resume = false;
  /// Journal fsync policy ("none"/"batch"/"always" on the wire; optional,
  /// so older clients parse).  Batch-level: does not affect rows or cache
  /// keys, only durability.
  engine::JournalSync journal_sync = engine::JournalSync::kBatch;
  /// Trace context, propagated across processes so a merged fleet trace
  /// can stitch one request's spans together: a fleet-unique id for this
  /// request (dispatcher relay span, daemon admission/run spans and engine
  /// job spans all carry it as an arg) and the sender's CLOCK_REALTIME
  /// send instant.  Both optional on the wire (absent = untraced = exact
  /// old behavior); the outcome rows a traced request produces are still
  /// byte-identical to untraced ones — trace context lives only in the
  /// row *framing* and the batch summary, never inside the journal object.
  std::string trace_id;
  std::int64_t sent_unix_us = 0;
  std::vector<JobRequest> jobs;
};

/// The label a job's row will carry: JobRequest::label when set, otherwise
/// the instance source (benchmark / spec name / netlist path).  to_flow_job
/// stamps it on the FlowJob, so the engine never falls back to its own rule.
[[nodiscard]] std::string effective_label(const JobRequest& job);

/// Mint a fleet-unique trace/span id: 16 lowercase hex characters, hashed
/// (splitmix64) from the realtime clock, the pid and a process-local
/// counter.  The dispatcher mints one trace_id per relayed request plus a
/// span_id per job; a client talking to a daemon directly does the same.
[[nodiscard]] std::string mint_trace_id();

/// Fill in trace context on a request that has none: a fresh trace_id, a
/// span_id per job, and the sender's send timestamp.  A request that
/// already carries a trace_id is left untouched (the upstream hop owns the
/// trace), so the dispatcher can call this unconditionally.
void ensure_trace_context(FlowRequest* request);

/// Serialize one job object (the element of a request's `jobs` array):
/// members in a fixed wire order, empty strings, an absent spec and
/// partitions <= 0 omitted.  sadp.flow_delta.v1 reuses this for its `base`
/// job, and the result cache keys jobs with it, so both schemas and the
/// cache see byte-identical job objects.
void write_job_request(util::JsonWriter& json, const JobRequest& job);

/// Parse one job object with "absent = default, mistyped = error"
/// semantics; false + `error` on a malformed field or unknown style /
/// dvi_method token.
[[nodiscard]] bool read_job_request(const util::JsonValue& doc,
                                    JobRequest* job, std::string* error);

/// Per-job structural validation (exactly one instance source, non-negative
/// limits); `where` prefixes the error message ("job 3").
[[nodiscard]] util::Status validate_job(const JobRequest& job,
                                        const std::string& where);

/// Structural validation, shared by every entry point: at least one job,
/// exactly one instance source per job, non-negative limits, resume only
/// with a journal, and — because rows and the resume journal are keyed by
/// label — no duplicate effective labels.  Returns kInvalidInput with a
/// pinpointing message on the first violation.
[[nodiscard]] util::Status validate(const FlowRequest& request);

/// One line of JSON (no trailing newline), schema field included.
[[nodiscard]] std::string serialize_request(const FlowRequest& request);

/// Inverse of serialize_request.  Unknown members are ignored (forward
/// compatibility); a wrong/missing schema or malformed field is an error:
/// returns nullopt and fills `error` when non-null.
[[nodiscard]] std::optional<FlowRequest> parse_request(
    std::string_view line, std::string* error = nullptr);

/// Materialize one job: resolve its benchmark name or read its netlist
/// file, copy its flow knobs, and label it effective_label(source).  This
/// is the one place a JobRequest becomes an engine::FlowJob; flow batches
/// and ECO deltas both come through here.  kInvalidInput on an unknown
/// benchmark or an unreadable/malformed netlist file.
[[nodiscard]] util::Status to_flow_job(const JobRequest& source,
                                       const std::string& trace_id,
                                       engine::FlowJob* job);

/// to_flow_job over every job of the request, under its trace_id; on
/// success `jobs` holds one FlowJob per JobRequest, in order.
[[nodiscard]] util::Status to_flow_jobs(const FlowRequest& request,
                                        std::vector<engine::FlowJob>* jobs);

/// The engine-level options a request asks for (workers, batch deadline,
/// fail-fast policy, journal/resume).  Callers attach their own hooks
/// (progress callback, cancel/drain tokens, executor) on top.
[[nodiscard]] engine::EngineOptions engine_options(const FlowRequest& request);

// ---------------------------------------------------------------------------
// Responses: one "row" line per finished job (streamed in completion
// order), one final "batch" summary line, or a single "error" line.

/// {"schema":"sadp.flow_response.v1","type":"row","done":D,"total":T,
///  ["trace_id":...,"span_id":...,]["cache":"hit"|"miss",]
///  "outcome":{<sadp.flow_journal.v1 object>}}
/// `cache` (nullptr = omit the member) records whether the serving daemon
/// answered from its result cache; rows whose job was never looked up
/// (CLI dispatch, journaled batches, journal-restored rows, uncacheable
/// jobs) omit it.
/// `trace_id`/`span_id` echo the request's trace context (empty = omit):
/// they live in the row framing, never inside the outcome object, so the
/// journal payload stays byte-identical with or without tracing.
[[nodiscard]] std::string response_row_line(const engine::JobOutcome& outcome,
                                            std::size_t done,
                                            std::size_t total,
                                            const char* cache = nullptr,
                                            const std::string& trace_id = {},
                                            const std::string& span_id = {});

/// Counts of the final "batch" summary line.  `jobs` can exceed
/// `ok+degraded+...` contributions of one engine run because cache-served
/// rows never enter the engine.
struct ResponseSummary {
  std::size_t jobs = 0;
  std::size_t ok = 0;
  std::size_t degraded = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  std::size_t cancelled = 0;
  std::size_t resumed = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  int workers = 0;
  double wall_seconds = 0.0;
  /// Trace context, echoed from the request when present.  The hop
  /// timestamps are the daemon's CLOCK_REALTIME receive/reply instants
  /// (microseconds), which is what lets a merged fleet trace bound the
  /// network leg between the dispatcher's relay span and the daemon's work.
  /// All three omitted from the wire when the request carried no trace_id.
  std::string trace_id;
  std::int64_t recv_unix_us = 0;
  std::int64_t sent_unix_us = 0;

  /// Count one finished row: its status bucket, plus `resumed` when the
  /// row was restored from a journal.  Every producer of a "batch" line
  /// (the daemon's runners, `sadp_route --wire`) counts through here.
  void tally(engine::JobStatus status, bool from_journal = false) noexcept;
};

/// {"schema":...,"type":"batch","jobs":N,"ok":...,"degraded":...,
///  "failed":...,"timed_out":...,"cancelled":...,"resumed":...,
///  "cache_hits":...,"cache_misses":...,"workers":W,"wall_seconds":S
///  [,"trace_id":...,"recv_unix_us":...,"sent_unix_us":...]}
[[nodiscard]] std::string response_summary_line(const ResponseSummary& summary);

/// {"schema":...,"type":"error","code":"resource_exhausted","message":...}
[[nodiscard]] std::string response_error_line(const util::Status& error);

/// One parsed response line, discriminated by `kind`.  kDelta is the extra
/// summary line an ECO (sadp.flow_delta.v1) request streams between its row
/// and its batch line — see api/flow_delta.hpp for the builder.
struct ResponseEvent {
  enum class Kind { kRow, kBatch, kError, kDelta };
  Kind kind = Kind::kError;
  // kRow: the job's outcome (full journal payload) plus stream progress.
  engine::JobOutcome outcome;
  std::size_t done = 0;
  std::size_t total = 0;
  /// "hit" / "miss" when the serving daemon looked the job up in its
  /// result cache; empty when the row carried no cache member (older
  /// daemons, CLI rows, journaled batches, uncacheable jobs).
  std::string cache;
  /// Trace context of a row (trace_id + span_id) or a delta line
  /// (trace_id).  Empty when the stream is untraced.
  std::string trace_id;
  std::string span_id;
  /// kBatch: the summary line, trace context included.  The cache counters
  /// are optional on the wire (absent = 0) so pre-cache summaries parse.
  ResponseSummary summary;
  /// kDelta: the ECO summary line.
  core::EcoSummary delta;
  // kError: the structured server-side error.
  util::Status error;
};

/// Parse any response line.  nullopt + `error` on malformed input or a
/// schema mismatch (a kError event is a successful parse, not a failure).
/// The cache members ("cache" on rows, "cache_hits"/"cache_misses" on the
/// summary) are optional, so rows written by pre-cache daemons — and old
/// journals replayed through this parser — still parse.
[[nodiscard]] std::optional<ResponseEvent> parse_response_line(
    std::string_view line, std::string* error = nullptr);

// ---------------------------------------------------------------------------
// Dispatch: the one function that turns a request into outcome rows.

/// Caller-side hooks merged into the request's engine options.
struct DispatchOptions {
  /// Streamed per finished job (serialized by the engine); servers write a
  /// response_row_line from here.
  std::function<void(const engine::JobOutcome&, std::size_t done,
                     std::size_t total)>
      on_job_done;
  /// Request-scoped cancellation (client disconnect, Ctrl-C).
  util::CancelToken cancel;
  /// Graceful drain (SIGTERM): finish running jobs, skip unstarted ones.
  util::CancelToken drain;
  /// Shared worker pool of a long-lived server; null = engine spawns its
  /// own threads.
  engine::Executor* executor = nullptr;
  /// Cap on the request's `workers` (a server pins this to its pool size
  /// so one request cannot oversubscribe the pool).  0 = no cap.
  int max_workers = 0;
  /// Retain routers in the outcomes (local CLI validation/rendering only —
  /// routers never travel over the wire).
  bool keep_router = false;
};

struct DispatchResult {
  /// kInvalidInput when validation or job materialization failed; the
  /// batch is then empty and nothing was executed.
  util::Status status;
  engine::BatchResult batch;
  int workers = 0;  ///< resolved engine worker count
  double wall_seconds = 0.0;
};

/// validate + to_flow_jobs + FlowEngine::run, under the caller's hooks.
/// This is the single entry point the CLI, the daemon and the tests share.
[[nodiscard]] DispatchResult dispatch(const FlowRequest& request,
                                      const DispatchOptions& options = {});

}  // namespace sadp::api
