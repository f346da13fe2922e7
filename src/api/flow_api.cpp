#include "api/flow_api.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>

#include "engine/journal.hpp"
#include "grid/colored_grid.hpp"
#include "netlist/io.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace sadp::api {

namespace {

using util::read_bool;
using util::read_number;
using util::read_string;

void write_spec(util::JsonWriter& json, const netlist::BenchSpec& spec) {
  json.begin_object();
  json.key("name").value(spec.name);
  json.key("width").value(spec.width);
  json.key("height").value(spec.height);
  json.key("num_nets").value(spec.num_nets);
  json.key("num_metal_layers").value(spec.num_metal_layers);
  json.key("local_radius").value(spec.local_radius);
  json.key("global_net_fraction").value(spec.global_net_fraction);
  json.key("min_pin_spacing").value(spec.min_pin_spacing);
  json.key("row_structured").value(spec.row_structured);
  json.key("row_pitch").value(spec.row_pitch);
  // Seeds are user-chosen small integers (0 = derive from the name); the
  // JSON double round-trip is exact below 2^53.
  json.key("seed").value(static_cast<long long>(spec.seed));
  // Optional member (read_spec defaults it to 1), so unscaled specs keep
  // their pre-scale wire bytes.
  if (spec.scale != 1.0) json.key("scale").value(spec.scale);
  json.end_object();
}

bool read_spec(const util::JsonValue& doc, netlist::BenchSpec* spec,
               std::string* error) {
  if (!doc.is_object()) {
    *error = "field 'spec' must be an object";
    return false;
  }
  double fraction = spec->global_net_fraction;
  if (!read_string(doc, "name", &spec->name, error) ||
      !util::read_json_int(doc, "width", &spec->width, error) ||
      !util::read_json_int(doc, "height", &spec->height, error) ||
      !util::read_json_int(doc, "num_nets", &spec->num_nets, error) ||
      !util::read_json_int(doc, "num_metal_layers", &spec->num_metal_layers,
                           error) ||
      !util::read_json_int(doc, "local_radius", &spec->local_radius, error) ||
      !read_number(doc, "global_net_fraction", &fraction, error) ||
      !util::read_json_int(doc, "min_pin_spacing", &spec->min_pin_spacing,
                           error) ||
      !read_bool(doc, "row_structured", &spec->row_structured, error) ||
      !util::read_json_int(doc, "row_pitch", &spec->row_pitch, error) ||
      // Seeds are checked into [0, 2^53): past that a double cannot carry them.
      !util::read_json_int(doc, "seed", &spec->seed, error) ||
      !read_number(doc, "scale", &spec->scale, error)) {
    return false;
  }
  spec->global_net_fraction = fraction;
  return true;
}

}  // namespace

std::string mint_trace_id() {
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t x = static_cast<std::uint64_t>(util::unix_now_us());
  x ^= static_cast<std::uint64_t>(::getpid()) << 32;
  x += counter.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b97f4a7c15ULL;
  // splitmix64 finalizer: uniform 64-bit ids from the structured seed.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

void ensure_trace_context(FlowRequest* request) {
  if (!request->trace_id.empty()) return;
  request->trace_id = mint_trace_id();
  request->sent_unix_us = util::unix_now_us();
  for (JobRequest& job : request->jobs) job.span_id = mint_trace_id();
}

std::string effective_label(const JobRequest& job) {
  if (!job.label.empty()) return job.label;
  if (!job.benchmark.empty()) return job.benchmark;
  if (job.spec.has_value()) return job.spec->name;
  return job.netlist_path;
}

void write_job_request(util::JsonWriter& json, const JobRequest& job) {
  // Member order is the wire order, and a member at its omitted default
  // stays off the wire: deployed peers and cache keys read these bytes.
  json.begin_object();
  if (!job.label.empty()) json.key("label").value(job.label);
  if (!job.arm.empty()) json.key("arm").value(job.arm);
  if (!job.span_id.empty()) json.key("span_id").value(job.span_id);
  if (!job.benchmark.empty()) {
    json.key("benchmark").value(job.benchmark);
    json.key("scaled").value(job.scaled);
  }
  if (job.spec.has_value()) {
    json.key("spec");
    write_spec(json, *job.spec);
  }
  if (!job.netlist_path.empty()) {
    json.key("netlist_path").value(job.netlist_path);
  }
  json.key("style").value(grid::style_name(job.style));
  json.key("consider_dvi").value(job.consider_dvi);
  json.key("consider_tpl").value(job.consider_tpl);
  json.key("dvi_method").value(core::dvi_method_name(job.dvi_method));
  json.key("ilp_limit").value(job.ilp_limit_seconds);
  json.key("degrade_dvi").value(job.degrade_dvi);
  json.key("deadline").value(job.deadline_seconds);
  // Omitted when <= 0 (engine default), so pre-partition requests and
  // daemons interoperate.
  if (job.partitions > 0) json.key("partitions").value(job.partitions);
  json.end_object();
}

bool read_job_request(const util::JsonValue& doc, JobRequest* job,
                      std::string* error) {
  if (!doc.is_object()) {
    *error = "not a JSON object";
    return false;
  }
  std::string style_name = grid::style_name(job->style);
  std::string method_name = core::dvi_method_name(job->dvi_method);
  if (!read_string(doc, "label", &job->label, error) ||
      !read_string(doc, "arm", &job->arm, error) ||
      !read_string(doc, "span_id", &job->span_id, error) ||
      !read_string(doc, "benchmark", &job->benchmark, error) ||
      !read_bool(doc, "scaled", &job->scaled, error)) {
    return false;
  }
  if (const util::JsonValue* spec = doc.find("spec")) {
    netlist::BenchSpec parsed;
    if (!read_spec(*spec, &parsed, error)) return false;
    job->spec = parsed;
  }
  if (!read_string(doc, "netlist_path", &job->netlist_path, error) ||
      !read_string(doc, "style", &style_name, error) ||
      !read_bool(doc, "consider_dvi", &job->consider_dvi, error) ||
      !read_bool(doc, "consider_tpl", &job->consider_tpl, error) ||
      !read_string(doc, "dvi_method", &method_name, error) ||
      !read_number(doc, "ilp_limit", &job->ilp_limit_seconds, error) ||
      !read_bool(doc, "degrade_dvi", &job->degrade_dvi, error) ||
      !read_number(doc, "deadline", &job->deadline_seconds, error) ||
      !util::read_json_int(doc, "partitions", &job->partitions, error)) {
    return false;
  }
  const auto style = grid::parse_style(style_name);
  if (!style) {
    *error = "unknown style '" + style_name + "'";
    return false;
  }
  job->style = *style;
  const auto method = core::parse_dvi_method(method_name);
  if (!method) {
    *error = "unknown dvi_method '" + method_name + "'";
    return false;
  }
  job->dvi_method = *method;
  return true;
}

util::Status validate_job(const JobRequest& job, const std::string& where) {
  const int sources = (!job.benchmark.empty()) + job.spec.has_value() +
                      (!job.netlist_path.empty());
  if (sources != 1) {
    return util::Status::invalid_input(
        where + ": exactly one of benchmark, spec, netlist_path required");
  }
  if (!util::deadline_in_range(job.ilp_limit_seconds)) {
    return util::Status::invalid_input(where + ": ilp_limit " + util::kDeadlineRange);
  }
  if (!util::deadline_in_range(job.deadline_seconds)) {
    return util::Status::invalid_input(where + ": deadline " + util::kDeadlineRange);
  }
  if (job.partitions < 0) {
    return util::Status::invalid_input(where + ": partitions must be >= 0");
  }
  return util::Status::ok();
}

util::Status validate(const FlowRequest& request) {
  if (request.jobs.empty()) {
    return util::Status::invalid_input("request has no jobs");
  }
  if (request.workers < 0) {
    return util::Status::invalid_input("workers must be >= 0");
  }
  if (!util::deadline_in_range(request.batch_deadline_seconds)) {
    return util::Status::invalid_input(std::string("batch_deadline ") +
                                       util::kDeadlineRange);
  }
  if (request.resume && request.journal_path.empty()) {
    return util::Status::invalid_input("resume requires a journal path");
  }
  std::set<std::string> labels;
  for (std::size_t i = 0; i < request.jobs.size(); ++i) {
    const JobRequest& job = request.jobs[i];
    const std::string where = "job " + std::to_string(i);
    if (util::Status status = validate_job(job, where); !status.is_ok()) {
      return status;
    }
    // Rows and the resume journal are keyed by label; a duplicate would
    // alias them (same check the engine enforces for journaled batches).
    if (!labels.insert(effective_label(job)).second) {
      return util::Status::invalid_input(
          where + ": duplicate job label '" + effective_label(job) + "'");
    }
  }
  return util::Status::ok();
}

std::string serialize_request(const FlowRequest& request) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kRequestSchema);
  json.key("workers").value(request.workers);
  json.key("batch_deadline").value(request.batch_deadline_seconds);
  json.key("keep_going").value(request.keep_going);
  json.key("journal").value(request.journal_path);
  json.key("resume").value(request.resume);
  json.key("journal_sync").value(engine::journal_sync_name(request.journal_sync));
  // Trace context is optional on the wire: untraced requests serialize to
  // their exact pre-telemetry bytes (absent = old behavior).
  if (!request.trace_id.empty()) json.key("trace_id").value(request.trace_id);
  if (request.sent_unix_us != 0) {
    json.key("sent_unix_us")
        .value(static_cast<long long>(request.sent_unix_us));
  }
  json.key("jobs").begin_array();
  for (const JobRequest& job : request.jobs) write_job_request(json, job);
  json.end_array();
  json.end_object();
  return json.str();
}

std::optional<FlowRequest> parse_request(std::string_view line,
                                         std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<FlowRequest> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = util::parse_json(line, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail("request is not a JSON object: " + parse_error);
  }
  {
    const util::JsonValue* schema = doc->find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->string_value != kRequestSchema) {
      return fail(std::string("request schema mismatch (want ") +
                  kRequestSchema + ")");
    }
  }

  FlowRequest request;
  std::string field_error;
  if (!util::read_json_int(*doc, "workers", &request.workers,
                           &field_error) ||
      !read_number(*doc, "batch_deadline", &request.batch_deadline_seconds,
                   &field_error) ||
      !read_bool(*doc, "keep_going", &request.keep_going, &field_error) ||
      !read_string(*doc, "journal", &request.journal_path, &field_error) ||
      !read_bool(*doc, "resume", &request.resume, &field_error)) {
    return fail(field_error);
  }
  {
    // Optional (older clients omit it); an unknown name is an error, not a
    // silent durability downgrade.
    std::string sync_name = engine::journal_sync_name(request.journal_sync);
    if (!read_string(*doc, "journal_sync", &sync_name, &field_error)) {
      return fail(field_error);
    }
    const auto sync = engine::parse_journal_sync(sync_name);
    if (!sync) return fail("unknown journal_sync '" + sync_name + "'");
    request.journal_sync = *sync;
  }
  if (!read_string(*doc, "trace_id", &request.trace_id, &field_error) ||
      !util::read_json_int(*doc, "sent_unix_us", &request.sent_unix_us,
                           &field_error)) {
    return fail(field_error);
  }

  const util::JsonValue* jobs = doc->find("jobs");
  if (jobs == nullptr || !jobs->is_array()) {
    return fail("field 'jobs' must be an array");
  }
  request.jobs.reserve(jobs->array.size());
  for (std::size_t i = 0; i < jobs->array.size(); ++i) {
    const util::JsonValue& entry = jobs->array[i];
    const std::string where = "job " + std::to_string(i) + ": ";
    JobRequest job;
    if (!read_job_request(entry, &job, &field_error)) {
      return fail(where + field_error);
    }
    request.jobs.push_back(std::move(job));
  }
  return request;
}

util::Status to_flow_job(const JobRequest& source, const std::string& trace_id,
                         engine::FlowJob* job) {
  job->label = effective_label(source);
  job->arm = source.arm;
  job->trace_id = trace_id;
  job->span_id = source.span_id;
  if (!source.benchmark.empty()) {
    const auto spec = netlist::spec_for(source.benchmark, source.scaled);
    if (!spec) {
      return util::Status::invalid_input("unknown benchmark " +
                                         source.benchmark);
    }
    job->spec = *spec;
  } else if (source.spec.has_value()) {
    job->spec = *source.spec;
  } else {
    std::ifstream in(source.netlist_path);
    if (!in) {
      return util::Status::invalid_input("cannot open " + source.netlist_path);
    }
    std::string parse_error;
    auto parsed = netlist::read_netlist(in, &parse_error);
    if (!parsed) {
      return util::Status::invalid_input("parse error in " +
                                         source.netlist_path + ": " +
                                         parse_error);
    }
    job->netlist = std::move(*parsed);
  }
  core::FlowConfig& config = job->config;
  config.options.style = source.style;
  config.options.consider_dvi = source.consider_dvi;
  config.options.consider_tpl = source.consider_tpl;
  config.dvi_method = source.dvi_method;
  config.ilp_time_limit_seconds = source.ilp_limit_seconds;
  config.degrade_dvi_on_timeout = source.degrade_dvi;
  if (source.partitions > 0) config.options.partitions = source.partitions;
  job->deadline_seconds = source.deadline_seconds;
  return util::Status::ok();
}

util::Status to_flow_jobs(const FlowRequest& request,
                          std::vector<engine::FlowJob>* jobs) {
  jobs->clear();
  jobs->reserve(request.jobs.size());
  for (const JobRequest& source : request.jobs) {
    if (util::Status status =
            to_flow_job(source, request.trace_id, &jobs->emplace_back());
        !status.is_ok()) {
      return status;
    }
  }
  return util::Status::ok();
}

engine::EngineOptions engine_options(const FlowRequest& request) {
  engine::EngineOptions options;
  options.num_workers = request.workers;
  options.batch_deadline_seconds = request.batch_deadline_seconds;
  options.fail_fast = !request.keep_going;
  options.journal_path = request.journal_path;
  options.resume = request.resume;
  options.journal_sync = request.journal_sync;
  return options;
}

std::string response_row_line(const engine::JobOutcome& outcome,
                              std::size_t done, std::size_t total,
                              const char* cache, const std::string& trace_id,
                              const std::string& span_id) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kResponseSchema);
  json.key("type").value("row");
  json.key("done").value(done);
  json.key("total").value(total);
  // Trace context lives in the framing only, so a traced row's outcome
  // object is byte-identical to an untraced one's.
  if (!trace_id.empty()) json.key("trace_id").value(trace_id);
  if (!span_id.empty()) json.key("span_id").value(span_id);
  if (cache != nullptr) json.key("cache").value(cache);
  // The outcome payload is the journal record itself.
  json.key("outcome");
  engine::write_outcome_object(json, outcome);
  json.end_object();
  return json.str();
}

std::string response_summary_line(const ResponseSummary& summary) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kResponseSchema);
  json.key("type").value("batch");
  json.key("jobs").value(summary.jobs);
  json.key("ok").value(summary.ok);
  json.key("degraded").value(summary.degraded);
  json.key("failed").value(summary.failed);
  json.key("timed_out").value(summary.timed_out);
  json.key("cancelled").value(summary.cancelled);
  json.key("resumed").value(summary.resumed);
  json.key("cache_hits").value(summary.cache_hits);
  json.key("cache_misses").value(summary.cache_misses);
  json.key("workers").value(summary.workers);
  json.key("wall_seconds").value(summary.wall_seconds);
  if (!summary.trace_id.empty()) {
    json.key("trace_id").value(summary.trace_id);
    json.key("recv_unix_us").value(static_cast<long long>(summary.recv_unix_us));
    json.key("sent_unix_us").value(static_cast<long long>(summary.sent_unix_us));
  }
  json.end_object();
  return json.str();
}

void ResponseSummary::tally(engine::JobStatus status,
                            bool from_journal) noexcept {
  switch (status) {
    case engine::JobStatus::kOk: ++ok; break;
    case engine::JobStatus::kDegraded: ++degraded; break;
    case engine::JobStatus::kFailed: ++failed; break;
    case engine::JobStatus::kTimeout: ++timed_out; break;
    case engine::JobStatus::kCancelled: ++cancelled; break;
  }
  if (from_journal) ++resumed;
}

std::string response_error_line(const util::Status& error) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kResponseSchema);
  json.key("type").value("error");
  json.key("code").value(util::status_code_name(error.code()));
  json.key("message").value(error.message());
  json.end_object();
  return json.str();
}

std::optional<ResponseEvent> parse_response_line(std::string_view line,
                                                 std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<ResponseEvent> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = util::parse_json(line, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail("response is not a JSON object: " + parse_error);
  }
  const util::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != kResponseSchema) {
    return fail(std::string("response schema mismatch (want ") +
                kResponseSchema + ")");
  }
  const util::JsonValue* type = doc->find("type");
  if (type == nullptr || !type->is_string()) {
    return fail("field 'type' must be a string");
  }

  ResponseEvent event;
  std::string field_error;
  if (type->string_value == "row") {
    event.kind = ResponseEvent::Kind::kRow;
    if (!util::read_json_int(*doc, "done", &event.done, &field_error) ||
        !util::read_json_int(*doc, "total", &event.total, &field_error)) {
      return fail(field_error);
    }
    // Optional: absent on rows from pre-cache daemons and non-cache paths.
    if (!read_string(*doc, "cache", &event.cache, &field_error) ||
        !read_string(*doc, "trace_id", &event.trace_id, &field_error) ||
        !read_string(*doc, "span_id", &event.span_id, &field_error)) {
      return fail(field_error);
    }
    const util::JsonValue* outcome = doc->find("outcome");
    if (outcome == nullptr) return fail("row without an 'outcome' object");
    auto parsed = engine::parse_outcome_object(*outcome, &field_error);
    if (!parsed) return fail(field_error);
    event.outcome = std::move(*parsed);
    return event;
  }
  if (type->string_value == "batch") {
    event.kind = ResponseEvent::Kind::kBatch;
    // Cache counters are optional (absent = 0): summaries written before
    // the result cache existed must keep parsing.  Trace context is optional
    // the same way: untraced and pre-telemetry summaries parse with
    // empty/zero context.
    ResponseSummary& s = event.summary;
    if (!util::read_json_int(*doc, "cache_hits", &s.cache_hits, &field_error) ||
        !util::read_json_int(*doc, "cache_misses", &s.cache_misses,
                             &field_error) ||
        !util::read_json_int(*doc, "jobs", &s.jobs, &field_error) ||
        !util::read_json_int(*doc, "ok", &s.ok, &field_error) ||
        !util::read_json_int(*doc, "degraded", &s.degraded, &field_error) ||
        !util::read_json_int(*doc, "failed", &s.failed, &field_error) ||
        !util::read_json_int(*doc, "timed_out", &s.timed_out, &field_error) ||
        !util::read_json_int(*doc, "cancelled", &s.cancelled, &field_error) ||
        !util::read_json_int(*doc, "resumed", &s.resumed, &field_error) ||
        !util::read_json_int(*doc, "workers", &s.workers, &field_error) ||
        !read_number(*doc, "wall_seconds", &s.wall_seconds, &field_error) ||
        !read_string(*doc, "trace_id", &s.trace_id, &field_error) ||
        !util::read_json_int(*doc, "recv_unix_us", &s.recv_unix_us,
                             &field_error) ||
        !util::read_json_int(*doc, "sent_unix_us", &s.sent_unix_us,
                             &field_error)) {
      return fail(field_error);
    }
    return event;
  }
  if (type->string_value == "delta") {
    event.kind = ResponseEvent::Kind::kDelta;
    core::EcoSummary& d = event.delta;
    if (!util::read_json_int(*doc, "nets_ripped", &d.nets_ripped,
                             &field_error) ||
        !util::read_json_int(*doc, "nets_untouched", &d.nets_untouched,
                             &field_error) ||
        !util::read_json_int(*doc, "nets_total", &d.nets_total, &field_error) ||
        !util::read_json_int(*doc, "changes", &d.changes, &field_error) ||
        !read_number(*doc, "load_seconds", &d.load_seconds, &field_error) ||
        !read_string(*doc, "base_fingerprint", &d.base_fingerprint,
                     &field_error) ||
        !read_string(*doc, "trace_id", &event.trace_id, &field_error)) {
      return fail(field_error);
    }
    if (const util::JsonValue* ids = doc->find("ripped_ids")) {
      if (!ids->is_array()) return fail("field 'ripped_ids' must be an array");
      for (const util::JsonValue& id : ids->array) {
        grid::NetId net = 0;
        if (!util::json_int(id, "ripped_ids", &net, &field_error)) {
          return fail(field_error);
        }
        d.ripped_ids.push_back(net);
      }
    }
    return event;
  }
  if (type->string_value == "error") {
    event.kind = ResponseEvent::Kind::kError;
    std::string code;
    std::string message;
    if (!read_string(*doc, "code", &code, &field_error) ||
        !read_string(*doc, "message", &message, &field_error)) {
      return fail(field_error);
    }
    event.error = util::Status(util::parse_status_code(code), message);
    return event;
  }
  return fail("unknown response type '" + type->string_value + "'");
}

DispatchResult dispatch(const FlowRequest& request,
                        const DispatchOptions& options) {
  DispatchResult out;
  out.status = validate(request);
  if (!out.status.is_ok()) return out;

  std::vector<engine::FlowJob> jobs;
  out.status = to_flow_jobs(request, &jobs);
  if (!out.status.is_ok()) return out;
  if (options.keep_router) {
    for (engine::FlowJob& job : jobs) job.keep_router = true;
  }

  engine::EngineOptions engine_opts = engine_options(request);
  if (options.max_workers > 0 &&
      (engine_opts.num_workers == 0 ||
       engine_opts.num_workers > options.max_workers)) {
    engine_opts.num_workers = options.max_workers;
  }
  engine_opts.on_job_done = options.on_job_done;
  engine_opts.cancel = options.cancel;
  engine_opts.drain = options.drain;
  engine_opts.executor = options.executor;

  out.workers = engine::FlowEngine::resolve_workers(engine_opts.num_workers);
  util::Timer wall;
  out.batch = engine::FlowEngine(engine_opts).run(std::move(jobs));
  out.wall_seconds = wall.seconds();
  return out;
}

}  // namespace sadp::api
