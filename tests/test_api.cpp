// api::FlowRequest / FlowResponse: schema round-trips, validation, and the
// shared dispatch path every front end (CLI, daemon, client) goes through.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/control.hpp"
#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "engine/flow_engine.hpp"
#include "engine/journal.hpp"
#include "util/json.hpp"

namespace {

using namespace sadp;

netlist::BenchSpec tiny_spec(const char* name, int side = 40, int nets = 15) {
  netlist::BenchSpec spec;
  spec.name = name;
  spec.width = side;
  spec.height = side;
  spec.num_nets = nets;
  return spec;
}

api::FlowRequest tiny_request() {
  api::FlowRequest request;
  request.keep_going = true;
  api::JobRequest job;
  job.label = "api_a";
  job.spec = tiny_spec("api_a");
  job.dvi_method = core::DviMethod::kHeuristic;
  request.jobs.push_back(job);
  return request;
}

/// The non-timing payload of an ExperimentResult, for equality checks.
std::string result_fingerprint(const core::ExperimentResult& r) {
  std::string out = r.benchmark;
  out += '|' + std::to_string(r.routing.routed_all);
  out += '|' + std::to_string(r.routing.wirelength);
  out += '|' + std::to_string(r.routing.via_count);
  out += '|' + std::to_string(r.routing.rr_iterations);
  out += '|' + std::to_string(r.single_vias);
  out += '|' + std::to_string(r.dvi_candidates);
  out += '|' + std::to_string(r.dvi.dead_vias);
  out += '|' + std::to_string(r.dvi.uncolorable);
  for (const int dvic : r.dvi.inserted) out += ',' + std::to_string(dvic);
  return out;
}

TEST(FlowApi, RequestRoundTripsThroughTheWireFormat) {
  api::FlowRequest request;
  request.workers = 3;
  request.batch_deadline_seconds = 12.5;
  request.keep_going = true;
  request.journal_path = "runs.jsonl";
  request.resume = true;

  api::JobRequest by_benchmark;
  by_benchmark.label = "row1";
  by_benchmark.arm = "armA";
  by_benchmark.benchmark = "ecc";
  by_benchmark.scaled = false;
  by_benchmark.style = grid::SadpStyle::kSid;
  by_benchmark.consider_dvi = false;
  by_benchmark.dvi_method = core::DviMethod::kExact;
  by_benchmark.ilp_limit_seconds = 7.0;
  by_benchmark.degrade_dvi = true;
  by_benchmark.deadline_seconds = 3.0;
  request.jobs.push_back(by_benchmark);

  api::JobRequest by_spec;
  by_spec.label = "row2";
  by_spec.spec = tiny_spec("gen", 48, 20);
  by_spec.spec->row_structured = true;
  by_spec.spec->seed = 1234;
  request.jobs.push_back(by_spec);

  api::JobRequest by_file;
  by_file.label = "row3";
  by_file.netlist_path = "/tmp/design.nl";
  request.jobs.push_back(by_file);

  const std::string line = api::serialize_request(request);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line, NDJSON framing

  std::string error;
  const auto parsed = api::parse_request(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->workers, 3);
  EXPECT_DOUBLE_EQ(parsed->batch_deadline_seconds, 12.5);
  EXPECT_TRUE(parsed->keep_going);
  EXPECT_EQ(parsed->journal_path, "runs.jsonl");
  EXPECT_TRUE(parsed->resume);
  ASSERT_EQ(parsed->jobs.size(), 3u);

  const api::JobRequest& j0 = parsed->jobs[0];
  EXPECT_EQ(j0.label, "row1");
  EXPECT_EQ(j0.arm, "armA");
  EXPECT_EQ(j0.benchmark, "ecc");
  EXPECT_FALSE(j0.scaled);
  EXPECT_EQ(j0.style, grid::SadpStyle::kSid);
  EXPECT_FALSE(j0.consider_dvi);
  EXPECT_EQ(j0.dvi_method, core::DviMethod::kExact);
  EXPECT_DOUBLE_EQ(j0.ilp_limit_seconds, 7.0);
  EXPECT_TRUE(j0.degrade_dvi);
  EXPECT_DOUBLE_EQ(j0.deadline_seconds, 3.0);

  const api::JobRequest& j1 = parsed->jobs[1];
  ASSERT_TRUE(j1.spec.has_value());
  EXPECT_EQ(j1.spec->name, "gen");
  EXPECT_EQ(j1.spec->width, 48);
  EXPECT_EQ(j1.spec->num_nets, 20);
  EXPECT_TRUE(j1.spec->row_structured);
  EXPECT_EQ(j1.spec->seed, 1234u);

  EXPECT_EQ(parsed->jobs[2].netlist_path, "/tmp/design.nl");

  // One job with every member off its default, and one default job.  The
  // bytes are pinned (a deployed daemon and the result cache's keys read
  // them), and every member survives the round trip.  A wire job carries
  // several instance sources here only because the codec does not
  // validate; validate_job would reject it.
  api::JobRequest every;
  every.label = "full";
  every.arm = "armB";
  every.span_id = "00000000000000ab";
  every.benchmark = "efc";
  every.scaled = false;
  every.spec = tiny_spec("inline", 36, 9);
  every.spec->num_metal_layers = 4;
  every.spec->local_radius = 5;
  every.spec->global_net_fraction = 0.25;
  every.spec->min_pin_spacing = 2;
  every.spec->row_structured = true;
  every.spec->row_pitch = 8;
  every.spec->seed = 99;
  every.spec->scale = 2.5;
  every.netlist_path = "d.nl";
  every.style = grid::SadpStyle::kSid;
  every.consider_dvi = false;
  every.consider_tpl = false;
  every.dvi_method = core::DviMethod::kExact;
  every.ilp_limit_seconds = 7.5;
  every.degrade_dvi = true;
  every.deadline_seconds = 2.25;
  every.partitions = 4;
  api::FlowRequest pinned;
  pinned.jobs = {every, api::JobRequest{}};

  const std::string every_job =
      R"({"label":"full","arm":"armB","span_id":"00000000000000ab",)"
      R"("benchmark":"efc","scaled":false,"spec":{"name":"inline",)"
      R"("width":36,"height":36,"num_nets":9,"num_metal_layers":4,)"
      R"("local_radius":5,"global_net_fraction":0.25,"min_pin_spacing":2,)"
      R"("row_structured":true,"row_pitch":8,"seed":99,"scale":2.5},)"
      R"("netlist_path":"d.nl","style":"SID","consider_dvi":false,)"
      R"("consider_tpl":false,"dvi_method":"exact","ilp_limit":7.5,)"
      R"("degrade_dvi":true,"deadline":2.25,"partitions":4})";
  const std::string default_job =
      R"({"style":"SIM","consider_dvi":true,"consider_tpl":true,)"
      R"("dvi_method":"heuristic","ilp_limit":60,"degrade_dvi":false,)"
      R"("deadline":0})";
  EXPECT_EQ(api::serialize_request(pinned),
            R"({"schema":"sadp.flow_request.v1","workers":0,)"
            R"("batch_deadline":0,"keep_going":false,"journal":"",)"
            R"("resume":false,"journal_sync":"batch","jobs":[)" +
                every_job + "," + default_job + "]}");
  api::FlowDeltaRequest delta;
  delta.base = every;
  EXPECT_EQ(api::serialize_delta_request(delta),
            R"({"schema":"sadp.flow_delta.v1","base":)" + every_job +
                R"(,"changes":[]})");

  const auto back = api::parse_request(api::serialize_request(pinned), &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->jobs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const api::JobRequest& want = pinned.jobs[i];
    const api::JobRequest& got = back->jobs[i];
    EXPECT_EQ(got.label, want.label);
    EXPECT_EQ(got.arm, want.arm);
    EXPECT_EQ(got.span_id, want.span_id);
    EXPECT_EQ(got.benchmark, want.benchmark);
    EXPECT_EQ(got.scaled, want.scaled);
    ASSERT_EQ(got.spec.has_value(), want.spec.has_value());
    if (want.spec.has_value()) {
      EXPECT_EQ(got.spec->name, want.spec->name);
      EXPECT_EQ(got.spec->width, want.spec->width);
      EXPECT_EQ(got.spec->height, want.spec->height);
      EXPECT_EQ(got.spec->num_nets, want.spec->num_nets);
      EXPECT_EQ(got.spec->num_metal_layers, want.spec->num_metal_layers);
      EXPECT_EQ(got.spec->local_radius, want.spec->local_radius);
      EXPECT_EQ(got.spec->global_net_fraction,
                want.spec->global_net_fraction);
      EXPECT_EQ(got.spec->min_pin_spacing, want.spec->min_pin_spacing);
      EXPECT_EQ(got.spec->row_structured, want.spec->row_structured);
      EXPECT_EQ(got.spec->row_pitch, want.spec->row_pitch);
      EXPECT_EQ(got.spec->seed, want.spec->seed);
      EXPECT_EQ(got.spec->scale, want.spec->scale);
    }
    EXPECT_EQ(got.netlist_path, want.netlist_path);
    EXPECT_EQ(got.style, want.style);
    EXPECT_EQ(got.consider_dvi, want.consider_dvi);
    EXPECT_EQ(got.consider_tpl, want.consider_tpl);
    EXPECT_EQ(got.dvi_method, want.dvi_method);
    EXPECT_EQ(got.ilp_limit_seconds, want.ilp_limit_seconds);
    EXPECT_EQ(got.degrade_dvi, want.degrade_dvi);
    EXPECT_EQ(got.deadline_seconds, want.deadline_seconds);
    EXPECT_EQ(got.partitions, want.partitions);
  }
}

TEST(FlowApi, ParseRequestRejectsBadInputAndIgnoresUnknownMembers) {
  std::string error;
  EXPECT_FALSE(api::parse_request("not json", &error).has_value());
  EXPECT_FALSE(api::parse_request("{\"schema\":\"wrong.v1\",\"jobs\":[]}",
                                  &error)
                   .has_value());
  EXPECT_NE(error.find("schema"), std::string::npos);

  // A mistyped known field is an error...
  EXPECT_FALSE(
      api::parse_request("{\"schema\":\"sadp.flow_request.v1\","
                         "\"workers\":\"four\",\"jobs\":[]}",
                         &error)
          .has_value());
  // ...an unknown member is forward compatibility, not an error.
  const auto parsed = api::parse_request(
      "{\"schema\":\"sadp.flow_request.v1\",\"future_field\":1,"
      "\"jobs\":[{\"benchmark\":\"ecc\",\"another\":true}]}",
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->jobs.size(), 1u);
  EXPECT_EQ(parsed->jobs[0].benchmark, "ecc");

  // Unknown style / dvi_method names are errors (they silently change what
  // would run otherwise).
  EXPECT_FALSE(api::parse_request(
                   "{\"schema\":\"sadp.flow_request.v1\","
                   "\"jobs\":[{\"benchmark\":\"ecc\",\"style\":\"EUV\"}]}",
                   &error)
                   .has_value());
}

TEST(FlowApi, IntegerFieldsMustBeExactAndInRange) {
  // Every integer member goes through one checked narrowing: a value that
  // is fractional, out of the field's range, or not exactly representable
  // (seeds at or past 2^53) is a field error, never an undefined cast.
  api::FlowRequest request = tiny_request();
  request.jobs[0].spec->seed = 7;
  const std::string line = api::serialize_request(request);
  const std::size_t seed_at = line.find("\"seed\":7");
  ASSERT_NE(seed_at, std::string::npos) << line;
  const auto with_seed = [&](const std::string& value) {
    std::string edited = line;
    edited.replace(seed_at, 8, "\"seed\":" + value);
    return edited;
  };
  std::string error;
  for (const char* bad : {"-1", "1.5", "9007199254740992", "1e30", "\"7\""}) {
    EXPECT_FALSE(api::parse_request(with_seed(bad), &error).has_value()) << bad;
    EXPECT_NE(error.find("field 'seed' must be an integer in [0, "
                         "9007199254740991]"),
              std::string::npos)
        << error;
  }
  const auto largest = api::parse_request(with_seed("9007199254740991"), &error);
  ASSERT_TRUE(largest.has_value()) << error;
  EXPECT_EQ(largest->jobs[0].spec->seed, 9007199254740991u);

  for (const char* bad :
       {R"({"schema":"sadp.flow_request.v1","workers":1e30,"jobs":[]})",
        R"({"schema":"sadp.flow_request.v1","workers":-2147483649,"jobs":[]})",
        R"({"schema":"sadp.flow_request.v1","workers":0.5,"jobs":[]})",
        R"({"schema":"sadp.flow_request.v1","sent_unix_us":1e30,"jobs":[]})",
        R"({"schema":"sadp.flow_request.v1","jobs":[{"benchmark":"ecc","partitions":1e30}]})",
        R"({"schema":"sadp.flow_request.v1","jobs":[{"spec":{"name":"g","width":1e10}}]})"}) {
    EXPECT_FALSE(api::parse_request(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("must be an integer"), std::string::npos) << error;
  }

  // Both deadline members are bounded as well: finite, and at most the
  // ceiling that keeps the token's tick cast in range.  "1e400" parses to
  // +inf; NaN fails every comparison, so only an explicit range check
  // catches it.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double seconds :
       {1e30, inf, std::numeric_limits<double>::quiet_NaN(),
        util::kMaxDeadlineSeconds * 10, util::kMaxDeadlineSeconds}) {
    const bool accepted = seconds == util::kMaxDeadlineSeconds;
    api::FlowRequest job_deadline = tiny_request();
    job_deadline.jobs[0].deadline_seconds = seconds;
    api::FlowRequest batch_deadline = tiny_request();
    batch_deadline.batch_deadline_seconds = seconds;
    for (const api::FlowRequest& edited : {job_deadline, batch_deadline}) {
      const util::Status valid = api::validate(edited);
      EXPECT_EQ(valid.is_ok(), accepted) << seconds;
      if (!accepted) {
        EXPECT_NE(valid.message().find("deadline must be in [0, 1e9] seconds"),
                  std::string::npos)
            << valid.message();
      }
    }
  }
  const auto huge = api::parse_request(
      R"({"schema":"sadp.flow_request.v1","batch_deadline":1e400,)"
      R"("jobs":[{"benchmark":"ecc","deadline":1e400}]})",
      &error);
  ASSERT_TRUE(huge.has_value()) << error;
  EXPECT_EQ(huge->batch_deadline_seconds, inf);
  EXPECT_EQ(api::validate(*huge).code(), util::StatusCode::kInvalidInput);
  EXPECT_EQ(api::validate_job(huge->jobs[0], "job 0").code(),
            util::StatusCode::kInvalidInput);

  // ilp_limit takes the deadlines' range: a NaN or infinite limit never
  // runs out, and "1e400" parses to +inf.
  for (const double seconds :
       {-1.0, 1e30, std::numeric_limits<double>::quiet_NaN(),
        util::kMaxDeadlineSeconds}) {
    const bool accepted = seconds == util::kMaxDeadlineSeconds;
    api::FlowRequest limited = tiny_request();
    limited.jobs[0].ilp_limit_seconds = seconds;
    const util::Status valid = api::validate(limited);
    EXPECT_EQ(valid.is_ok(), accepted) << seconds;
    if (!accepted) {
      EXPECT_NE(valid.message().find("ilp_limit must be in [0, 1e9] seconds"),
                std::string::npos)
          << valid.message();
    }
  }
  const auto huge_limit = api::parse_request(
      R"({"schema":"sadp.flow_request.v1","jobs":[{"benchmark":"ecc","ilp_limit":1e400}]})",
      &error);
  ASSERT_TRUE(huge_limit.has_value()) << error;
  EXPECT_EQ(huge_limit->jobs[0].ilp_limit_seconds, inf);
  EXPECT_EQ(api::validate_job(huge_limit->jobs[0], "job 0").code(),
            util::StatusCode::kInvalidInput);

  // Response lines: counts are non-negative, ids fit an int.
  const std::string prefix = R"({"schema":"sadp.flow_response.v1",)";
  for (const std::string& bad :
       {prefix + R"("type":"batch","jobs":-1})",
        prefix + R"("type":"batch","recv_unix_us":1e300})",
        prefix + R"("type":"delta","nets_total":1e30})",
        prefix + R"("type":"delta","ripped_ids":[1e30]})",
        prefix + R"("type":"row","done":0.5})"}) {
    EXPECT_FALSE(api::parse_response_line(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("must be an integer"), std::string::npos) << error;
  }

  // The row's embedded outcome (the journal record) is held to the same
  // rule: counts are non-negative integers that fit their field.
  engine::JobOutcome outcome;
  outcome.label = "row_ints";
  const std::string row = api::response_row_line(outcome, 1, 1);
  ASSERT_TRUE(api::parse_response_line(row, &error).has_value()) << error;
  for (const auto& [field, value] : {std::pair{"wirelength", "1e30"},
                                     std::pair{"via_count", "0.5"},
                                     std::pair{"maze_pops", "-1"}}) {
    const std::string member = std::string("\"") + field + "\":0";
    const std::size_t at = row.find(member);
    ASSERT_NE(at, std::string::npos) << field;
    std::string bad = row;
    bad.replace(at, member.size(), std::string("\"") + field + "\":" + value);
    EXPECT_FALSE(api::parse_response_line(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("field '" + std::string(field) + "' must be an integer"),
              std::string::npos)
        << error;
  }

  // Optional members may be absent (older journals), never mistyped: a
  // present one of the wrong type makes the record malformed.  A
  // partitioned row carries the partition timing members.
  outcome.result.routing.partitions = 2;
  const std::string sharded = api::response_row_line(outcome, 1, 1);
  ASSERT_TRUE(api::parse_response_line(sharded, &error).has_value()) << error;
  for (const auto& [field, value] :
       {std::pair<std::string, std::string>{"from_journal", "0"},
        {"partition_seconds", "\"0\""},
        {"reconcile_seconds", "true"},
        {"boundary_seconds", "null"},
        {"merge_seconds", "[]"},
        {"region_seconds_max", "{}"},
        {"region_seconds_mean", "\"fast\""}}) {
    const std::string member = "\"" + field + "\":";
    const std::size_t at = sharded.find(member);
    ASSERT_NE(at, std::string::npos) << field;
    const std::size_t from = at + member.size();
    std::string bad = sharded;
    bad.replace(from, sharded.find_first_of(",}", from) - from, value);
    EXPECT_FALSE(api::parse_response_line(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("malformed journal record for label 'row_ints': "
                         "field '" + field + "' must be a"),
              std::string::npos)
        << error;
  }
}

TEST(FlowApi, ValidateCatchesStructuralErrors) {
  api::FlowRequest empty;
  EXPECT_EQ(api::validate(empty).code(), util::StatusCode::kInvalidInput);

  api::FlowRequest two_sources = tiny_request();
  two_sources.jobs[0].benchmark = "ecc";  // spec is set too
  EXPECT_EQ(api::validate(two_sources).code(),
            util::StatusCode::kInvalidInput);

  api::FlowRequest no_source = tiny_request();
  no_source.jobs[0].spec.reset();
  EXPECT_EQ(api::validate(no_source).code(), util::StatusCode::kInvalidInput);

  api::FlowRequest resume_without_journal = tiny_request();
  resume_without_journal.resume = true;
  EXPECT_EQ(api::validate(resume_without_journal).code(),
            util::StatusCode::kInvalidInput);

  api::FlowRequest negative_deadline = tiny_request();
  negative_deadline.jobs[0].deadline_seconds = -1.0;
  EXPECT_EQ(api::validate(negative_deadline).code(),
            util::StatusCode::kInvalidInput);

  // Duplicate effective labels alias rows (and the resume journal).
  api::FlowRequest duplicates = tiny_request();
  duplicates.jobs.push_back(duplicates.jobs[0]);
  const util::Status dup = api::validate(duplicates);
  EXPECT_EQ(dup.code(), util::StatusCode::kInvalidInput);
  EXPECT_NE(dup.message().find("duplicate"), std::string::npos);

  EXPECT_TRUE(api::validate(tiny_request()).is_ok());
}

TEST(FlowApi, UnknownBenchmarkFailsAtMaterialization) {
  api::FlowRequest request;
  api::JobRequest job;
  job.benchmark = "nosuchckt";
  request.jobs.push_back(job);
  const api::DispatchResult run = api::dispatch(request);
  EXPECT_EQ(run.status.code(), util::StatusCode::kInvalidInput);
  EXPECT_NE(run.status.message().find("unknown benchmark nosuchckt"),
            std::string::npos);
  EXPECT_TRUE(run.batch.outcomes.empty());  // nothing executed
}

TEST(FlowApi, DispatchMatchesDirectFlowEngine) {
  // The api layer is plumbing, not policy: dispatching a request must
  // produce the same rows as hand-assembling the jobs.
  api::FlowRequest request = tiny_request();
  api::JobRequest second;
  second.label = "api_b";
  second.spec = tiny_spec("api_b", 44, 18);
  second.dvi_method = core::DviMethod::kHeuristic;
  request.jobs.push_back(second);

  const api::DispatchResult via_api = api::dispatch(request);
  ASSERT_TRUE(via_api.status.is_ok());

  std::vector<engine::FlowJob> jobs;
  ASSERT_TRUE(api::to_flow_jobs(request, &jobs).is_ok());
  const engine::BatchResult direct =
      engine::FlowEngine(api::engine_options(request)).run(std::move(jobs));

  ASSERT_EQ(via_api.batch.outcomes.size(), direct.outcomes.size());
  for (std::size_t i = 0; i < direct.outcomes.size(); ++i) {
    EXPECT_EQ(via_api.batch.outcomes[i].label, direct.outcomes[i].label);
    EXPECT_EQ(result_fingerprint(via_api.batch.outcomes[i].result),
              result_fingerprint(direct.outcomes[i].result));
  }
  EXPECT_GE(via_api.workers, 1);
  EXPECT_GE(via_api.wall_seconds, 0.0);
}

TEST(FlowApi, ResponseRowEmbedsTheJournalObjectBitIdentically) {
  const api::DispatchResult run = api::dispatch(tiny_request());
  ASSERT_TRUE(run.status.is_ok());
  ASSERT_EQ(run.batch.outcomes.size(), 1u);
  const engine::JobOutcome& outcome = run.batch.outcomes[0];

  const std::string line = api::response_row_line(outcome, 1, 1);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  // The embedded outcome object IS the journal record, byte for byte.
  EXPECT_NE(line.find(engine::journal_line(outcome)), std::string::npos);

  std::string error;
  const auto event = api::parse_response_line(line, &error);
  ASSERT_TRUE(event.has_value()) << error;
  EXPECT_EQ(event->kind, api::ResponseEvent::Kind::kRow);
  EXPECT_EQ(event->done, 1u);
  EXPECT_EQ(event->total, 1u);
  EXPECT_EQ(event->outcome.label, outcome.label);
  EXPECT_EQ(event->outcome.status, outcome.status);
  EXPECT_EQ(result_fingerprint(event->outcome.result),
            result_fingerprint(outcome.result));
  // A row serialized again is identical to the first serialization: the
  // schema loses nothing a journal resume (or a remote client) needs.
  EXPECT_EQ(api::response_row_line(event->outcome, 1, 1), line);
}

TEST(FlowApi, SummaryAndErrorLinesRoundTrip) {
  api::ResponseSummary batch;
  batch.jobs = 5;
  batch.workers = 4;
  batch.wall_seconds = 2.25;
  batch.tally(engine::JobStatus::kOk, /*from_journal=*/true);
  batch.tally(engine::JobStatus::kOk, /*from_journal=*/true);
  batch.tally(engine::JobStatus::kDegraded);
  batch.tally(engine::JobStatus::kFailed);
  batch.tally(engine::JobStatus::kCancelled);
  std::string error;
  const auto summary = api::parse_response_line(
      api::response_summary_line(batch), &error);
  ASSERT_TRUE(summary.has_value()) << error;
  EXPECT_EQ(summary->kind, api::ResponseEvent::Kind::kBatch);
  EXPECT_EQ(summary->summary.jobs, 5u);
  EXPECT_EQ(summary->summary.ok, 2u);
  EXPECT_EQ(summary->summary.degraded, 1u);
  EXPECT_EQ(summary->summary.failed, 1u);
  EXPECT_EQ(summary->summary.cancelled, 1u);
  EXPECT_EQ(summary->summary.resumed, 2u);
  EXPECT_EQ(summary->summary.workers, 4);
  EXPECT_DOUBLE_EQ(summary->summary.wall_seconds, 2.25);

  const auto overload = api::parse_response_line(api::response_error_line(
      util::Status::resource_exhausted("server at capacity")));
  ASSERT_TRUE(overload.has_value());
  EXPECT_EQ(overload->kind, api::ResponseEvent::Kind::kError);
  EXPECT_EQ(overload->error.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(overload->error.message(), "server at capacity");
}

TEST(FlowApi, StyleAndMethodNamesParseBothWays) {
  for (const grid::SadpStyle s :
       {grid::SadpStyle::kSim, grid::SadpStyle::kSid, grid::SadpStyle::kSaqpSim,
        grid::SadpStyle::kSimTrim}) {
    const auto parsed = grid::parse_style(grid::style_name(s));
    ASSERT_TRUE(parsed.has_value()) << grid::style_name(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(grid::parse_style("EUV").has_value());
  for (const core::DviMethod m :
       {core::DviMethod::kIlp, core::DviMethod::kHeuristic,
        core::DviMethod::kExact}) {
    const auto parsed = core::parse_dvi_method(core::dvi_method_name(m));
    ASSERT_TRUE(parsed.has_value()) << core::dvi_method_name(m);
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(core::parse_dvi_method("oracle").has_value());
}

TEST(FlowApi, RowCacheMemberIsOptionalAndForwardCompatible) {
  const api::DispatchResult run = api::dispatch(tiny_request());
  ASSERT_TRUE(run.status.is_ok());
  const engine::JobOutcome& outcome = run.batch.outcomes[0];

  // Without the member: parses, cache empty (pre-cache daemons).
  const auto plain =
      api::parse_response_line(api::response_row_line(outcome, 1, 1));
  ASSERT_TRUE(plain.has_value());
  EXPECT_TRUE(plain->cache.empty());

  // With the member: round trips.
  const std::string hit_line = api::response_row_line(outcome, 1, 1, "hit");
  EXPECT_NE(hit_line.find("\"cache\":\"hit\""), std::string::npos);
  const auto hit = api::parse_response_line(hit_line);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cache, "hit");
  // The embedded journal object is unchanged by the framing member.
  EXPECT_NE(hit_line.find(engine::journal_line(outcome)), std::string::npos);

  // Unknown framing members are ignored (newer daemons, older clients).
  std::string extended = hit_line;
  extended.insert(extended.find("\"outcome\""), "\"shard\":7,");
  EXPECT_TRUE(api::parse_response_line(extended).has_value());
}

TEST(FlowApi, SummaryCacheCountersAreOptionalOnParse) {
  api::ResponseSummary summary;
  summary.jobs = 3;
  summary.ok = 3;
  summary.cache_hits = 2;
  summary.cache_misses = 1;
  summary.workers = 2;
  summary.wall_seconds = 0.5;
  const std::string line = api::response_summary_line(summary);
  const auto event = api::parse_response_line(line);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->summary.cache_hits, 2u);
  EXPECT_EQ(event->summary.cache_misses, 1u);

  // A pre-cache summary (no counters on the wire) still parses, counters 0.
  std::string old_line = line;
  const std::size_t hits_at = old_line.find(",\"cache_hits\"");
  ASSERT_NE(hits_at, std::string::npos);
  const std::size_t workers_at = old_line.find(",\"workers\"");
  ASSERT_NE(workers_at, std::string::npos);
  old_line.erase(hits_at, workers_at - hits_at);
  const auto old_event = api::parse_response_line(old_line);
  ASSERT_TRUE(old_event.has_value());
  EXPECT_EQ(old_event->kind, api::ResponseEvent::Kind::kBatch);
  EXPECT_EQ(old_event->summary.jobs, 3u);
  EXPECT_EQ(old_event->summary.cache_hits, 0u);
  EXPECT_EQ(old_event->summary.cache_misses, 0u);
}

TEST(FlowApi, TraceContextIsOptionalAndRoundTrips) {
  // Untraced requests serialize to their exact pre-telemetry bytes: no
  // trace members on the wire at all.
  api::FlowRequest request = tiny_request();
  const std::string untraced = api::serialize_request(request);
  EXPECT_EQ(untraced.find("trace_id"), std::string::npos);
  EXPECT_EQ(untraced.find("span_id"), std::string::npos);
  EXPECT_EQ(untraced.find("sent_unix_us"), std::string::npos);

  api::ensure_trace_context(&request);
  EXPECT_EQ(request.trace_id.size(), 16u);
  EXPECT_EQ(request.trace_id.find_first_not_of("0123456789abcdef"),
            std::string::npos);
  ASSERT_EQ(request.jobs.size(), 1u);
  EXPECT_EQ(request.jobs[0].span_id.size(), 16u);
  EXPECT_NE(request.jobs[0].span_id, request.trace_id);
  EXPECT_GT(request.sent_unix_us, 0);
  EXPECT_NE(api::mint_trace_id(), api::mint_trace_id());

  // Re-ensuring is a no-op: the upstream hop owns the trace, so the
  // dispatcher can call this unconditionally on relayed requests.
  const std::string minted = request.trace_id;
  const std::string span = request.jobs[0].span_id;
  api::ensure_trace_context(&request);
  EXPECT_EQ(request.trace_id, minted);
  EXPECT_EQ(request.jobs[0].span_id, span);

  std::string error;
  const auto parsed =
      api::parse_request(api::serialize_request(request), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->trace_id, minted);
  EXPECT_EQ(parsed->sent_unix_us, request.sent_unix_us);
  ASSERT_EQ(parsed->jobs.size(), 1u);
  EXPECT_EQ(parsed->jobs[0].span_id, span);

  // The context rides through to the engine jobs the daemon runs.
  std::vector<engine::FlowJob> jobs;
  ASSERT_TRUE(api::to_flow_jobs(*parsed, &jobs).is_ok());
  EXPECT_EQ(jobs[0].trace_id, minted);
  EXPECT_EQ(jobs[0].span_id, span);
}

TEST(FlowApi, TracedRowFramingKeepsTheJournalObjectByteIdentical) {
  const api::DispatchResult run = api::dispatch(tiny_request());
  ASSERT_TRUE(run.status.is_ok());
  const engine::JobOutcome& outcome = run.batch.outcomes[0];

  const std::string plain = api::response_row_line(outcome, 1, 1);
  const std::string traced = api::response_row_line(
      outcome, 1, 1, nullptr, "0123456789abcdef", "fedcba9876543210");
  EXPECT_NE(traced.find("\"trace_id\":\"0123456789abcdef\""),
            std::string::npos);
  EXPECT_NE(traced.find("\"span_id\":\"fedcba9876543210\""),
            std::string::npos);
  // Trace context lives in the framing only; the embedded journal object
  // is the same bytes either way.
  EXPECT_NE(plain.find(engine::journal_line(outcome)), std::string::npos);
  EXPECT_NE(traced.find(engine::journal_line(outcome)), std::string::npos);

  const auto event = api::parse_response_line(traced);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->trace_id, "0123456789abcdef");
  EXPECT_EQ(event->span_id, "fedcba9876543210");
  EXPECT_EQ(result_fingerprint(event->outcome.result),
            result_fingerprint(outcome.result));

  // An untraced row (older daemon) parses with empty context.
  const auto old_event = api::parse_response_line(plain);
  ASSERT_TRUE(old_event.has_value());
  EXPECT_TRUE(old_event->trace_id.empty());
  EXPECT_TRUE(old_event->span_id.empty());
}

TEST(FlowApi, SummaryTraceContextRoundTripsAndIsOptional) {
  api::ResponseSummary summary;
  summary.jobs = 1;
  summary.ok = 1;
  summary.workers = 2;
  summary.wall_seconds = 0.5;
  const std::string untraced_line = api::response_summary_line(summary);
  EXPECT_EQ(untraced_line.find("trace_id"), std::string::npos);
  const auto untraced = api::parse_response_line(untraced_line);
  ASSERT_TRUE(untraced.has_value());
  EXPECT_TRUE(untraced->summary.trace_id.empty());
  EXPECT_EQ(untraced->summary.recv_unix_us, 0);
  EXPECT_EQ(untraced->summary.sent_unix_us, 0);

  summary.trace_id = "0123456789abcdef";
  summary.recv_unix_us = 1'700'000'000'000'000;
  summary.sent_unix_us = 1'700'000'000'250'000;
  const auto traced =
      api::parse_response_line(api::response_summary_line(summary));
  ASSERT_TRUE(traced.has_value());
  EXPECT_EQ(traced->kind, api::ResponseEvent::Kind::kBatch);
  EXPECT_EQ(traced->summary.trace_id, "0123456789abcdef");
  EXPECT_EQ(traced->summary.recv_unix_us, 1'700'000'000'000'000);
  EXPECT_EQ(traced->summary.sent_unix_us, 1'700'000'000'250'000);
}

TEST(ControlApi, MetricsReplyRoundTripsAndRejectsTruncation) {
  const std::string body =
      "# HELP sadp_x A metric.\n# TYPE sadp_x counter\nsadp_x 1\n";
  const std::string line = api::metrics_reply_line(body);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // newlines escaped
  std::string error;
  const auto parsed = api::parse_metrics_reply(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, body);

  // A scrape cut off mid-write must surface as an error, not as a
  // silently shortened exposition.
  EXPECT_FALSE(api::parse_metrics_reply(line.substr(0, line.size() / 2),
                                        &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(api::parse_metrics_reply("{\"type\":\"pong\"}").has_value());
  EXPECT_FALSE(api::parse_metrics_reply("", &error).has_value());
}

TEST(ControlApi, RequestsRoundTripAndDemultiplex) {
  for (const auto type :
       {api::ControlRequest::Type::kPing, api::ControlRequest::Type::kStats,
        api::ControlRequest::Type::kDrain}) {
    api::ControlRequest request;
    request.type = type;
    const std::string line = api::serialize_control_request(request);
    EXPECT_TRUE(api::looks_like_control_line(line)) << line;
    std::string error;
    const auto parsed = api::parse_control_request(line, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->type, type);
  }

  // Flow requests must never demultiplex as control lines.
  api::FlowRequest flow;
  flow.jobs.emplace_back();
  EXPECT_FALSE(api::looks_like_control_line(api::serialize_request(flow)));
  EXPECT_FALSE(
      api::parse_control_request(api::serialize_request(flow)).has_value());
  EXPECT_FALSE(api::parse_control_request("{\"type\":\"warp\"}").has_value());
}

TEST(ControlApi, IntegerMembersAreCheckedNotCast) {
  std::string error;
  const auto seeded = api::parse_control_request(
      R"({"type":"failpoint","spec":"","seed":9007199254740991})", &error);
  ASSERT_TRUE(seeded.has_value()) << error;
  EXPECT_EQ(seeded->seed, 9007199254740991u);
  for (const char* bad :
       {R"({"type":"failpoint","spec":"","seed":-1})",
        R"({"type":"failpoint","spec":"","seed":9007199254740992})",
        R"({"type":"failpoint","spec":"","seed":0.25})"}) {
    EXPECT_FALSE(api::parse_control_request(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("must be an integer"), std::string::npos) << error;
  }
  for (const char* bad :
       {R"({"schema":"sadp.control.v1","type":"stats","queue_depth":-1})",
        R"({"schema":"sadp.control.v1","type":"stats","pool_size":1e30})",
        R"({"schema":"sadp.control.v1","type":"stats","rejected":"many"})",
        R"({"schema":"sadp.control.v1","type":"stats","draining":"yes"})",
        R"({"schema":"sadp.control.v1","type":"stats","uptime_seconds":"1s"})",
        R"({"schema":"sadp.control.v1","type":"stats","latency_p99_ms":true})"}) {
    EXPECT_FALSE(api::parse_stats_reply(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("malformed stats reply"), std::string::npos) << error;
  }
}

TEST(ControlApi, StatsReplyRoundTripsWithPeers) {
  api::StatsReply stats;
  stats.queue_depth = 2;
  stats.active = 2;
  stats.rejected = 5;
  stats.cache_hits = 10;
  stats.cache_misses = 4;
  stats.pool_size = 8;
  stats.uptime_seconds = 12.5;
  stats.draining = true;
  stats.latency_p50_ms = 120.5;
  stats.latency_p99_ms = 910.25;
  api::PeerStatus peer;
  peer.addr = "127.0.0.1:7472";
  peer.queue_depth = 1;
  peer.active = 1;
  peer.age_seconds = 0.25;
  peer.alive = true;
  stats.peers.push_back(peer);

  const std::string line = api::stats_reply_line(stats);
  std::string error;
  const auto parsed = api::parse_stats_reply(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->queue_depth, 2u);
  EXPECT_EQ(parsed->rejected, 5u);
  EXPECT_EQ(parsed->cache_hits, 10u);
  EXPECT_EQ(parsed->cache_misses, 4u);
  EXPECT_EQ(parsed->pool_size, 8);
  EXPECT_TRUE(parsed->draining);
  EXPECT_DOUBLE_EQ(parsed->latency_p50_ms, 120.5);
  EXPECT_DOUBLE_EQ(parsed->latency_p99_ms, 910.25);
  ASSERT_EQ(parsed->peers.size(), 1u);
  EXPECT_EQ(parsed->peers[0].addr, "127.0.0.1:7472");
  EXPECT_EQ(parsed->peers[0].queue_depth, 1);
  EXPECT_TRUE(parsed->peers[0].alive);

  // Counter members are optional (absent = 0) for older daemons.
  const auto minimal = api::parse_stats_reply(
      "{\"schema\":\"sadp.control.v1\",\"type\":\"stats\"}");
  ASSERT_TRUE(minimal.has_value());
  EXPECT_EQ(minimal->queue_depth, 0u);
  EXPECT_EQ(minimal->cache_hits, 0u);
  EXPECT_DOUBLE_EQ(minimal->latency_p50_ms, 0.0);  // pre-telemetry daemons
  EXPECT_DOUBLE_EQ(minimal->latency_p99_ms, 0.0);
  EXPECT_FALSE(api::parse_stats_reply("{\"type\":\"pong\"}").has_value());
}

}  // namespace
