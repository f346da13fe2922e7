// obs::TraceSession / obs::Span: balance under exceptions, JSON validity,
// per-thread timestamp ordering, and the no-perturbation guarantee (flow
// rows bit-identical with tracing on, off, and across worker counts).
// Also obs::MetricsRegistry (Prometheus exposition) and obs::merge_traces
// (fleet timeline alignment).
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/flow_engine.hpp"
#include "obs/merge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

using namespace sadp;

std::string string_member(const util::JsonValue& obj, const char* key) {
  const util::JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_string()) ? v->string_value : std::string();
}

double number_member(const util::JsonValue& obj, const char* key) {
  const util::JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number_value : -1.0;
}

TEST(Trace, DisabledTracingLeavesSpansInert) {
  ASSERT_FALSE(obs::tracing_enabled());
  const obs::Span span("never_recorded", 7);
  EXPECT_FALSE(span.active());
  // No session: counter/instant are no-ops rather than crashes.
  obs::counter("rr", {{"fvps", 1.0}});
  obs::instant("marker");
}

TEST(Trace, SpansBalanceUnderExceptionsAndEarlyExit) {
  obs::TraceSession session;
  session.install();
  EXPECT_TRUE(obs::tracing_enabled());

  {
    obs::Span outer("outer");
    const obs::Span inner("inner");
    EXPECT_TRUE(inner.active());
    outer.end();  // explicit early close...
    outer.end();  // ...is idempotent
  }
  try {
    const obs::Span doomed("doomed");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  for (int i = 0; i < 3; ++i) {
    const obs::Span loop("loop", i);
    if (i == 1) continue;  // early-exit path (cooperative cancellation shape)
  }

  session.uninstall();
  EXPECT_FALSE(obs::tracing_enabled());
  // Every begun span produced exactly one complete event: 2 + 1 + 3.
  EXPECT_EQ(session.event_count(), 6u);

  // Uninstalled session: new spans are inert again, the buffers keep the
  // recorded events.
  { const obs::Span late("late"); EXPECT_FALSE(late.active()); }
  EXPECT_EQ(session.event_count(), 6u);
}

TEST(Trace, JsonParsesWithExpectedStructure) {
  obs::TraceSession session;
  session.install();
  obs::name_this_thread("main");
  {
    const obs::Span span("phase_a", 42);
    const obs::Span dynamic(std::string("job:test"));
  }
  obs::counter("rr", {{"fvps", 3.0}, {"queue", 17.0}});
  obs::instant("milestone", 5);
  session.uninstall();

  std::string error;
  const auto doc = util::parse_json(session.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(string_member(*doc, "schema"), obs::kTraceSchema);

  const util::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool saw_process_meta = false, saw_thread_meta = false;
  bool saw_phase_a = false, saw_dynamic = false, saw_counter = false,
       saw_instant = false;
  for (const util::JsonValue& event : events->array) {
    ASSERT_TRUE(event.is_object());
    const std::string name = string_member(event, "name");
    const std::string phase = string_member(event, "ph");
    if (phase == "M" && name == "process_name") saw_process_meta = true;
    if (phase == "M" && name == "thread_name") {
      saw_thread_meta = true;
      const util::JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(string_member(*args, "name"), "main");
    }
    if (phase == "X" && name == "phase_a") {
      saw_phase_a = true;
      EXPECT_GE(number_member(event, "ts"), 0.0);
      EXPECT_GE(number_member(event, "dur"), 0.0);
      const util::JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(number_member(*args, "id"), 42.0);
    }
    if (phase == "X" && name == "job:test") saw_dynamic = true;
    if (phase == "C" && name == "rr") {
      saw_counter = true;
      const util::JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(number_member(*args, "fvps"), 3.0);
      EXPECT_EQ(number_member(*args, "queue"), 17.0);
    }
    if (phase == "I" && name == "milestone") saw_instant = true;
  }
  EXPECT_TRUE(saw_process_meta);
  EXPECT_TRUE(saw_thread_meta);
  EXPECT_TRUE(saw_phase_a);
  EXPECT_TRUE(saw_dynamic);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_instant);
}

TEST(Trace, PerThreadTimestampsAreMonotonic) {
  obs::TraceSession session;
  session.install();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      obs::name_this_thread("worker " + std::to_string(t));
      for (int i = 0; i < 50; ++i) {
        const obs::Span span("tick", i);
        obs::counter("load", {{"i", static_cast<double>(i)}});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  session.uninstall();

  std::string error;
  const auto doc = util::parse_json(session.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const util::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Events are appended per thread in completion order, so within one tid
  // the end time of 'X' events and the ts of 'C' events never go backwards.
  std::map<int, double> last_end, last_counter;
  std::map<int, int> per_tid_events;
  for (const util::JsonValue& event : events->array) {
    const std::string phase = string_member(event, "ph");
    const int tid = static_cast<int>(number_member(event, "tid"));
    if (phase == "X") {
      const double end = number_member(event, "ts") + number_member(event, "dur");
      EXPECT_GE(end, last_end[tid]);
      last_end[tid] = end;
      ++per_tid_events[tid];
    } else if (phase == "C") {
      const double ts = number_member(event, "ts");
      EXPECT_GE(ts, last_counter[tid]);
      last_counter[tid] = ts;
      ++per_tid_events[tid];
    }
  }
  ASSERT_EQ(per_tid_events.size(), 4u);  // one buffer per thread
  for (const auto& [tid, count] : per_tid_events) EXPECT_EQ(count, 100) << tid;
}

// --- No-perturbation guarantee ----------------------------------------------

std::vector<engine::FlowJob> trace_job_list() {
  std::vector<engine::FlowJob> jobs;
  const struct {
    const char* name;
    int side;
    int nets;
  } instances[2] = {{"obs_a", 40, 22}, {"obs_b", 44, 26}};
  for (const auto& inst : instances) {
    engine::FlowJob job;
    job.label = inst.name;
    job.spec.name = inst.name;
    job.spec.width = inst.side;
    job.spec.height = inst.side;
    job.spec.num_nets = inst.nets;
    job.config.options.consider_dvi = true;
    job.config.options.consider_tpl = true;
    job.config.dvi_method = core::DviMethod::kHeuristic;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Everything deterministic about a row, including the perf counters and the
/// maze-pop percentiles; timing fields are deliberately excluded.
std::string row_fingerprint(const engine::JobOutcome& outcome) {
  const core::ExperimentResult& r = outcome.result;
  std::string out = outcome.label;
  out += '|' + std::to_string(r.routing.routed_all);
  out += '|' + std::to_string(r.routing.wirelength);
  out += '|' + std::to_string(r.routing.via_count);
  out += '|' + std::to_string(r.routing.rr_iterations);
  out += '|' + std::to_string(r.routing.queue_peak);
  out += '|' + std::to_string(r.routing.remaining_congestion);
  out += '|' + std::to_string(r.routing.remaining_fvps);
  out += '|' + std::to_string(r.routing.maze_pops);
  out += '|' + std::to_string(r.routing.maze_relaxations);
  out += '|' + std::to_string(r.routing.maze_searches);
  out += '|' + std::to_string(r.routing.heap_reuse);
  out += '|' + std::to_string(r.routing.fvp_cache_hits);
  out += '|' + std::to_string(r.routing.maze_pops_p50);
  out += '|' + std::to_string(r.routing.maze_pops_p95);
  out += '|' + std::to_string(r.routing.maze_pops_max);
  out += '|' + std::to_string(r.dvi.dead_vias);
  out += '|' + std::to_string(r.dvi.uncolorable);
  for (const int dvic : r.dvi.inserted) out += ',' + std::to_string(dvic);
  return out;
}

TEST(Trace, FlowRowsBitIdenticalWithTracingOnOffAndParallel) {
  // Baseline: tracing off.
  engine::EngineOptions serial;
  serial.num_workers = 1;
  const auto baseline = engine::FlowEngine(serial).run(trace_job_list()).outcomes;

  // Tracing on, serial.
  obs::TraceSession session;
  session.install();
  const auto traced = engine::FlowEngine(serial).run(trace_job_list()).outcomes;
  session.uninstall();
  EXPECT_GT(session.event_count(), 0u);

  // Tracing on, 4 workers.
  obs::TraceSession parallel_session;
  parallel_session.install();
  engine::EngineOptions parallel;
  parallel.num_workers = 4;
  const auto traced_parallel =
      engine::FlowEngine(parallel).run(trace_job_list()).outcomes;
  parallel_session.uninstall();

  ASSERT_EQ(baseline.size(), traced.size());
  ASSERT_EQ(baseline.size(), traced_parallel.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(row_fingerprint(baseline[i]), row_fingerprint(traced[i]))
        << baseline[i].label;
    EXPECT_EQ(row_fingerprint(baseline[i]), row_fingerprint(traced_parallel[i]))
        << baseline[i].label;
  }

  // The traced run produced the expected span structure.
  std::string error;
  const auto doc = util::parse_json(session.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const util::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_job = false, saw_route = false, saw_initial = false,
       saw_route_net = false, saw_rr_counter = false, saw_dvi = false;
  for (const util::JsonValue& event : events->array) {
    const std::string name = string_member(event, "name");
    if (name.rfind("job:", 0) == 0) saw_job = true;
    if (name == "route") saw_route = true;
    if (name == "initial_routing") saw_initial = true;
    if (name == "route_net") saw_route_net = true;
    if (name == "rr" && string_member(event, "ph") == "C") saw_rr_counter = true;
    if (name == "dvi") saw_dvi = true;
  }
  EXPECT_TRUE(saw_job);
  EXPECT_TRUE(saw_route);
  EXPECT_TRUE(saw_initial);
  EXPECT_TRUE(saw_route_net);
  EXPECT_TRUE(saw_rr_counter);
  EXPECT_TRUE(saw_dvi);
}

TEST(Trace, TraceContextLeavesRowsBitIdentical) {
  // The trace_id/span_id a dispatcher stamps onto jobs must never reach the
  // outcome (it lives in row framing only), so routing results are
  // bit-identical with context absent vs present — traced or not, a job
  // routes the same nets the same way.
  const auto plain =
      engine::FlowEngine(engine::EngineOptions{}).run(trace_job_list()).outcomes;

  std::vector<engine::FlowJob> traced_jobs = trace_job_list();
  for (std::size_t i = 0; i < traced_jobs.size(); ++i) {
    traced_jobs[i].trace_id = "0123456789abcdef";
    traced_jobs[i].span_id = "feed000000000" + std::to_string(i);
  }
  obs::TraceSession session;
  session.install();
  const auto traced = engine::FlowEngine(engine::EngineOptions{})
                          .run(std::move(traced_jobs))
                          .outcomes;
  session.uninstall();

  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(row_fingerprint(plain[i]), row_fingerprint(traced[i]));
  }

  // The context surfaced as string args on the job spans.
  const std::string json = session.to_json();
  EXPECT_NE(json.find("\"trace_id\":\"0123456789abcdef\""), std::string::npos);
  EXPECT_NE(json.find("\"span_id\":\"feed0000000000\""), std::string::npos);
}

// --- Metrics registry -------------------------------------------------------

TEST(Metrics, ExpositionIsValidPrometheusText) {
  obs::Counter& hits = obs::metrics().counter(
      "sadp_test_requests_total", "Test counter.", "result=\"hit\"");
  obs::Counter& misses = obs::metrics().counter(
      "sadp_test_requests_total", "Test counter.", "result=\"miss\"");
  obs::Gauge& depth =
      obs::metrics().gauge("sadp_test_depth", "Test gauge.");
  obs::LatencyHistogram& lat = obs::metrics().histogram(
      "sadp_test_latency_seconds", "Test histogram.");

  hits.inc(3);
  misses.inc();
  depth.set(7);
  lat.observe_us(1000);    // 1 ms -> bucket upper edge 1023 us
  lat.observe_us(250000);  // 250 ms

  // Re-registration returns the same object.
  EXPECT_EQ(&hits, &obs::metrics().counter("sadp_test_requests_total", "",
                                           "result=\"hit\""));

  const std::string text = obs::metrics().render();
  EXPECT_NE(text.find("# HELP sadp_test_requests_total Test counter.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sadp_test_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("sadp_test_requests_total{result=\"hit\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("sadp_test_requests_total{result=\"miss\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sadp_test_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("sadp_test_depth 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sadp_test_latency_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("sadp_test_latency_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("sadp_test_latency_seconds_count 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("sadp_test_latency_seconds_sum 0.251"),
            std::string::npos);
  // The built-in process uptime gauge leads the exposition.
  EXPECT_EQ(text.rfind("# HELP sadp_process_uptime_seconds", 0), 0u);

  // Cumulative buckets: each le count is non-decreasing and ends at _count.
  std::size_t pos = 0;
  long long last = -1;
  int buckets = 0;
  while ((pos = text.find("sadp_test_latency_seconds_bucket{le=\"", pos)) !=
         std::string::npos) {
    const std::size_t brace = text.find("} ", pos);
    ASSERT_NE(brace, std::string::npos);
    const long long count = std::stoll(text.substr(brace + 2));
    EXPECT_GE(count, last);
    last = count;
    ++buckets;
    pos = brace;
  }
  EXPECT_GE(buckets, 2);
  EXPECT_EQ(last, 2);

  // Deterministic percentile from the log2 bins.
  EXPECT_GT(lat.percentile_ms(0.5), 0.0);
  EXPECT_LE(lat.percentile_ms(0.5), lat.percentile_ms(0.99));
}

// --- Fleet trace merge ------------------------------------------------------

/// A minimal sadp.flow_trace.v1 document with one span, as a string.
std::string tiny_trace(const char* process, long long anchor_us,
                       long long ts_us, const char* trace_id) {
  std::string out = "{\"schema\":\"sadp.flow_trace.v1\",";
  out += "\"clock_unix_us\":" + std::to_string(anchor_us) + ",";
  out += "\"process\":\"" + std::string(process) + "\",";
  out += "\"traceEvents\":[";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"" + std::string(process) + "\"}},";
  out += "{\"name\":\"work\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":" +
         std::to_string(ts_us) + ",\"dur\":5,\"args\":{\"trace_id\":\"" +
         std::string(trace_id) + "\"}}]}";
  return out;
}

TEST(Merge, AlignsProcessesOnOneFleetTimeline) {
  // p2 started 100 us after p1 (later realtime anchor), so its events shift
  // +100 onto the fleet timeline whose epoch is the earliest anchor.
  const std::vector<obs::MergeInput> inputs = {
      {"d1.json", tiny_trace("daemon :7471", 1'000'000, 10, "cafe")},
      {"d2.json", tiny_trace("daemon :7472", 1'000'100, 10, "cafe")},
  };
  std::string merged;
  obs::MergeStats stats;
  const util::Status status = obs::merge_traces(inputs, &merged, &stats);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(stats.processes, 2u);
  EXPECT_EQ(stats.epoch_unix_us, 1'000'000);

  std::string error;
  const auto doc = util::parse_json(merged, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(string_member(*doc, "schema"), obs::kFleetTraceSchema);
  EXPECT_EQ(number_member(*doc, "clock_unix_us"), 1'000'000.0);

  const util::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<int, double> span_ts;       // pid -> shifted span ts
  std::map<int, std::string> process;  // pid -> synthesized process_name
  for (const util::JsonValue& event : events->array) {
    const int pid = static_cast<int>(number_member(event, "pid"));
    const std::string name = string_member(event, "name");
    if (name == "process_name") {
      const util::JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      // Exactly one per pid: the input's own metadata event is dropped.
      EXPECT_EQ(process.count(pid), 0u);
      process[pid] = string_member(*args, "name");
    }
    if (name == "work") {
      span_ts[pid] = number_member(event, "ts");
      const util::JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(string_member(*args, "trace_id"), "cafe");  // args survive
    }
  }
  EXPECT_EQ(process[1], "daemon :7471");
  EXPECT_EQ(process[2], "daemon :7472");
  EXPECT_EQ(span_ts[1], 10.0);   // epoch process: unshifted
  EXPECT_EQ(span_ts[2], 110.0);  // +100 us anchor delta
}

TEST(Merge, RejectsNonTraceInput) {
  std::string merged;
  const util::Status bad = obs::merge_traces(
      {{"x.json", "{\"schema\":\"other\"}"}}, &merged);
  EXPECT_FALSE(bad.is_ok());
  const util::Status garbage =
      obs::merge_traces({{"y.json", "not json"}}, &merged);
  EXPECT_FALSE(garbage.is_ok());

  // Timestamps and anchors are checked integers: a fractional or huge one
  // is a structured error naming the file, never an undefined cast.
  const std::string good = tiny_trace("p", 1'000'000, 10, "cafe");
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"\"ts\":10", "\"ts\":10.5"},
        {"\"ts\":10", "\"ts\":1e300"},
        {"\"clock_unix_us\":1000000", "\"clock_unix_us\":0.25"},
        {"\"clock_unix_us\":1000000", "\"clock_unix_us\":-1e30"}}) {
    std::string text = good;
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    const util::Status wild =
        obs::merge_traces({{"ok.json", good}, {"wild.json", text}}, &merged);
    EXPECT_EQ(wild.code(), util::StatusCode::kInvalidInput) << to;
    EXPECT_EQ(wild.message().rfind("wild.json: ", 0), 0u) << wild.message();
    EXPECT_NE(wild.message().find("must be an integer"), std::string::npos)
        << wild.message();
  }
}

}  // namespace
