// Loopback integration tests of the sadp_routed service layer: wire rows
// vs in-process dispatch, bounded admission (resource_exhausted), the
// runner frame both flow verbs share, and graceful drain + journal resume.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "core/flow.hpp"
#include "core/solution_io.hpp"
#include "netlist/bench_gen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/route_client.hpp"
#include "server/route_server.hpp"
#include "util/json.hpp"

namespace {

using namespace sadp;

netlist::BenchSpec tiny_spec(const char* name, int side, int nets) {
  netlist::BenchSpec spec;
  spec.name = name;
  spec.width = side;
  spec.height = side;
  spec.num_nets = nets;
  return spec;
}

api::JobRequest spec_job(const char* name, int side, int nets) {
  api::JobRequest job;
  job.label = name;
  job.spec = tiny_spec(name, side, nets);
  job.dvi_method = core::DviMethod::kHeuristic;
  return job;
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

server::ServerOptions quiet_options() {
  server::ServerOptions options;
  options.port = 0;
  options.pool_workers = 2;
  options.quiet = true;
  return options;
}

TEST(WorkerPool, RunsEveryTaskExactlyOnceAcrossConcurrentCalls) {
  server::WorkerPool pool(3);
  EXPECT_EQ(pool.size(), 3);

  std::vector<std::atomic<int>> counts(8);
  pool.run_parallel(8, [&](int i) { counts[static_cast<std::size_t>(i)]++; });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);

  // Two requests sharing the pool: both complete, nothing lost.
  std::atomic<int> total{0};
  std::thread a([&] { pool.run_parallel(4, [&](int) { total++; }); });
  std::thread b([&] { pool.run_parallel(4, [&](int) { total++; }); });
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 8);
}

TEST(RouteServer, LoopbackRowsMatchInProcessDispatch) {
  // A mixed batch: three routable instances plus one poisoned job (a 0x0
  // spec makes the generator throw), under keep-going.
  api::FlowRequest request;
  request.keep_going = true;
  request.jobs.push_back(spec_job("srv_a", 40, 15));
  request.jobs.push_back(spec_job("srv_b", 42, 16));
  request.jobs.push_back(spec_job("srv_poison", 0, 5));
  request.jobs.push_back(spec_job("srv_c", 44, 17));

  const api::DispatchResult local = api::dispatch(request);
  ASSERT_TRUE(local.status.is_ok());
  std::map<std::string, std::string> expected;
  std::map<std::string, engine::JobStatus> expected_status;
  for (const engine::JobOutcome& outcome : local.batch.outcomes) {
    expected[outcome.label] = result_fingerprint(outcome.result);
    expected_status[outcome.label] = outcome.status;
  }

  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());

  // Two concurrent clients submit the same batch; both must see rows
  // bit-identical (in the non-timing payload) to the in-process run.
  auto submit = [&] { return server::run_remote("127.0.0.1", server.port(), request); };
  auto other = std::async(std::launch::async, submit);
  const server::RemoteBatch mine = submit();
  const server::RemoteBatch theirs = other.get();

  for (const server::RemoteBatch* batch : {&mine, &theirs}) {
    ASSERT_TRUE(batch->status.is_ok()) << batch->status.to_string();
    ASSERT_TRUE(batch->summary_received);
    EXPECT_EQ(batch->summary.jobs, 4u);
    EXPECT_EQ(batch->summary.ok, 3u);
    EXPECT_EQ(batch->summary.failed, 1u);
    ASSERT_EQ(batch->rows.size(), 4u);
    for (const engine::JobOutcome& row : batch->rows) {
      ASSERT_TRUE(expected.count(row.label)) << row.label;
      EXPECT_EQ(result_fingerprint(row.result), expected[row.label])
          << row.label;
      EXPECT_EQ(row.status, expected_status[row.label]) << row.label;
      EXPECT_EQ(row.router, nullptr);  // routers never travel the wire
    }
    const engine::JobOutcome* poison = nullptr;
    for (const auto& row : batch->rows) {
      if (row.label == "srv_poison") poison = &row;
    }
    ASSERT_NE(poison, nullptr);
    EXPECT_EQ(poison->status, engine::JobStatus::kFailed);
    EXPECT_EQ(poison->error.code(), util::StatusCode::kInvalidInput);
  }
  server.stop();
}

TEST(RouteServer, OverloadRejectsWithResourceExhausted) {
  // max_requests=1 and a gate in the admitted hook make rejection
  // deterministic: client A holds the only slot until released.
  std::promise<void> admitted;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();

  server::ServerOptions options = quiet_options();
  options.max_requests = 1;
  options.on_request_admitted = [&admitted, release_future] {
    admitted.set_value();
    release_future.wait();
  };
  server::RouteServer server(options);
  ASSERT_TRUE(server.start().is_ok());

  api::FlowRequest request;
  request.jobs.push_back(spec_job("srv_hold", 40, 12));

  auto held = std::async(std::launch::async, [&] {
    return server::run_remote("127.0.0.1", server.port(), request);
  });
  admitted.get_future().wait();

  const server::RemoteBatch rejected =
      server::run_remote("127.0.0.1", server.port(), request);
  EXPECT_EQ(rejected.status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_FALSE(rejected.summary_received);
  EXPECT_TRUE(rejected.rows.empty());
  EXPECT_EQ(server.rejected(), 1u);

  release.set_value();
  const server::RemoteBatch accepted = held.get();
  EXPECT_TRUE(accepted.all_ok()) << accepted.status.to_string();
  server.stop();
}

/// An ECO request against a freshly routed tiny base: drop net 1.
api::FlowDeltaRequest tiny_delta(const char* name) {
  api::FlowDeltaRequest request;
  request.base = spec_job(name, 36, 10);
  const netlist::PlacedNetlist base = netlist::generate(*request.base.spec);
  core::FlowConfig config;
  config.dvi_method = core::DviMethod::kHeuristic;
  const core::FlowRun run = core::run_flow(base, config);
  request.base_solution = core::solution_to_text(core::capture_solution(
      base.name, run.router->routing_grid(), config.options.style,
      run.router->nets()));
  core::EcoChange remove;
  remove.kind = core::EcoChange::Kind::kRemoveNet;
  remove.net = 1;
  request.changes = {remove};
  return request;
}

std::uint64_t histogram_count(const char* name) {
  return obs::metrics().histogram(name, "").snapshot().hist.count();
}

/// Does the trace hold a `name` span tagged with `trace_id`?
bool has_tagged_span(const std::string& trace_json, const std::string& name,
                     const std::string& trace_id) {
  const auto doc = util::parse_json(trace_json);
  const util::JsonValue* events = doc ? doc->find("traceEvents") : nullptr;
  if (events == nullptr) return false;
  for (const util::JsonValue& event : events->array) {
    const util::JsonValue* event_name = event.find("name");
    const util::JsonValue* args = event.find("args");
    const util::JsonValue* id = args ? args->find("trace_id") : nullptr;
    if (event_name != nullptr && event_name->is_string() &&
        event_name->string_value == name && id != nullptr && id->is_string() &&
        id->string_value == trace_id) {
      return true;
    }
  }
  return false;
}

TEST(RouteServerFrame, BothVerbsShareAdmissionMetricsAndSpans) {
  // Flow batches and ECO deltas run in one runner frame: each verb gets the
  // same capacity and drain rejections, one admission-wait and one run
  // observation per request, and trace-tagged server.admission/server.run
  // spans.
  api::FlowRequest flow;
  flow.jobs.push_back(spec_job("frame_flow", 36, 10));
  const api::FlowDeltaRequest delta = tiny_delta("frame_delta");
  using Send = std::function<server::RemoteBatch(int port,
                                                 const std::string& trace)>;
  const std::vector<std::pair<const char*, Send>> verbs = {
      {"flow",
       [&](int port, const std::string& trace) {
         api::FlowRequest request = flow;
         request.trace_id = trace;
         return server::run_remote("127.0.0.1", port, request);
       }},
      {"delta",
       [&](int port, const std::string& trace) {
         api::FlowDeltaRequest request = delta;
         request.trace_id = trace;
         return server::run_remote_delta("127.0.0.1", port, request);
       }},
  };
  for (const auto& [verb, send] : verbs) {
    SCOPED_TRACE(verb);
    // max_requests=1 and a gate in the admitted hook hold the only slot
    // (first admission only) until released.
    std::promise<void> admitted;
    std::promise<void> release;
    std::shared_future<void> release_future = release.get_future().share();
    std::atomic<bool> first{true};
    server::ServerOptions options = quiet_options();
    options.max_requests = 1;
    options.on_request_admitted = [&, release_future] {
      if (!first.exchange(false)) return;
      admitted.set_value();
      release_future.wait();
    };
    server::RouteServer server(options);
    ASSERT_TRUE(server.start().is_ok());
    const int port = server.port();

    auto held = std::async(std::launch::async, [&] { return send(port, ""); });
    admitted.get_future().wait();
    const server::RemoteBatch rejected = send(port, "");
    EXPECT_EQ(rejected.status.code(), util::StatusCode::kResourceExhausted);
    EXPECT_TRUE(rejected.rows.empty());
    EXPECT_EQ(server.rejected(), 1u);
    release.set_value();
    EXPECT_TRUE(held.get().all_ok());
    // The runner frees its slot just after the summary goes out.
    while (server.active() != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const std::string trace_id = std::string("f4a3e0000000000") + verb[0];
    const std::uint64_t waits =
        histogram_count("sadp_server_request_admission_wait_seconds");
    const std::uint64_t runs = histogram_count("sadp_server_request_run_seconds");
    obs::TraceSession session;
    session.install();
    EXPECT_TRUE(send(port, trace_id).all_ok());
    EXPECT_EQ(histogram_count("sadp_server_request_admission_wait_seconds"),
              waits + 1);
    EXPECT_EQ(histogram_count("sadp_server_request_run_seconds"), runs + 1);

    server.begin_drain();
    const server::RemoteBatch drained = send(port, "");
    EXPECT_EQ(drained.status.code(), util::StatusCode::kResourceExhausted);
    EXPECT_NE(drained.status.message().find("draining"), std::string::npos);
    server.stop();  // joins the runners, so their trace buffers are quiet
    session.uninstall();
    const std::string json = session.to_json();
    EXPECT_TRUE(has_tagged_span(json, "server.admission", trace_id));
    EXPECT_TRUE(has_tagged_span(json, "server.run", trace_id));
  }
}

TEST(RouteServer, DuplicateLabelsComeBackAsStructuredInvalidInput) {
  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());

  api::FlowRequest request;
  request.jobs.push_back(spec_job("twin", 40, 12));
  request.jobs.push_back(spec_job("twin", 42, 14));
  const server::RemoteBatch batch =
      server::run_remote("127.0.0.1", server.port(), request);
  EXPECT_EQ(batch.status.code(), util::StatusCode::kInvalidInput);
  EXPECT_NE(batch.status.message().find("duplicate"), std::string::npos);
  EXPECT_TRUE(batch.rows.empty());
  server.stop();
}

TEST(RouteServer, DrainMidBatchThenJournalResumeCompletesTheRemainder) {
  const std::string journal =
      testing::TempDir() + "sadp_server_drain_journal.jsonl";
  std::remove(journal.c_str());

  api::FlowRequest request;
  request.workers = 1;  // sequential, so the drain lands between jobs
  request.keep_going = true;
  request.journal_path = journal;
  request.jobs.push_back(spec_job("drain_a", 40, 12));
  request.jobs.push_back(spec_job("drain_b", 48, 22));
  request.jobs.push_back(spec_job("drain_c", 48, 24));
  request.jobs.push_back(spec_job("drain_d", 48, 26));

  // Reference run: the same jobs, in process, no journal.
  api::FlowRequest reference = request;
  reference.journal_path.clear();
  const api::DispatchResult local = api::dispatch(reference);
  ASSERT_TRUE(local.status.is_ok());
  std::map<std::string, std::string> expected;
  for (const engine::JobOutcome& outcome : local.batch.outcomes) {
    expected[outcome.label] = result_fingerprint(outcome.result);
  }

  server::ServerOptions options = quiet_options();
  options.pool_workers = 1;
  auto first_server = std::make_unique<server::RouteServer>(options);
  ASSERT_TRUE(first_server->start().is_ok());

  // The drain fires from the client as soon as the first row arrives —
  // exactly what a SIGTERM mid-batch does to the daemon.
  std::atomic<bool> drained{false};
  const server::RemoteBatch interrupted = server::run_remote(
      "127.0.0.1", first_server->port(), request,
      [&](const engine::JobOutcome&, std::size_t, std::size_t) {
        if (!drained.exchange(true)) first_server->begin_drain();
      });
  ASSERT_TRUE(interrupted.status.is_ok()) << interrupted.status.to_string();
  ASSERT_TRUE(interrupted.summary_received);
  ASSERT_EQ(interrupted.rows.size(), 4u);
  EXPECT_EQ(interrupted.summary.ok + interrupted.summary.cancelled, 4u);
  EXPECT_GE(interrupted.summary.ok, 1u);  // the row that triggered the drain
  for (const engine::JobOutcome& row : interrupted.rows) {
    if (row.status == engine::JobStatus::kOk) {
      EXPECT_EQ(result_fingerprint(row.result), expected[row.label])
          << row.label;
    } else {
      EXPECT_EQ(row.status, engine::JobStatus::kCancelled) << row.label;
    }
  }
  first_server->stop();
  first_server.reset();

  // Fresh server, same journal, --resume: journaled rows restore, the
  // cancelled remainder executes, and every row matches the reference.
  server::RouteServer second_server(options);
  ASSERT_TRUE(second_server.start().is_ok());
  api::FlowRequest resume = request;
  resume.resume = true;
  const server::RemoteBatch completed =
      server::run_remote("127.0.0.1", second_server.port(), resume);
  ASSERT_TRUE(completed.status.is_ok()) << completed.status.to_string();
  ASSERT_TRUE(completed.summary_received);
  ASSERT_EQ(completed.rows.size(), 4u);
  EXPECT_EQ(completed.summary.ok, 4u);
  EXPECT_EQ(completed.summary.resumed, interrupted.summary.ok);
  std::size_t restored = 0;
  for (const engine::JobOutcome& row : completed.rows) {
    EXPECT_EQ(row.status, engine::JobStatus::kOk) << row.label;
    EXPECT_EQ(result_fingerprint(row.result), expected[row.label])
        << row.label;
    restored += row.from_journal;
  }
  EXPECT_EQ(restored, interrupted.summary.ok);
  second_server.stop();
  std::remove(journal.c_str());
}

TEST(RouteServer, StopClosesTheListener) {
  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());
  server.stop();
  EXPECT_TRUE(server.draining());

  // The listener is gone: a new request cannot reach the server.
  api::FlowRequest request;
  request.jobs.push_back(spec_job("after_drain", 40, 12));
  const server::RemoteBatch refused =
      server::run_remote("127.0.0.1", server.port(), request);
  EXPECT_FALSE(refused.status.is_ok());
  EXPECT_TRUE(refused.rows.empty());
}

}  // namespace
