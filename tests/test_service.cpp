// Fleet-service tests: result-cache byte-identity, control wire, epoll
// event-loop behavior under idle/partial/malformed connections, client
// retry, dispatcher failover around a SIGKILLed backend, a spawned
// `sadp_routed --backends` fleet that SIGTERM stops cleanly, backends
// named by host name, bounded probes, stop() with an idle client, and the
// request bytes `sadp_route --connect` sends.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/control.hpp"
#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "core/solution_io.hpp"
#include "engine/journal.hpp"
#include "obs/metrics.hpp"
#include "server/dispatch.hpp"
#include "server/result_cache.hpp"
#include "server/route_client.hpp"
#include "server/route_server.hpp"
#include "server/socket.hpp"
#include "util/args.hpp"

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

server::ServerOptions quiet_options() {
  server::ServerOptions options;
  options.port = 0;
  options.pool_workers = 2;
  options.quiet = true;
  return options;
}

server::DispatcherOptions dispatcher_options(
    std::vector<std::string> backends) {
  server::DispatcherOptions options;
  options.backends = std::move(backends);
  options.probe_interval_ms = 50;
  options.quiet = true;
  return options;
}

// ---------------------------------------------------------------------------
// Raw-socket helpers: the byte-level view the cache/wire tests need.

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  return fd;
}

void send_bytes(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
}

/// Read until the server closes, split into lines.
std::vector<std::string> recv_lines(int fd) {
  std::string all;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    all.append(chunk, static_cast<std::size_t>(n));
  }
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = all.find('\n'); nl != std::string::npos;
       nl = all.find('\n', start)) {
    lines.push_back(all.substr(start, nl - start));
    start = nl + 1;
  }
  if (start < all.size()) lines.push_back(all.substr(start));
  return lines;
}

/// One full raw exchange: send `line`, collect every response line.
std::vector<std::string> raw_exchange(int port, const std::string& line) {
  const int fd = connect_loopback(port);
  send_bytes(fd, line + "\n");
  std::vector<std::string> lines = recv_lines(fd);
  ::close(fd);
  return lines;
}

/// Map label -> the raw row line minus its stream position ("done") and
/// its cache marker.  A fresh run streams rows in completion order and a
/// cached replay in request order; nothing else in the line may differ.
/// Rows that fail to parse are skipped and flagged as test failures.
std::map<std::string, std::string> rows_by_label(
    const std::vector<std::string>& lines) {
  std::map<std::string, std::string> out;
  for (std::string line : lines) {
    if (line.find("\"type\":\"row\"") == std::string::npos) continue;
    const auto event = api::parse_response_line(line);
    if (!event.has_value()) {
      ADD_FAILURE() << "unparseable row line: " << line;
      continue;
    }
    const std::string done = "\"done\":" + std::to_string(event->done) + ",";
    line.erase(line.find(done), done.size());
    if (!event->cache.empty()) {
      const std::string cache = ",\"cache\":\"" + event->cache + '"';
      line.erase(line.find(cache), cache.size());
    }
    out[event->outcome.label] = std::move(line);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Result cache: keys and replay (pure unit level).

TEST(ResultCache, KeyIgnoresDisplayAndBatchFields) {
  // One key rule for both verbs: each job is keyed as a flow job and as the
  // base of a delta.  The spec seeds the generator, so it IS the instance.
  const auto keys = [](const api::JobRequest& job) {
    api::FlowDeltaRequest delta;
    delta.base = job;
    core::EcoChange move;
    move.kind = core::EcoChange::Kind::kMovePin;
    move.net = 3;
    move.pin = 1;
    move.to = {10, 12};
    delta.changes = {move};
    return std::make_pair(
        server::job_cache_key(job),
        server::delta_cache_key(delta, "solution keyed 30 30 3 SIM 0\n"));
  };
  using Edit = std::function<void(api::JobRequest*)>;
  const auto check = [&](const api::JobRequest& base,
                         const std::vector<std::pair<const char*, Edit>>& edits,
                         bool changes_key) {
    const auto [flow, delta] = keys(base);
    ASSERT_TRUE(flow.has_value());
    ASSERT_TRUE(delta.has_value());
    for (const auto& [member, edit] : edits) {
      api::JobRequest edited = base;
      edit(&edited);
      const auto [edited_flow, edited_delta] = keys(edited);
      EXPECT_EQ(edited_flow != flow, changes_key) << "flow job: " << member;
      EXPECT_EQ(edited_delta != delta, changes_key) << "delta base: " << member;
    }
  };

  // Everything that changes the routed row changes the key.
  const api::JobRequest spec = spec_job("keyed", 30, 10);
  check(spec,
        {{"style",
          [](api::JobRequest* j) { j->style = grid::SadpStyle::kSid; }},
         {"consider_dvi", [](api::JobRequest* j) { j->consider_dvi = false; }},
         {"consider_tpl", [](api::JobRequest* j) { j->consider_tpl = false; }},
         {"dvi_method",
          [](api::JobRequest* j) { j->dvi_method = core::DviMethod::kExact; }},
         {"ilp_limit", [](api::JobRequest* j) { j->ilp_limit_seconds = 7.0; }},
         {"degrade_dvi", [](api::JobRequest* j) { j->degrade_dvi = true; }},
         {"partitions", [](api::JobRequest* j) { j->partitions = 4; }},
         {"spec.name", [](api::JobRequest* j) { j->spec->name = "other"; }},
         {"spec.width", [](api::JobRequest* j) { j->spec->width += 1; }},
         {"spec.height", [](api::JobRequest* j) { j->spec->height += 1; }},
         {"spec.num_nets", [](api::JobRequest* j) { j->spec->num_nets += 1; }},
         {"spec.num_metal_layers",
          [](api::JobRequest* j) { j->spec->num_metal_layers += 1; }},
         {"spec.local_radius",
          [](api::JobRequest* j) { j->spec->local_radius += 1; }},
         {"spec.global_net_fraction",
          [](api::JobRequest* j) { j->spec->global_net_fraction = 0.5; }},
         {"spec.min_pin_spacing",
          [](api::JobRequest* j) { j->spec->min_pin_spacing += 1; }},
         {"spec.row_structured",
          [](api::JobRequest* j) { j->spec->row_structured = true; }},
         {"spec.row_pitch",
          [](api::JobRequest* j) { j->spec->row_pitch += 1; }},
         {"spec.seed", [](api::JobRequest* j) { j->spec->seed = 7; }},
         {"spec.scale", [](api::JobRequest* j) { j->spec->scale = 2.0; }}},
        true);
  api::JobRequest bench;
  bench.benchmark = "ecc";
  check(bench,
        {{"benchmark", [](api::JobRequest* j) { j->benchmark = "efc"; }},
         {"scaled", [](api::JobRequest* j) { j->scaled = false; }}},
        true);

  // What only names or traces the row does not.
  for (const api::JobRequest& base : {spec, bench}) {
    check(base,
          {{"label", [](api::JobRequest* j) { j->label = "renamed"; }},
           {"arm", [](api::JobRequest* j) { j->arm = "some-arm"; }},
           {"span_id", [](api::JobRequest* j) { j->span_id = "0123abcd"; }}},
          false);
  }
}

TEST(ResultCache, FileAndDeadlineJobsAreUncacheable) {
  api::JobRequest file_job;
  file_job.netlist_path = "/tmp/some.nets";
  EXPECT_FALSE(server::job_cache_key(file_job).has_value());

  api::JobRequest deadline_job = spec_job("d", 30, 10);
  deadline_job.deadline_seconds = 5.0;
  EXPECT_FALSE(server::job_cache_key(deadline_job).has_value());
}

TEST(ResultCache, LruEvictionAndCounters) {
  server::ResultCache cache(2);
  engine::JobOutcome row;
  row.label = "x";
  cache.insert("a", row);
  cache.insert("b", row);
  EXPECT_TRUE(cache.lookup("a").has_value());  // bump "a" to MRU
  cache.insert("c", row);                      // evicts "b" (LRU)
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  // Only a row a rerun reproduces is kept.
  engine::JobOutcome failed = row;
  failed.status = engine::JobStatus::kFailed;
  engine::JobOutcome restored = row;
  restored.from_journal = true;
  cache.insert("d", failed);
  cache.insert("e", restored);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup("d").has_value());
  EXPECT_FALSE(cache.lookup("e").has_value());

  server::ResultCache disabled(0);
  disabled.insert("a", row);
  EXPECT_FALSE(disabled.lookup("a").has_value());
  EXPECT_EQ(disabled.misses(), 0u) << "a disabled cache must not count";
}

// ---------------------------------------------------------------------------
// Cache over the wire: repeated identical request replays byte-identically.

TEST(ServiceCache, RepeatedRequestIsServedFromCacheByteIdentically) {
  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());

  api::FlowRequest request;
  request.jobs.push_back(spec_job("cache_a", 36, 12));
  request.jobs.push_back(spec_job("cache_b", 38, 13));
  // Unlabelled: its row, cache entry and span all key on the label the
  // request layer gives it, the benchmark name as sent.
  api::JobRequest unlabelled;
  unlabelled.benchmark = "ecc";
  request.jobs.push_back(unlabelled);
  const std::string line = api::serialize_request(request);

  const std::vector<std::string> first = raw_exchange(server.port(), line);
  const std::vector<std::string> second = raw_exchange(server.port(), line);

  // First run: every row executed and marked "miss".
  std::size_t miss_rows = 0;
  for (const std::string& row : first) {
    if (row.find("\"type\":\"row\"") == std::string::npos) continue;
    EXPECT_NE(row.find("\"cache\":\"miss\""), std::string::npos) << row;
    ++miss_rows;
  }
  EXPECT_EQ(miss_rows, 3u);

  // Second run: every row replayed and marked "hit".
  std::size_t hit_rows = 0;
  for (const std::string& row : second) {
    if (row.find("\"type\":\"row\"") == std::string::npos) continue;
    EXPECT_NE(row.find("\"cache\":\"hit\""), std::string::npos) << row;
    ++hit_rows;
  }
  EXPECT_EQ(hit_rows, 3u);

  // Each hit line is its miss line apart from "done" and "cache".
  const auto first_rows = rows_by_label(first);
  const auto second_rows = rows_by_label(second);
  ASSERT_EQ(first_rows.size(), 3u);
  ASSERT_EQ(second_rows.size(), 3u);
  EXPECT_TRUE(first_rows.count("ecc"));
  EXPECT_TRUE(second_rows.count("ecc"));
  for (const auto& [label, bytes] : first_rows) {
    ASSERT_TRUE(second_rows.count(label)) << label;
    EXPECT_EQ(second_rows.at(label), bytes)
        << "cached replay of " << label << " is not byte-identical";
  }

  // Summary carries the cache counters.
  const auto summary = api::parse_response_line(second.back());
  ASSERT_TRUE(summary.has_value());
  ASSERT_EQ(summary->kind, api::ResponseEvent::Kind::kBatch);
  EXPECT_EQ(summary->summary.cache_hits, 3u);
  EXPECT_EQ(summary->summary.cache_misses, 0u);
  EXPECT_EQ(summary->summary.ok, 3u);
  EXPECT_EQ(server.cache_hits(), 3u);
  EXPECT_EQ(server.cache_misses(), 3u);
  server.stop();
}

TEST(ServiceCache, JournaledBatchesBypassTheCache) {
  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());

  const std::string journal =
      ::testing::TempDir() + "/bypass_cache_journal.jsonl";
  std::remove(journal.c_str());

  api::FlowRequest request;
  request.jobs.push_back(spec_job("bypass", 36, 12));
  request.journal_path = journal;

  for (int round = 0; round < 2; ++round) {
    const auto lines =
        raw_exchange(server.port(), api::serialize_request(request));
    for (const std::string& line : lines) {
      EXPECT_EQ(line.find("\"cache\":\"hit\""), std::string::npos) << line;
    }
    const auto summary = api::parse_response_line(lines.back());
    ASSERT_TRUE(summary.has_value());
    EXPECT_EQ(summary->summary.cache_hits, 0u);
    std::remove(journal.c_str());
  }
  EXPECT_EQ(server.cache_hits(), 0u);
  EXPECT_EQ(server.cache_misses(), 0u);
  server.stop();
}

TEST(ServiceCache, MixedBatchServesHitsAndExecutesTheRest) {
  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());

  api::FlowRequest warm;
  warm.jobs.push_back(spec_job("mix_a", 36, 12));
  const server::RemoteBatch first =
      server::run_remote("127.0.0.1", server.port(), warm);
  ASSERT_TRUE(first.all_ok()) << first.status.to_string();

  // A job with a deadline is never looked up: its row carries no cache
  // mark, and the summary, the cache and the process-wide metrics counter
  // all leave it out of the misses.
  const obs::Counter& miss_counter = obs::metrics().counter(
      "sadp_server_cache_requests_total", "", "result=\"miss\"");
  const std::uint64_t counted_before = miss_counter.value();
  const std::size_t misses_before = server.cache_misses();
  api::FlowRequest mixed;
  mixed.jobs.push_back(spec_job("mix_a", 36, 12));   // cached
  mixed.jobs.push_back(spec_job("mix_b", 38, 13));   // new
  mixed.jobs.push_back(spec_job("mix_c", 34, 11));   // uncacheable
  mixed.jobs.back().deadline_seconds = 100.0;
  const server::RemoteBatch batch =
      server::run_remote("127.0.0.1", server.port(), mixed);
  ASSERT_TRUE(batch.all_ok()) << batch.status.to_string();
  EXPECT_EQ(batch.summary.jobs, 3u);
  EXPECT_EQ(batch.summary.ok, 3u);
  EXPECT_EQ(batch.summary.cache_hits, 1u);
  EXPECT_EQ(batch.summary.cache_misses, 1u);
  EXPECT_EQ(server.cache_misses() - misses_before, 1u);
  EXPECT_EQ(miss_counter.value() - counted_before, 1u);
  ASSERT_EQ(batch.rows.size(), 3u);
  ASSERT_EQ(batch.row_cache.size(), 3u);
  std::map<std::string, std::string> marks;
  for (std::size_t i = 0; i < batch.rows.size(); ++i) {
    marks[batch.rows[i].label] = batch.row_cache[i];
  }
  EXPECT_EQ(marks.at("mix_a"), "hit");
  EXPECT_EQ(marks.at("mix_b"), "miss");
  EXPECT_EQ(marks.at("mix_c"), "");
  server.stop();
}

// ---------------------------------------------------------------------------
// Control plane over the wire.

TEST(ServiceControl, PingStatsAndDrainRoundTrips) {
  server::ServerOptions options = quiet_options();
  options.cache_entries = 8;
  server::RouteServer server(options);
  ASSERT_TRUE(server.start().is_ok());

  double uptime = -1.0;
  ASSERT_TRUE(server::ping_remote("127.0.0.1", server.port(), &uptime).is_ok());
  EXPECT_GE(uptime, 0.0);

  api::FlowRequest request;
  request.jobs.push_back(spec_job("ctl_warm", 36, 12));
  ASSERT_TRUE(
      server::run_remote("127.0.0.1", server.port(), request).all_ok());

  api::StatsReply stats;
  ASSERT_TRUE(server::query_stats("127.0.0.1", server.port(), &stats).is_ok());
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.pool_size, 2);
  EXPECT_FALSE(stats.draining);

  ASSERT_TRUE(server::drain_remote("127.0.0.1", server.port()).is_ok());
  EXPECT_TRUE(server.draining());
  server.stop();
}

// ---------------------------------------------------------------------------
// Telemetry over the control plane.

TEST(ServiceTelemetry, MetricsScrapeWorksWarmAndWhileDraining) {
  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());

  api::FlowRequest request;
  request.jobs.push_back(spec_job("metrics_warm", 36, 12));
  ASSERT_TRUE(
      server::run_remote("127.0.0.1", server.port(), request).all_ok());

  std::string exposition;
  ASSERT_TRUE(
      server::query_metrics("127.0.0.1", server.port(), &exposition).is_ok());
  for (const char* expected :
       {"# TYPE sadp_process_uptime_seconds gauge",
        "# TYPE sadp_server_requests_total counter",
        "# TYPE sadp_server_request_run_seconds histogram",
        "sadp_server_request_run_seconds_count",
        "sadp_server_queue_depth", "sadp_server_connections",
        "sadp_engine_jobs_total{status=\"ok\"}"}) {
    EXPECT_NE(exposition.find(expected), std::string::npos) << expected;
  }

  // The stats latency percentiles come from the same run histogram.
  api::StatsReply stats;
  ASSERT_TRUE(server::query_stats("127.0.0.1", server.port(), &stats).is_ok());
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);

  // Scrapes ride the event loop, not the worker pool: a draining daemon
  // still answers (the ops moment metrics matter most).
  ASSERT_TRUE(server::drain_remote("127.0.0.1", server.port()).is_ok());
  std::string while_draining;
  EXPECT_TRUE(
      server::query_metrics("127.0.0.1", server.port(), &while_draining)
          .is_ok());
  EXPECT_NE(while_draining.find("sadp_server_requests_total"),
            std::string::npos);
  server.stop();
}

TEST(ServiceTelemetry, ClientVanishingMidScrapeLeavesTheServerHealthy) {
  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());

  api::ControlRequest scrape;
  scrape.type = api::ControlRequest::Type::kMetrics;
  const std::string line = api::serialize_control_request(scrape);
  for (int i = 0; i < 8; ++i) {
    const int fd = connect_loopback(server.port());
    send_bytes(fd, line + "\n");
    char fragment[16];
    (void)::recv(fd, fragment, sizeof fragment, 0);  // partial read, then gone
    ::close(fd);
  }

  std::string exposition;
  ASSERT_TRUE(
      server::query_metrics("127.0.0.1", server.port(), &exposition).is_ok());
  EXPECT_EQ(exposition.rfind("# HELP sadp_process_uptime_seconds", 0), 0u);
  server.stop();
}

TEST(ServiceTelemetry, DispatcherMintsTraceContextAndServesFleetMetrics) {
  server::RouteServer backend(quiet_options());
  ASSERT_TRUE(backend.start().is_ok());

  server::DispatcherOptions options;
  options.port = 0;
  options.backends = {"127.0.0.1:" + std::to_string(backend.port())};
  options.probe_interval_ms = 50;
  options.quiet = true;
  server::RouteDispatcher dispatcher(options);
  ASSERT_TRUE(dispatcher.start().is_ok());

  // The client sends an UNTRACED request; the dispatcher is the trace
  // root, so the rows and summary coming back carry its minted context.
  api::FlowRequest request;
  request.jobs.push_back(spec_job("fleet_traced", 36, 12));
  const std::vector<std::string> lines =
      raw_exchange(dispatcher.port(), api::serialize_request(request));
  ASSERT_FALSE(lines.empty());
  std::string trace_id;
  for (const std::string& reply : lines) {
    const auto event = api::parse_response_line(reply);
    ASSERT_TRUE(event.has_value()) << reply;
    if (event->kind == api::ResponseEvent::Kind::kRow) {
      EXPECT_FALSE(event->trace_id.empty()) << reply;
      EXPECT_FALSE(event->span_id.empty()) << reply;
      trace_id = event->trace_id;
    } else if (event->kind == api::ResponseEvent::Kind::kBatch) {
      EXPECT_EQ(event->summary.trace_id, trace_id)
          << "summary outside the trace";
      EXPECT_GT(event->summary.recv_unix_us, 0);
      EXPECT_GE(event->summary.sent_unix_us, event->summary.recv_unix_us);
    }
  }
  EXPECT_EQ(trace_id.size(), 16u);

  // The dispatcher's own exposition includes the per-backend relay
  // histogram (daemon and dispatcher share this process's registry here,
  // so scrape through the dispatcher port and look for the labeled series).
  std::string exposition;
  ASSERT_TRUE(
      server::query_metrics("127.0.0.1", dispatcher.port(), &exposition)
          .is_ok());
  EXPECT_NE(exposition.find("# TYPE sadp_dispatch_relay_seconds histogram"),
            std::string::npos);
  EXPECT_NE(exposition.find("sadp_dispatch_relay_seconds_bucket{backend=\"" +
                            options.backends[0] + "\""),
            std::string::npos);

  // Fleet stats aggregate the relay histogram into latency percentiles.
  api::StatsReply stats;
  ASSERT_TRUE(
      server::query_stats("127.0.0.1", dispatcher.port(), &stats).is_ok());
  EXPECT_GT(stats.latency_p50_ms, 0.0);

  dispatcher.stop();
  backend.stop();
}

// ---------------------------------------------------------------------------
// Event loop: idle connections, partial reads, malformed wire input.

TEST(ServiceEventLoop, IdleConnectionsDoNotBlockAdmission) {
  server::ServerOptions options = quiet_options();
  options.max_requests = 2;
  server::RouteServer server(options);
  ASSERT_TRUE(server.start().is_ok());

  // 64 connections that connect and then send nothing.  Under the old
  // thread-per-connection model these would pin 64 handler threads; under
  // the event loop they are just 64 idle registrations.
  std::vector<int> idle;
  for (int i = 0; i < 64; ++i) idle.push_back(connect_loopback(server.port()));

  // An active request must still be admitted and answered promptly.
  api::FlowRequest request;
  request.jobs.push_back(spec_job("through_the_crowd", 36, 12));
  const server::RemoteBatch batch =
      server::run_remote("127.0.0.1", server.port(), request);
  EXPECT_TRUE(batch.all_ok()) << batch.status.to_string();
  EXPECT_EQ(server.rejected(), 0u);

  // The idle sockets are still open (the server did not shed them).
  char probe;
  for (const int fd : idle) {
    const ssize_t n = ::recv(fd, &probe, 1, MSG_DONTWAIT);
    EXPECT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << "idle connection unexpectedly closed or readable";
  }
  for (const int fd : idle) ::close(fd);
  server.stop();
}

TEST(ServiceEventLoop, InterleavedPartialReadsAssembleBothRequests) {
  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());

  api::FlowRequest request_a;
  request_a.jobs.push_back(spec_job("partial_a", 36, 12));
  api::FlowRequest request_b;
  request_b.jobs.push_back(spec_job("partial_b", 38, 13));
  const std::string line_a = api::serialize_request(request_a) + "\n";
  const std::string line_b = api::serialize_request(request_b) + "\n";

  const int fd_a = connect_loopback(server.port());
  const int fd_b = connect_loopback(server.port());

  // Drip-feed both requests in interleaved 7-byte slices, so the event
  // loop sees many partial reads per connection with the other's bytes in
  // between.
  std::size_t pos_a = 0;
  std::size_t pos_b = 0;
  while (pos_a < line_a.size() || pos_b < line_b.size()) {
    if (pos_a < line_a.size()) {
      const std::size_t n = std::min<std::size_t>(7, line_a.size() - pos_a);
      send_bytes(fd_a, line_a.substr(pos_a, n));
      pos_a += n;
    }
    if (pos_b < line_b.size()) {
      const std::size_t n = std::min<std::size_t>(7, line_b.size() - pos_b);
      send_bytes(fd_b, line_b.substr(pos_b, n));
      pos_b += n;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::vector<std::string> lines_a = recv_lines(fd_a);
  const std::vector<std::string> lines_b = recv_lines(fd_b);
  ::close(fd_a);
  ::close(fd_b);

  ASSERT_FALSE(lines_a.empty());
  ASSERT_FALSE(lines_b.empty());
  const auto summary_a = api::parse_response_line(lines_a.back());
  const auto summary_b = api::parse_response_line(lines_b.back());
  ASSERT_TRUE(summary_a.has_value());
  ASSERT_TRUE(summary_b.has_value());
  EXPECT_EQ(summary_a->kind, api::ResponseEvent::Kind::kBatch);
  EXPECT_EQ(summary_b->kind, api::ResponseEvent::Kind::kBatch);
  EXPECT_EQ(summary_a->summary.ok, 1u);
  EXPECT_EQ(summary_b->summary.ok, 1u);
  const auto rows_a = rows_by_label(lines_a);
  EXPECT_TRUE(rows_a.count("partial_a"));
  EXPECT_FALSE(rows_a.count("partial_b")) << "streams crossed connections";
  server.stop();
}

TEST(ServiceWire, MalformedLinesGetStructuredErrors) {
  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());

  // Retired load gossip: now just another unknown control type.
  const std::string beacon =
      R"({"type":"beacon","from":"127.0.0.1:7471","queue_depth":1,"active":1})";
  const std::vector<std::string> garbage = {
      "this is not json",
      "{\"schema\":\"sadp.flow_request.v1\",\"jobs\":[{\"benchm",  // truncated
      "{\"schema\":\"nope.v9\",\"jobs\":[]}",
      "{\"type\":\"bogus_control\"}",
      beacon,
      "{}",
  };
  // The dispatcher answers control lines through the daemon's answerer and
  // relays the rest, so every reply must be the daemon's, byte for byte.
  server::RouteDispatcher dispatcher(
      dispatcher_options({"127.0.0.1:" + std::to_string(server.port())}));
  ASSERT_TRUE(dispatcher.start().is_ok());
  for (const std::string& line : garbage) {
    const std::vector<std::string> reply = raw_exchange(server.port(), line);
    ASSERT_EQ(reply.size(), 1u) << line;
    const auto event = api::parse_response_line(reply[0]);
    ASSERT_TRUE(event.has_value()) << reply[0];
    EXPECT_EQ(event->kind, api::ResponseEvent::Kind::kError) << line;
    EXPECT_EQ(event->error.code(), util::StatusCode::kInvalidInput) << line;
    EXPECT_EQ(raw_exchange(dispatcher.port(), line), reply) << line;
  }
  dispatcher.stop();
  // The server survives all of it.
  api::FlowRequest request;
  request.jobs.push_back(spec_job("after_garbage", 36, 12));
  EXPECT_TRUE(server::run_remote("127.0.0.1", server.port(), request).all_ok());
  server.stop();
}

TEST(ServiceWire, OversizedRequestLineIsRejectedAtTheCap) {
  server::ServerOptions options = quiet_options();
  options.max_request_bytes = 1024;
  server::RouteServer server(options);
  ASSERT_TRUE(server.start().is_ok());
  // A dispatcher with the same cap must answer exactly as the daemon does.
  server::DispatcherOptions dispatch_options =
      dispatcher_options({"127.0.0.1:" + std::to_string(server.port())});
  dispatch_options.max_request_bytes = 1024;
  server::RouteDispatcher dispatcher(dispatch_options);
  ASSERT_TRUE(dispatcher.start().is_ok());

  for (const int port : {server.port(), dispatcher.port()}) {
    const int fd = connect_loopback(port);
    // 4 KiB of an unterminated line: the server must cut it off at the cap
    // instead of buffering forever.
    send_bytes(fd, std::string(4096, 'x'));
    const std::vector<std::string> reply = recv_lines(fd);
    ::close(fd);
    ASSERT_EQ(reply.size(), 1u) << "port " << port;
    const auto event = api::parse_response_line(reply[0]);
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->kind, api::ResponseEvent::Kind::kError);
    EXPECT_EQ(event->error.code(), util::StatusCode::kInvalidInput);
    EXPECT_NE(event->error.message().find("1024"), std::string::npos);
  }
  // A client that sends its whole request before reading still gets the
  // line: the daemon and the dispatcher drain the rest instead of resetting
  // the connection.  32 MiB is more than loopback socket buffers hold, so
  // a reset would fail the send.
  for (const int port : {server.port(), dispatcher.port()}) {
    const int fd = connect_loopback(port);
    send_bytes(fd, std::string(32u << 20, 'x'));
    EXPECT_EQ(recv_lines(fd).size(), 1u) << "port " << port;
    ::close(fd);
  }
  dispatcher.stop();
  server.stop();
}

// ---------------------------------------------------------------------------
// Client retry.

/// A delta against the routed instance of `job` (a spec job) that removes
/// its net 0.
api::FlowDeltaRequest remove_net_delta(const api::JobRequest& job) {
  const netlist::PlacedNetlist base = netlist::generate(*job.spec);
  core::FlowConfig config;
  config.dvi_method = job.dvi_method;
  const core::FlowRun run = core::run_flow(base, config);
  api::FlowDeltaRequest delta;
  delta.base = job;
  delta.base_solution = core::solution_to_text(
      core::capture_solution(base.name, run.router->routing_grid(),
                             config.options.style, run.router->nets()));
  core::EcoChange change;
  change.kind = core::EcoChange::Kind::kRemoveNet;
  change.net = 0;
  delta.changes = {change};
  return delta;
}

TEST(ServiceRetry, RetriesThroughResourceExhaustion) {
  std::promise<void> admitted;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();

  server::ServerOptions options = quiet_options();
  options.max_requests = 1;
  bool first = true;
  options.on_request_admitted = [&admitted, release_future, &first] {
    if (first) {
      first = false;
      admitted.set_value();
      release_future.wait();
    }
  };
  server::RouteServer server(options);
  ASSERT_TRUE(server.start().is_ok());

  api::FlowRequest request;
  request.jobs.push_back(spec_job("retry_hold", 36, 12));
  const api::FlowDeltaRequest delta =
      remove_net_delta(spec_job("retry_delta", 36, 12));

  auto held = std::async(std::launch::async, [&] {
    return server::run_remote("127.0.0.1", server.port(), request);
  });
  admitted.get_future().wait();

  // No retries: immediate rejection (the old behavior, still the default),
  // for a flow request and a delta alike.
  const server::RemoteBatch rejected =
      server::run_remote("127.0.0.1", server.port(), request);
  EXPECT_EQ(rejected.status.code(), util::StatusCode::kResourceExhausted);
  const server::RemoteBatch rejected_delta =
      server::run_remote_delta("127.0.0.1", server.port(), delta);
  EXPECT_EQ(rejected_delta.status.code(),
            util::StatusCode::kResourceExhausted);

  // With retries: release the slot shortly after the first rejections; both
  // retrying clients, sent while the slot is still held, must eventually
  // get through.
  server::RetryOptions retry;
  retry.retries = 50;
  retry.base_delay_ms = 10;
  retry.max_delay_ms = 100;
  auto retried_delta = std::async(std::launch::async, [&] {
    return server::run_remote_retry("127.0.0.1", server.port(), delta, retry);
  });
  auto releaser = std::async(std::launch::async, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    release.set_value();
  });
  const server::RemoteBatch retried =
      server::run_remote_retry("127.0.0.1", server.port(), request, retry);
  releaser.get();
  EXPECT_TRUE(retried.all_ok()) << retried.status.to_string();
  EXPECT_GT(retried.attempts, 1);
  const server::RemoteBatch delta_batch = retried_delta.get();
  EXPECT_TRUE(delta_batch.all_ok()) << delta_batch.status.to_string();
  EXPECT_TRUE(delta_batch.delta_received);
  EXPECT_GT(delta_batch.attempts, 1);
  EXPECT_TRUE(held.get().all_ok());
  server.stop();
}

// ---------------------------------------------------------------------------
// Dispatcher: backends named by host name, probes bounded by the probe
// timeout, stop() with an idle client; then two REAL sadp_routed backends,
// one SIGKILLed, and the dispatcher routes around the corpse with no failed
// rows; then a REAL `sadp_routed --backends` front over two of them, and
// SIGTERM stops all three with exit 0.

/// Poll the dispatcher's stats for up to 3 s until `done` holds on its
/// peer rows.
bool peers_within_3s(
    int port, const std::function<bool(const std::vector<api::PeerStatus>&)>&
                  done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (std::chrono::steady_clock::now() < deadline) {
    api::StatsReply stats;
    if (server::query_stats("127.0.0.1", port, &stats).is_ok() &&
        done(stats.peers)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(ServiceDispatch, ReachesBackendsByHostName) {
  server::RouteServer backend(quiet_options());
  ASSERT_TRUE(backend.start().is_ok());
  server::RouteDispatcher dispatcher(
      dispatcher_options({"localhost:" + std::to_string(backend.port())}));
  ASSERT_TRUE(dispatcher.start().is_ok());

  EXPECT_TRUE(peers_within_3s(dispatcher.port(), [](const auto& peers) {
    return peers.size() == 1 && peers[0].alive;
  })) << "no probe reached the backend named localhost";
  api::FlowRequest request;
  request.jobs.push_back(spec_job("by_host_name", 36, 12));
  const server::RemoteBatch batch =
      server::run_remote("127.0.0.1", dispatcher.port(), request);
  EXPECT_TRUE(batch.all_ok()) << batch.status.to_string();

  dispatcher.stop();
  backend.stop();
}

TEST(ServiceDispatch, WedgedBackendDoesNotStallProbes) {
  // A listener that never accepts: the kernel completes each probe's
  // handshake into its backlog, and no reply ever comes.
  int wedged = -1;
  int wedged_port = 0;
  ASSERT_TRUE(server::listen_loopback(0, &wedged, &wedged_port).is_ok());
  server::RouteServer live(quiet_options());
  ASSERT_TRUE(live.start().is_ok());
  server::DispatcherOptions options =
      dispatcher_options({"127.0.0.1:" + std::to_string(wedged_port),
                          "127.0.0.1:" + std::to_string(live.port())});
  options.probe_timeout_ms = 100;
  server::RouteDispatcher dispatcher(options);
  ASSERT_TRUE(dispatcher.start().is_ok());

  // Stats only: the relay has no timeout by design, so a forwarded request
  // could block on the wedged backend.
  EXPECT_TRUE(peers_within_3s(dispatcher.port(), [](const auto& peers) {
    return peers.size() == 2 && !peers[0].alive && peers[1].alive;
  })) << "the wedged backend stalled the probe loop";

  // Closing the listener resets a probe stuck on it, so stop() cannot hang
  // even when the probe timeout is broken.
  ::close(wedged);
  dispatcher.stop();
  live.stop();
}

TEST(ServiceDispatch, StopReturnsWhileAClientIsIdle) {
  server::RouteServer backend(quiet_options());
  ASSERT_TRUE(backend.start().is_ok());
  server::RouteDispatcher dispatcher(
      dispatcher_options({"127.0.0.1:" + std::to_string(backend.port())}));
  ASSERT_TRUE(dispatcher.start().is_ok());

  // A client that connects and never sends.  The ping behind it proves the
  // dispatcher accepted it: one accept loop takes connections in order.
  const int idle = connect_loopback(dispatcher.port());
  ASSERT_TRUE(server::ping_remote("127.0.0.1", dispatcher.port()).is_ok());
  auto stopped =
      std::async(std::launch::async, [&dispatcher] { dispatcher.stop(); });
  const bool returned = stopped.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  ::close(idle);  // lets a hung stop() finish, so the test ends either way
  stopped.wait();
  EXPECT_TRUE(returned) << "stop() waited for an idle client";
  backend.stop();
}

#ifdef SADP_ROUTED_BIN

/// A sadp_routed child process started with --port 0 --quiet and `args`
/// (by default a 2-worker daemon); the chosen port is read from its stdout
/// pipe.
struct SpawnedDaemon {
  pid_t pid = -1;
  int port = 0;

  bool start(std::vector<std::string> args = {"--workers", "2"}) {
    std::vector<std::string> words = {SADP_ROUTED_BIN, "--port", "0",
                                      "--quiet"};
    words.insert(words.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& word : words) argv.push_back(word.data());
    argv.push_back(nullptr);
    int out[2];
    if (::pipe(out) != 0) return false;
    pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      // Child: only async-signal-safe calls before exec.
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execv(SADP_ROUTED_BIN, argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    // Parent: read "listening on 127.0.0.1:<port>\n".
    std::string banner;
    char byte;
    while (banner.find('\n') == std::string::npos &&
           ::read(out[0], &byte, 1) == 1) {
      banner.push_back(byte);
    }
    ::close(out[0]);
    const std::size_t colon = banner.rfind(':');
    if (colon == std::string::npos) return false;
    port = std::atoi(banner.c_str() + colon + 1);
    return port > 0;
  }

  void kill_hard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }

  /// SIGTERM the child and reap it: its exit code, or -1 when it did not
  /// exit normally.
  int terminate() {
    if (pid <= 0) return -1;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~SpawnedDaemon() { kill_hard(); }
};

TEST(ServiceDispatch, RoutesAroundSigkilledBackend) {
  SpawnedDaemon backend_a;
  SpawnedDaemon backend_b;
  ASSERT_TRUE(backend_a.start());
  ASSERT_TRUE(backend_b.start());

  server::DispatcherOptions options;
  options.port = 0;
  options.backends = {"127.0.0.1:" + std::to_string(backend_a.port),
                      "127.0.0.1:" + std::to_string(backend_b.port)};
  options.probe_interval_ms = 50;
  options.stale_after_ms = 300;
  options.quiet = true;
  server::RouteDispatcher dispatcher(options);
  ASSERT_TRUE(dispatcher.start().is_ok());

  // Fleet sanity before the kill: a batch succeeds through the front.
  api::FlowRequest request;
  request.jobs.push_back(spec_job("fleet_warm", 36, 12));
  ASSERT_TRUE(
      server::run_remote("127.0.0.1", dispatcher.port(), request).all_ok());

  backend_a.kill_hard();

  // Every request queued after the kill must succeed with zero failed
  // rows — whichever backend the dispatcher picks first, the zero-bytes
  // rule lets it fail over to the survivor.
  for (int i = 0; i < 3; ++i) {
    api::FlowRequest next;
    const std::string label = "fleet_after_kill_" + std::to_string(i);
    next.jobs.push_back(spec_job(label.c_str(), 36 + 2 * i, 12 + i));
    const server::RemoteBatch batch =
        server::run_remote("127.0.0.1", dispatcher.port(), next);
    EXPECT_TRUE(batch.all_ok()) << batch.status.to_string();
    EXPECT_EQ(batch.summary.failed, 0u);
  }

  // The probe loop marks the corpse dead; the fleet stats reflect it.
  const std::string corpse = options.backends[0];
  EXPECT_TRUE(peers_within_3s(dispatcher.port(), [&corpse](const auto& peers) {
    for (const api::PeerStatus& peer : peers) {
      if (peer.addr == corpse && !peer.alive) return true;
    }
    return false;
  }));

  dispatcher.stop();
  EXPECT_EQ(backend_b.terminate(), 0);
}

TEST(ServiceDispatch, SigtermStopsTheFrontAndItsDaemons) {
  SpawnedDaemon backend_a;
  SpawnedDaemon backend_b;
  ASSERT_TRUE(backend_a.start());
  ASSERT_TRUE(backend_b.start());
  SpawnedDaemon front;
  ASSERT_TRUE(front.start({"--backends",
                           "127.0.0.1:" + std::to_string(backend_a.port) +
                               ",127.0.0.1:" + std::to_string(backend_b.port),
                           "--probe-interval-ms", "50"}));

  api::FlowRequest request;
  request.jobs.push_back(spec_job("front_a", 36, 12));
  request.jobs.push_back(spec_job("front_b", 38, 13));
  const server::RemoteBatch batch =
      server::run_remote("127.0.0.1", front.port, request);
  EXPECT_TRUE(batch.all_ok()) << batch.status.to_string();
  EXPECT_EQ(batch.rows.size(), 2u);

  // One signal path for both modes: SIGTERM stops each process cleanly.
  EXPECT_EQ(front.terminate(), 0);
  EXPECT_EQ(backend_a.terminate(), 0);
  EXPECT_EQ(backend_b.terminate(), 0);
}

#endif  // SADP_ROUTED_BIN

// ---------------------------------------------------------------------------
// One front end: `sadp_route --connect` puts the bytes on the wire that the
// remote client it replaced did (tests/fixtures/wire_requests.txt).

TEST(ServiceAddress, HostPortParsesWholeTokensOnly) {
  const auto good = server::parse_host_port("127.0.0.1:7470");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->host, "127.0.0.1");
  EXPECT_EQ(good->port, 7470);
  EXPECT_EQ(server::parse_host_port("localhost:65535")->port, 65535);
  for (const char* bad :
       {"h:74x0", "h:", ":7470", "h:0", "h:70000", "h", "", "h:-1", "h:+80"}) {
    EXPECT_FALSE(server::parse_host_port(bad).has_value()) << bad;
  }

  server::DispatcherOptions options;
  options.backends = {"127.0.0.1:74x0"};
  server::RouteDispatcher dispatcher(options);
  const util::Status started = dispatcher.start();
  EXPECT_EQ(started.code(), util::StatusCode::kInvalidInput);
  EXPECT_NE(started.message().find("bad backend address"), std::string::npos);
}

TEST(ServiceAddress, ListenersRejectPortsOutsideTheTcpRange) {
  for (const int port : {70000, -1}) {
    server::ServerOptions daemon = quiet_options();
    daemon.port = port;
    server::RouteServer server(daemon);
    EXPECT_EQ(server.start().code(), util::StatusCode::kInvalidInput) << port;

    server::DispatcherOptions front = dispatcher_options({"127.0.0.1:1"});
    front.port = port;
    server::RouteDispatcher dispatcher(front);
    EXPECT_EQ(dispatcher.start().code(), util::StatusCode::kInvalidInput)
        << port;
  }
}

TEST(ServiceDispatch, StartRejectsProbeTimingsBelowOneMillisecond) {
  server::DispatcherOptions spinning = dispatcher_options({"127.0.0.1:1"});
  spinning.probe_interval_ms = 0;
  server::RouteDispatcher spinner(spinning);
  EXPECT_EQ(spinner.start().code(), util::StatusCode::kInvalidInput);

  server::DispatcherOptions all_stale = dispatcher_options({"127.0.0.1:1"});
  all_stale.stale_after_ms = 0;
  server::RouteDispatcher blind(all_stale);
  EXPECT_EQ(blind.start().code(), util::StatusCode::kInvalidInput);
}

#if defined(SADP_ROUTE_BIN) && defined(SADP_FIXTURES_DIR)

/// Run the built sadp_route with `args` plus --connect to a listener that
/// reads one line and hangs up; return that line.  The hang-up makes the
/// run a transport error, so it must exit 1.
std::string request_line_sent_by(const std::vector<std::string>& args) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  // Bounds accept() too, in case the child never connects.
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(listener, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ADD_FAILURE() << "cannot listen: " << std::strerror(errno);
    ::close(listener);
    return {};
  }
  std::vector<std::string> words = {SADP_ROUTE_BIN};
  words.insert(words.end(), args.begin(), args.end());
  words.push_back("--connect");
  words.push_back("127.0.0.1:" + std::to_string(ntohs(addr.sin_port)));
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork: " << std::strerror(errno);
    ::close(listener);
    return {};
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls before exec.
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::execv(SADP_ROUTE_BIN, argv.data());
    ::_exit(127);
  }
  std::string line;
  if (const int conn = ::accept(listener, nullptr, nullptr); conn >= 0) {
    char byte = 0;
    while (::recv(conn, &byte, 1, 0) == 1 && byte != '\n') line.push_back(byte);
    ::close(conn);
  }
  ::close(listener);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
      << "raw wait status " << status;
  return line;
}

TEST(FrontEnd, ConnectSendsRecordedRequestLines) {
  std::ifstream in(SADP_FIXTURES_DIR "/wire_requests.txt");
  ASSERT_TRUE(in.good());
  const std::string token = "@FIXTURES@";
  std::string args_line;
  int cases = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#' || line.rfind("client: ", 0) == 0) {
      continue;
    }
    if (line.rfind("args: ", 0) == 0) {
      args_line = line.substr(6);
      for (std::size_t at = args_line.find(token); at != std::string::npos;
           at = args_line.find(token)) {
        args_line.replace(at, token.size(), SADP_FIXTURES_DIR);
      }
      continue;
    }
    EXPECT_EQ(request_line_sent_by(util::split_list(args_line, ' ')), line)
        << "sadp_route " << args_line;
    ++cases;
  }
  EXPECT_EQ(cases, 14);
}

#endif  // SADP_ROUTE_BIN && SADP_FIXTURES_DIR

}  // namespace
