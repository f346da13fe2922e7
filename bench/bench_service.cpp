// bench_service — closed-loop load generator for the routing service.
//
// Starts an in-process RouteServer (real epoll loop, real loopback TCP)
// and measures three things:
//
//   * miss-path latency: distinct jobs, every request executes
//     (p50/p99 per request);
//   * hit-path latency: one warmed job requested repeatedly, every
//     request replayed from the result cache (p50/p99) — the cache's
//     reason to exist is this ratio;
//   * closed-loop saturation: N client threads issue requests
//     back-to-back over a fixed wall window against a bounded job pool
//     (so the steady state is cache-dominated), reporting RPS, in-loop
//     p50/p99 and the server's cache hit rate.
//
// Output is one JSON document on stdout (schema sadp.bench_service.v1);
// tools/service_smoke.sh wraps it with baseline tracking into
// BENCH_service.json.
//
//   bench_service [--seconds S] [--clients N] [--pool P] [--hits H]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/flow_api.hpp"
#include "server/route_client.hpp"
#include "server/route_server.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace sadp;

api::JobRequest pool_job(int index) {
  api::JobRequest job;
  job.label = "svc_" + std::to_string(index);
  netlist::BenchSpec spec;
  spec.name = job.label;
  spec.width = 36;
  spec.height = 36;
  spec.num_nets = 12;
  spec.seed = 1000 + index;  // distinct instance per pool slot
  job.spec = spec;
  job.dvi_method = core::DviMethod::kHeuristic;
  return job;
}

api::FlowRequest one_job_request(int index) {
  api::FlowRequest request;
  request.workers = 1;
  request.jobs.push_back(pool_job(index));
  return request;
}

double percentile_ms(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t at = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return samples[at] * 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 3.0;
  int clients = 8;
  int pool = 16;
  int hits = 200;
  util::ArgParser parser("closed-loop load generator for the routing service");
  parser.add_double("--seconds", &seconds,
                    "closed-loop measurement window", "S");
  parser.add_int("--clients", &clients, "concurrent closed-loop clients", "N");
  parser.add_int("--pool", &pool,
                 "distinct jobs in the request pool (bounds the miss set)",
                 "P");
  parser.add_int("--hits", &hits, "hit-path latency samples", "N");
  if (!parser.parse(argc, argv)) return 2;

  server::ServerOptions options;
  options.port = 0;
  options.pool_workers = 0;  // all cores
  options.max_requests = std::max(4, clients);
  options.quiet = true;
  server::RouteServer server(options);
  const util::Status started = server.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.to_string().c_str());
    return 1;
  }
  const int port = server.port();

  // ---- miss path: every pool job once, cold cache ----
  std::vector<double> miss_samples;
  for (int i = 0; i < pool; ++i) {
    util::Timer timer;
    const server::RemoteBatch batch =
        server::run_remote("127.0.0.1", port, one_job_request(i));
    if (!batch.all_ok()) {
      std::fprintf(stderr, "miss-path request %d failed: %s\n", i,
                   batch.status.to_string().c_str());
      return 1;
    }
    miss_samples.push_back(timer.seconds());
  }

  // ---- hit path: one warmed job, repeatedly ----
  std::vector<double> hit_samples;
  for (int i = 0; i < hits; ++i) {
    util::Timer timer;
    const server::RemoteBatch batch =
        server::run_remote("127.0.0.1", port, one_job_request(0));
    if (!batch.all_ok()) {
      std::fprintf(stderr, "hit-path request failed: %s\n",
                   batch.status.to_string().c_str());
      return 1;
    }
    if (batch.summary.cache_hits != 1) {
      std::fprintf(stderr, "hit-path request %d was not served from cache\n",
                   i);
      return 1;
    }
    hit_samples.push_back(timer.seconds());
  }

  // ---- closed loop: N clients, back-to-back, bounded pool ----
  const std::size_t hits_before = server.cache_hits();
  const std::size_t misses_before = server.cache_misses();
  std::atomic<bool> stop_flag{false};
  std::atomic<long> completed{0};
  std::atomic<long> errored{0};
  std::vector<std::vector<double>> per_client(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  util::Timer window;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      server::RetryOptions retry;
      retry.retries = 8;
      retry.base_delay_ms = 1;
      retry.max_delay_ms = 50;
      retry.seed = 77 + static_cast<std::uint64_t>(c);
      int i = c;  // stagger the pool walk per client
      while (!stop_flag.load(std::memory_order_relaxed)) {
        util::Timer timer;
        const server::RemoteBatch batch = server::run_remote_retry(
            "127.0.0.1", port, one_job_request(i % pool), retry);
        if (batch.all_ok()) {
          per_client[static_cast<std::size_t>(c)].push_back(timer.seconds());
          completed.fetch_add(1, std::memory_order_relaxed);
        } else {
          errored.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }
  while (window.seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop_flag.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  const double elapsed = window.seconds();

  std::vector<double> loop_samples;
  for (const auto& samples : per_client) {
    loop_samples.insert(loop_samples.end(), samples.begin(), samples.end());
  }
  const std::size_t loop_hits = server.cache_hits() - hits_before;
  const std::size_t loop_misses = server.cache_misses() - misses_before;
  const double hit_rate =
      loop_hits + loop_misses == 0
          ? 0.0
          : static_cast<double>(loop_hits) /
                static_cast<double>(loop_hits + loop_misses);

  server.stop();

  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value("sadp.bench_service.v1");
  json.key("miss").begin_object();
  json.key("requests").value(static_cast<long long>(miss_samples.size()));
  json.key("p50_ms").value(percentile_ms(miss_samples, 0.50));
  json.key("p99_ms").value(percentile_ms(miss_samples, 0.99));
  json.end_object();
  json.key("hit").begin_object();
  json.key("requests").value(static_cast<long long>(hit_samples.size()));
  json.key("p50_ms").value(percentile_ms(hit_samples, 0.50));
  json.key("p99_ms").value(percentile_ms(hit_samples, 0.99));
  json.end_object();
  json.key("closed_loop").begin_object();
  json.key("clients").value(clients);
  json.key("seconds").value(elapsed);
  json.key("completed").value(static_cast<long long>(completed.load()));
  json.key("errored").value(static_cast<long long>(errored.load()));
  json.key("rps").value(elapsed > 0.0
                            ? static_cast<double>(completed.load()) / elapsed
                            : 0.0);
  json.key("p50_ms").value(percentile_ms(loop_samples, 0.50));
  json.key("p99_ms").value(percentile_ms(loop_samples, 0.99));
  json.key("cache_hit_rate").value(hit_rate);
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
