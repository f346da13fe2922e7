// sadp_routed — long-lived routing service daemon.
//
// Listens on a loopback TCP port and serves sadp.flow_request.v1 batches
// (see DESIGN.md §11-12 and src/api/flow_api.hpp) over newline-delimited
// JSON on an epoll event loop, running every request on one shared worker
// pool and answering repeated identical jobs from a content-addressed
// result cache:
//
//   sadp_routed --port 7471 --workers 4 --max-requests 2
//   sadp_routed --port 0                      # ephemeral; port is printed
//   sadp_routed --port 7471 --cache-entries 0 # disable the result cache
//
// A fleet of daemons is fronted by sadp_route_dispatch, which learns each
// backend's load from stats probes; daemons never talk to each other.
//
// Client modes (talk to a RUNNING daemon or dispatcher, then exit):
//
//   sadp_routed --stats --port 7471   # print queue/cache stats (a
//                                     # dispatcher adds one line per backend)
//   sadp_routed --metrics --port 7471 # print Prometheus text exposition
//   sadp_routed --ping  --port 7471   # liveness probe (exit 0 when up)
//   sadp_routed --drain --port 7471   # ask it to drain gracefully
//   sadp_routed --set-failpoints "journal.append=err@0.3" --port 7471
//   sadp_routed --clear-failpoints --port 7471
//
// Fault injection (chaos testing): --failpoints arms deterministic fault
// sites at startup, --set-failpoints/--clear-failpoints re-arm a running
// daemon over the control plane.  See src/util/failpoint.hpp for the spec
// grammar and DESIGN.md §13 for the failure model.
//
// Prints "listening on 127.0.0.1:<port>" once ready (scripts wait for that
// line).  SIGTERM/SIGINT drain gracefully: running jobs finish and are
// streamed/journaled, unstarted jobs come back cancelled, then the process
// exits 0.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "server/route_client.hpp"
#include "server/route_server.hpp"
#include "util/args.hpp"
#include "util/failpoint.hpp"

namespace {

int print_stats(const std::string& host, int port) {
  sadp::api::StatsReply stats;
  const sadp::util::Status got = sadp::server::query_stats(host, port, &stats);
  if (!got.is_ok()) {
    std::fprintf(stderr, "stats failed: %s\n", got.to_string().c_str());
    return 1;
  }
  std::printf(
      "queue_depth=%zu active=%zu rejected=%zu cache_hits=%zu "
      "cache_misses=%zu pool=%d uptime=%.1fs draining=%s "
      "latency_p50_ms=%.3f latency_p99_ms=%.3f\n",
      stats.queue_depth, stats.active, stats.rejected, stats.cache_hits,
      stats.cache_misses, stats.pool_size, stats.uptime_seconds,
      stats.draining ? "yes" : "no", stats.latency_p50_ms,
      stats.latency_p99_ms);
  for (const auto& peer : stats.peers) {
    std::printf("peer %s: queue_depth=%d active=%d age=%.2fs alive=%s\n",
                peer.addr.c_str(), peer.queue_depth, peer.active,
                peer.age_seconds, peer.alive ? "yes" : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  sadp::server::ServerOptions options;
  bool quiet = false;
  bool stats_mode = false;
  bool metrics_mode = false;
  bool ping_mode = false;
  bool drain_mode = false;
  std::string trace_path;
  bool clear_failpoints_mode = false;
  std::string set_failpoints_spec;
  std::string failpoints_spec;
  std::uint64_t failpoints_seed = 0;
  std::string host = "127.0.0.1";
  int cache_entries = 256;
  sadp::util::ArgParser parser(
      "SADP routing service: sadp.flow_request.v1 batches over loopback TCP");
  parser.add_int("--port", &options.port,
                 "TCP port on 127.0.0.1 (0 = ephemeral, printed on startup)",
                 "P");
  parser.add_int("--workers", &options.pool_workers,
                 "shared worker pool size (0 = all cores)", "N");
  parser.add_int("--max-requests", &options.max_requests,
                 "admission bound; further requests get resource_exhausted",
                 "N");
  parser.add_int("--cache-entries", &cache_entries,
                 "result cache capacity in entries (0 = disabled)", "N");
  parser.add_flag("--quiet", &quiet, "suppress per-request log lines");
  parser.add_string("--host", &host, "client modes: server host", "HOST");
  parser.add_flag("--stats", &stats_mode,
                  "client mode: print a running daemon's stats and exit");
  parser.add_flag("--metrics", &metrics_mode,
                  "client mode: print a running daemon's Prometheus "
                  "exposition and exit");
  parser.add_string("--trace", &trace_path,
                    "record this daemon's obs spans and write a "
                    "sadp.flow_trace.v1 file on exit", "FILE");
  parser.add_flag("--ping", &ping_mode,
                  "client mode: liveness probe (exit 0 when the daemon is up)");
  parser.add_flag("--drain", &drain_mode,
                  "client mode: ask a running daemon to drain gracefully");
  parser.add_string("--failpoints", &failpoints_spec,
                    "arm deterministic fault sites at startup "
                    "(e.g. journal.append=err@0.3;net.write=short)",
                    "SPEC");
  parser.add_uint64("--failpoints-seed", &failpoints_seed,
                    "base seed for failpoint probability draws", "SEED");
  parser.add_string("--set-failpoints", &set_failpoints_spec,
                    "client mode: arm failpoints in a running daemon", "SPEC");
  parser.add_flag("--clear-failpoints", &clear_failpoints_mode,
                  "client mode: disarm all failpoints in a running daemon");
  if (!parser.parse(argc, argv)) return 2;
  options.quiet = quiet;

  if (!set_failpoints_spec.empty() || clear_failpoints_mode) {
    if (options.port <= 0) {
      std::fprintf(stderr, "client modes need --port of a running daemon\n");
      return 2;
    }
    std::size_t armed = 0;
    const sadp::util::Status set = sadp::server::configure_failpoints_remote(
        host, options.port, clear_failpoints_mode ? "" : set_failpoints_spec,
        failpoints_seed, &armed);
    if (!set.is_ok()) {
      std::fprintf(stderr, "failpoint config failed: %s\n",
                   set.to_string().c_str());
      return 1;
    }
    std::printf("failpoints armed=%zu\n", armed);
    return 0;
  }

  if (stats_mode || metrics_mode || ping_mode || drain_mode) {
    if (options.port <= 0) {
      std::fprintf(stderr, "client modes need --port of a running daemon\n");
      return 2;
    }
    if (stats_mode) return print_stats(host, options.port);
    if (metrics_mode) {
      std::string exposition;
      const sadp::util::Status got =
          sadp::server::query_metrics(host, options.port, &exposition);
      if (!got.is_ok()) {
        std::fprintf(stderr, "metrics failed: %s\n", got.to_string().c_str());
        return 1;
      }
      std::fputs(exposition.c_str(), stdout);
      return 0;
    }
    if (ping_mode) {
      double uptime = 0.0;
      const sadp::util::Status up =
          sadp::server::ping_remote(host, options.port, &uptime);
      if (!up.is_ok()) {
        std::fprintf(stderr, "ping failed: %s\n", up.to_string().c_str());
        return 1;
      }
      std::printf("pong uptime=%.1fs\n", uptime);
      return 0;
    }
    const sadp::util::Status drained =
        sadp::server::drain_remote(host, options.port);
    if (!drained.is_ok()) {
      std::fprintf(stderr, "drain failed: %s\n", drained.to_string().c_str());
      return 1;
    }
    std::printf("draining\n");
    return 0;
  }

  if (options.max_requests < 1) {
    std::fprintf(stderr, "--max-requests must be >= 1\n");
    return 2;
  }
  if (cache_entries < 0) {
    std::fprintf(stderr, "--cache-entries must be >= 0\n");
    return 2;
  }
  options.cache_entries = static_cast<std::size_t>(cache_entries);

  if (!failpoints_spec.empty()) {
    const sadp::util::Status armed =
        sadp::util::FailPointRegistry::instance().configure(failpoints_spec,
                                                            failpoints_seed);
    if (!armed.is_ok()) {
      std::fprintf(stderr, "bad --failpoints: %s\n", armed.to_string().c_str());
      return 2;
    }
  }

  // Tracing is per-process: every request served while the session is
  // installed contributes admission/run/engine spans, written as one
  // sadp.flow_trace.v1 file on drain for sadp_trace_merge.
  sadp::obs::TraceSession trace;
  if (!trace_path.empty()) trace.install();

  sadp::server::RouteServer server(options);
  const sadp::util::Status started = server.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "cannot start: %s\n", started.to_string().c_str());
    return 1;
  }
  if (!trace_path.empty()) {
    trace.set_process_name("sadp_routed :" + std::to_string(server.port()));
  }
  sadp::server::install_sigterm_drain(&server);

  std::printf("listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "[sadp_routed] draining: finishing in-flight jobs\n");
  server.stop();
  sadp::server::install_sigterm_drain(nullptr);
  if (!trace_path.empty()) {
    trace.uninstall();  // server threads are joined; buffers are quiescent
    const sadp::util::Status wrote = trace.write_json(trace_path);
    if (!wrote.is_ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n",
                   wrote.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "[sadp_routed] wrote trace %s (%zu events)\n",
                 trace_path.c_str(), trace.event_count());
  }
  return 0;
}
