// sadp_routed — the long-lived routing service: a daemon, or with
// --backends the load-balancing front for a fleet of daemons.
//
// A daemon listens on a loopback TCP port and serves sadp.flow_request.v1
// batches (see DESIGN.md §11-12 and src/api/flow_api.hpp) over
// newline-delimited JSON on an epoll event loop, running every request on
// one shared worker pool and answering repeated identical jobs from a
// content-addressed result cache:
//
//   sadp_routed --port 7471 --workers 4 --max-requests 2
//   sadp_routed --port 0                      # ephemeral; port is printed
//   sadp_routed --port 7471 --cache-entries 0 # disable the result cache
//
// With --backends it routes nothing itself: it forwards each request to
// the live daemon with the smallest advertised queue depth, learned from
// stats probes, and fails over while no response byte has been relayed
// (src/server/dispatch.hpp).  Its "stats" reply aggregates the fleet with
// one peer row per backend; daemons never talk to each other:
//
//   sadp_routed --port 7470 --backends 127.0.0.1:7471,127.0.0.1:7472
//
// Clients are `sadp_route --connect 127.0.0.1:7471` in either mode:
// batches and ECO deltas as flags, or one control verb (ping, stats,
// metrics, drain, schemas, failpoints) with `--control VERB`.
//
// Fault injection (chaos testing): --failpoints arms deterministic fault
// sites at startup; `sadp_route --connect ... --control failpoints
// --failpoints SPEC` re-arms a running process over the control plane.
// See src/util/failpoint.hpp for the spec grammar and DESIGN.md §13 for
// the failure model.  --trace FILE records the process's obs spans and
// writes a sadp.flow_trace.v1 file on exit, mergeable across the fleet
// with `sadp_flow_report --merge`.
//
// Prints "listening on 127.0.0.1:<port>" once ready (scripts wait for that
// line).  SIGTERM/SIGINT stop either mode gracefully, as does a daemon's
// drain over the control plane: a daemon lets running jobs finish
// (streamed and journaled) and returns unstarted jobs cancelled, a front
// finishes its in-flight forwards; then the process exits 0.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>

#include "obs/trace.hpp"
#include "server/dispatch.hpp"
#include "server/route_server.hpp"
#include "util/args.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace sadp;

std::atomic<bool> g_stop{false};

extern "C" void stop_handler(int) { g_stop.store(true); }

/// Both modes from start-up to exit: start `service`, print the banner,
/// wait for SIGTERM/SIGINT (a daemon also ends on a drain over the control
/// plane), stop it and write the trace.
template <typename Service>
int serve(Service& service, const std::string& trace_path) {
  constexpr bool kDaemon = std::is_same_v<Service, server::RouteServer>;
  // Tracing is per-process: every request served while the session is
  // installed contributes its spans to one file, written on exit.
  obs::TraceSession trace;
  if (!trace_path.empty()) trace.install();
  const util::Status started = service.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "cannot start: %s\n", started.to_string().c_str());
    return 1;
  }
  if (!trace_path.empty()) {
    trace.set_process_name(std::string(kDaemon ? "sadp_routed :"
                                               : "sadp_routed --backends :") +
                           std::to_string(service.port()));
  }

  struct sigaction action{};
  action.sa_handler = stop_handler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  std::printf("listening on 127.0.0.1:%d\n", service.port());
  std::fflush(stdout);

  for (;;) {
    if (g_stop.load()) break;
    if constexpr (kDaemon) {
      if (service.draining()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr,
               "[sadp_routed] stopping: finishing in-flight requests\n");
  service.stop();  // joins every service thread, so trace buffers quiesce
  if (!trace_path.empty()) {
    trace.uninstall();
    const util::Status wrote = trace.write_json(trace_path);
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

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions daemon;
  server::DispatcherOptions front;
  int port = 0;
  bool quiet = false;
  std::string backends;
  int cache_entries = static_cast<int>(daemon.cache_entries);
  std::string trace_path;
  std::string failpoints_spec;
  std::uint64_t failpoints_seed = 0;
  util::ArgParser parser(
      "SADP routing service: sadp.flow_request.v1 batches over loopback TCP, "
      "routed here or, with --backends, forwarded to a fleet of daemons");
  parser.add_int("--port", &port,
                 "TCP port on 127.0.0.1, 0-65535 (0 = ephemeral, printed on "
                 "startup)",
                 "P");
  parser.add_string("--backends", &backends,
                    "front a fleet: forward each request to the least-loaded "
                    "of these daemons",
                    "H:P,...");
  parser.add_int("--workers", &daemon.pool_workers,
                 "daemon: shared worker pool size, >= 0 (0 = all cores)", "N");
  parser.add_int("--max-requests", &daemon.max_requests,
                 "daemon: admission bound, >= 1; further requests get "
                 "resource_exhausted",
                 "N");
  parser.add_int("--cache-entries", &cache_entries,
                 "daemon: result cache capacity in entries (0 = disabled)",
                 "N");
  parser.add_int("--probe-interval-ms", &front.probe_interval_ms,
                 "front: stats-probe cadence, >= 1", "MS");
  parser.add_int("--stale-after-ms", &front.stale_after_ms,
                 "front: probe age beyond which a backend is considered "
                 "dead, >= 1",
                 "MS");
  parser.add_flag("--quiet", &quiet, "suppress per-request log lines");
  parser.add_string("--trace", &trace_path,
                    "record this process's obs spans and write a "
                    "sadp.flow_trace.v1 file on exit",
                    "FILE");
  parser.add_string("--failpoints", &failpoints_spec,
                    "arm deterministic fault sites at startup "
                    "(e.g. journal.append=err@0.3;dispatch.relay=err@0.2)",
                    "SPEC");
  parser.add_uint64("--failpoints-seed", &failpoints_seed,
                    "base seed for failpoint probability draws", "SEED");
  if (!parser.parse(argc, argv)) return 2;

  // A flag of the other mode would be silently ignored: reject it.
  const bool fronting = parser.given("--backends");
  for (const char* flag : {"--workers", "--max-requests", "--cache-entries"}) {
    if (fronting && parser.given(flag)) {
      std::fprintf(stderr, "%s needs a daemon, not --backends\n", flag);
      return 2;
    }
  }
  for (const char* flag : {"--probe-interval-ms", "--stale-after-ms"}) {
    if (!fronting && parser.given(flag)) {
      std::fprintf(stderr, "%s needs --backends\n", flag);
      return 2;
    }
  }
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "--port must be in [0, 65535], got %d\n", port);
    return 2;
  }
  struct Floor {
    const char* flag;
    int value;
    int min;
  };
  const Floor floors[] = {{"--workers", daemon.pool_workers, 0},
                          {"--max-requests", daemon.max_requests, 1},
                          {"--cache-entries", cache_entries, 0},
                          {"--probe-interval-ms", front.probe_interval_ms, 1},
                          {"--stale-after-ms", front.stale_after_ms, 1}};
  for (const Floor& bound : floors) {
    if (bound.value < bound.min) {
      std::fprintf(stderr, "%s must be >= %d\n", bound.flag, bound.min);
      return 2;
    }
  }
  daemon.cache_entries = static_cast<std::size_t>(cache_entries);
  front.backends = util::split_list(backends, ',');
  if (fronting && front.backends.empty()) {
    std::fprintf(stderr, "--backends lists no HOST:PORT\n");
    return 2;
  }
  daemon.port = front.port = port;
  daemon.quiet = front.quiet = quiet;

  if (!failpoints_spec.empty()) {
    const util::Status armed = util::FailPointRegistry::instance().configure(
        failpoints_spec, failpoints_seed);
    if (!armed.is_ok()) {
      std::fprintf(stderr, "bad --failpoints: %s\n", armed.to_string().c_str());
      return 2;
    }
  }

  if (fronting) {
    server::RouteDispatcher dispatcher(front);
    return serve(dispatcher, trace_path);
  }
  server::RouteServer server(daemon);
  return serve(server, trace_path);
}
