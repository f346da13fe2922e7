// sadp_route_dispatch — load-balancing front for a fleet of sadp_routed
// backends.
//
//   sadp_route_dispatch --port 7470 --backends 127.0.0.1:7471,127.0.0.1:7472
//
// Clients speak to the dispatcher exactly as they would to one daemon
// (same flow-request and control lines; sadp_route_client --port 7470
// just works).  Each flow request is forwarded to the live backend with
// the smallest advertised queue depth; a backend that dies mid-fleet is
// routed around as long as zero response bytes have been relayed (see
// src/server/dispatch.hpp for the commit rule).  "stats" against the
// dispatcher aggregates the fleet and lists each backend as a peer row.
//
// Client modes (against a RUNNING dispatcher or daemon, then exit):
//
//   sadp_route_dispatch --metrics --port 7470   # Prometheus exposition
//
// Telemetry: --metrics-port is unnecessary — metrics ride the control
// plane ({"type":"metrics"} on the service port).  --trace FILE records
// the dispatcher's relay spans and writes a sadp.flow_trace.v1 file on
// exit, mergeable with the daemons' traces via sadp_trace_merge.
//
// Prints "dispatching on 127.0.0.1:<port>" once ready.  SIGTERM/SIGINT
// exit after in-flight forwards complete.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "server/dispatch.hpp"
#include "server/route_client.hpp"
#include "util/args.hpp"
#include "util/failpoint.hpp"

namespace {

std::atomic<bool> g_stop{false};

extern "C" void stop_handler(int) { g_stop.store(true); }

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!token.empty()) out.push_back(token);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sadp::server::DispatcherOptions options;
  std::string backends_csv;
  bool quiet = false;
  bool metrics_mode = false;
  std::string host = "127.0.0.1";
  std::string trace_path;
  sadp::util::ArgParser parser(
      "load-balancing front for a fleet of sadp_routed backends");
  parser.add_int("--port", &options.port,
                 "TCP port on 127.0.0.1 (0 = ephemeral, printed on startup)",
                 "P");
  parser.add_string("--backends", &backends_csv,
                    "backend daemons (required)", "H:P,...");
  parser.add_int("--probe-interval-ms", &options.probe_interval_ms,
                 "stats-probe cadence", "MS");
  parser.add_int("--stale-after-ms", &options.stale_after_ms,
                 "probe age beyond which a backend is considered dead", "MS");
  parser.add_int("--probe-timeout-ms", &options.probe_timeout_ms,
                 "send/recv timeout on probe sockets (a wedged backend "
                 "counts as stale)",
                 "MS");
  parser.add_flag("--quiet", &quiet, "suppress per-forward log lines");
  parser.add_flag("--metrics", &metrics_mode,
                  "client mode: print a running dispatcher's Prometheus "
                  "exposition and exit");
  parser.add_string("--host", &host, "client modes: server host", "HOST");
  parser.add_string("--trace", &trace_path,
                    "record relay spans and write a sadp.flow_trace.v1 "
                    "file on exit", "FILE");
  std::string failpoints_spec;
  std::uint64_t failpoints_seed = 0;
  parser.add_string("--failpoints", &failpoints_spec,
                    "arm deterministic fault sites at startup "
                    "(e.g. dispatch.relay=err@0.2)",
                    "SPEC");
  parser.add_uint64("--failpoints-seed", &failpoints_seed,
                    "base seed for failpoint probability draws", "SEED");
  if (!parser.parse(argc, argv)) return 2;
  options.quiet = quiet;

  if (metrics_mode) {
    if (options.port <= 0) {
      std::fprintf(stderr, "--metrics needs --port of a running dispatcher\n");
      return 2;
    }
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

  options.backends = split_csv(backends_csv);
  if (options.backends.empty()) {
    std::fprintf(stderr, "--backends is required\n");
    return 2;
  }
  if (!failpoints_spec.empty()) {
    const sadp::util::Status armed =
        sadp::util::FailPointRegistry::instance().configure(
            failpoints_spec, failpoints_seed);
    if (!armed.is_ok()) {
      std::fprintf(stderr, "bad --failpoints: %s\n", armed.to_string().c_str());
      return 2;
    }
  }

  sadp::obs::TraceSession trace;
  if (!trace_path.empty()) {
    trace.install();
    trace.set_process_name("sadp_route_dispatch");
  }

  sadp::server::RouteDispatcher dispatcher(options);
  const sadp::util::Status started = dispatcher.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "cannot start: %s\n", started.to_string().c_str());
    return 1;
  }

  struct sigaction action{};
  action.sa_handler = stop_handler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  std::printf("dispatching on 127.0.0.1:%d\n", dispatcher.port());
  std::fflush(stdout);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "[sadp_route_dispatch] stopping\n");
  dispatcher.stop();  // waits for every handler thread, so buffers quiesce
  if (!trace_path.empty()) {
    trace.uninstall();
    const sadp::util::Status wrote = trace.write_json(trace_path);
    if (!wrote.is_ok()) {
      std::fprintf(stderr, "cannot write trace: %s\n",
                   wrote.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "[sadp_route_dispatch] wrote trace %s (%zu events)\n",
                 trace_path.c_str(), trace.event_count());
  }
  return 0;
}
