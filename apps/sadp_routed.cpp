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
// Clients are `sadp_route --connect 127.0.0.1:7471`: batches and ECO deltas
// as flags, or one control verb (ping, stats, metrics, drain, schemas,
// failpoints) with `--control VERB`.
//
// Fault injection (chaos testing): --failpoints arms deterministic fault
// sites at startup; `sadp_route --connect ... --control failpoints
// --failpoints SPEC` re-arms a running daemon over the control plane.  See
// src/util/failpoint.hpp for the spec grammar and DESIGN.md §13 for the
// failure model.
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
#include "server/route_server.hpp"
#include "util/args.hpp"
#include "util/failpoint.hpp"

int main(int argc, char** argv) {
  sadp::server::ServerOptions options;
  bool quiet = false;
  std::string trace_path;
  std::string failpoints_spec;
  std::uint64_t failpoints_seed = 0;
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
  parser.add_string("--trace", &trace_path,
                    "record this daemon's obs spans and write a "
                    "sadp.flow_trace.v1 file on exit", "FILE");
  parser.add_string("--failpoints", &failpoints_spec,
                    "arm deterministic fault sites at startup "
                    "(e.g. journal.append=err@0.3;net.write=short)",
                    "SPEC");
  parser.add_uint64("--failpoints-seed", &failpoints_seed,
                    "base seed for failpoint probability draws", "SEED");
  if (!parser.parse(argc, argv)) return 2;
  options.quiet = quiet;

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
