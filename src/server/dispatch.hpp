// Multi-daemon front: `sadp_routed --backends` accepts the same wire
// dialects as a daemon and forwards each flow request to the least-loaded
// live backend.
//
// The dispatcher holds no routing state of its own.  A probe thread sends
// {"type":"stats"} to every configured backend on a fixed cadence and
// records the advertised queue depth; a backend whose last successful
// probe is older than `stale_after_ms` is considered dead and routed
// around.  Backend selection picks the live backend with the smallest
// advertised queue depth (ties broken by fewest requests forwarded so
// far); backends that have never answered a probe are still tried last,
// so the fleet works during the first probe cycle.
//
// Failover rule: a forwarded request may be retried on another backend
// only while ZERO response bytes have been relayed to the client.  Once
// the first byte is through, the dispatcher is committed — replaying a
// half-streamed batch elsewhere would duplicate rows.  A backend that is
// SIGKILLed therefore fails over transparently for every request it had
// not yet started answering, and requests it was mid-stream on surface as
// a truncated stream to that one client.
//
// Control lines get a daemon's api::answer_control, with "stats" as the
// fleet view (one peer row per backend, alive from probe age) and "drain"
// fanned out to every backend; error lines, including the one for an
// over-long request, read as a daemon's.  Probes and the drain are client
// calls (route_client.hpp) bounded by `probe_timeout_ms`, so backends may
// be host names.  The front is intentionally tiny — one thread per client
// connection is fine here because connections only live for one request;
// stop() shuts the read side of each, so an idle client is dropped while
// a relay in flight finishes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/control.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace sadp::server {

struct DispatcherOptions {
  /// TCP port on 127.0.0.1; 0 = ephemeral.
  int port = 0;
  /// Backend daemons ("HOST:PORT", HOST a name or a literal).  At least
  /// one is required.
  std::vector<std::string> backends;
  /// Stats-probe cadence; start() rejects a value below 1.
  int probe_interval_ms = 200;
  /// A backend whose last successful probe is older than this is dead;
  /// start() rejects a value below 1.
  int stale_after_ms = 1000;
  /// Send/receive timeout on probe and drain fan-out round trips.  A wedged
  /// (e.g. SIGSTOPped) backend then shows up as a timed-out probe — stale,
  /// routed around — instead of stalling the probe loop forever.  Never
  /// applied to the forward relay, where a slow batch is legitimate.
  int probe_timeout_ms = 500;
  std::size_t max_request_bytes = 16u << 20;
  bool quiet = false;
};

class RouteDispatcher {
 public:
  explicit RouteDispatcher(DispatcherOptions options);
  ~RouteDispatcher();

  RouteDispatcher(const RouteDispatcher&) = delete;
  RouteDispatcher& operator=(const RouteDispatcher&) = delete;

  [[nodiscard]] util::Status start();
  [[nodiscard]] int port() const noexcept { return port_; }
  void stop();

 private:
  struct Backend {
    std::string addr;
    std::string host;
    int port = 0;
    double last_good_probe = -1.0;  ///< uptime seconds; <0 = never answered
    int queue_depth = 0;
    /// The backend advertised draining=true on its last probe.  It still
    /// answers control verbs (scrapes, stats) but rejects new flow
    /// requests, so selection tries it only after every other option.
    bool draining = false;
    std::size_t forwarded = 0;
    /// Relay latency for this backend
    /// (sadp_dispatch_relay_seconds{backend="addr"}); registered in
    /// start(), stable for the life of the process.
    obs::LatencyHistogram* relay_latency = nullptr;
  };

  void probe_loop();
  void accept_loop();
  void handle_client(int fd);
  /// The "drain" verb: drain_remote to every backend.
  void drain_fleet();
  /// Forward one request line; returns true once >=1 byte reached the
  /// client (committed), false when the backend produced nothing.
  /// `trace_id` (empty = untraced) only annotates the relay span.
  bool forward_to(std::size_t backend_index, const std::string& line,
                  int client_fd, const std::string& trace_id);
  [[nodiscard]] bool backend_alive(const Backend& backend) const;
  /// Try order: live backends by ascending advertised depth, then
  /// never-probed/stale ones in configuration order, then draining ones.
  [[nodiscard]] std::vector<std::size_t> pick_order() const;
  [[nodiscard]] api::StatsReply fleet_stats() const;

  DispatcherOptions options_;
  util::Timer uptime_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::thread probe_thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex backends_mutex_;
  std::vector<Backend> backends_;

  std::mutex probe_cv_mutex_;
  std::condition_variable probe_cv_;

  /// Client sockets of the detached handler threads: stop() shuts their
  /// read side and blocks until the last handler erased its fd.
  std::mutex handlers_mutex_;
  std::condition_variable handlers_cv_;
  std::set<int> client_fds_;

  bool stopped_ = false;
};

}  // namespace sadp::server
