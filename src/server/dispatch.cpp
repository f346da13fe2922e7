#include "server/dispatch.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/route_client.hpp"
#include "server/socket.hpp"
#include "util/failpoint.hpp"

namespace sadp::server {

namespace {

// Fault sites (util/failpoint.hpp).  Zero-cost unless armed.
util::FailPoint g_fp_dispatch_connect("dispatch.connect");
util::FailPoint g_fp_dispatch_relay("dispatch.relay");

/// Process-global dispatcher metrics (obs/metrics.hpp); the per-backend
/// relay histograms are registered in start() because their label is the
/// backend address.
struct DispatchMetrics {
  obs::Counter& failovers;
  obs::Counter& stale_probes;
};

DispatchMetrics& dispatch_metrics() {
  static DispatchMetrics m{
      obs::metrics().counter(
          "sadp_dispatch_failovers_total",
          "Requests retried on another backend after a dead first pick."),
      obs::metrics().counter(
          "sadp_dispatch_stale_probes_total",
          "Backend probes that failed (connect, send, or bad stats reply)."),
  };
  return m;
}

}  // namespace

RouteDispatcher::RouteDispatcher(DispatcherOptions options)
    : options_(std::move(options)) {}

RouteDispatcher::~RouteDispatcher() { stop(); }

util::Status RouteDispatcher::start() {
  if (options_.backends.empty()) {
    return util::Status::invalid_input("dispatcher needs at least one backend");
  }
  // A zero interval spins the probe loop; a zero staleness bound declares
  // every backend dead.
  if (options_.probe_interval_ms < 1 || options_.stale_after_ms < 1) {
    return util::Status::invalid_input(
        "probe_interval_ms and stale_after_ms must be >= 1");
  }
  for (const std::string& addr : options_.backends) {
    const std::optional<HostPort> parsed = parse_host_port(addr);
    if (!parsed) {
      return util::Status::invalid_input("bad backend address: " + addr);
    }
    Backend backend;
    backend.addr = addr;
    backend.host = parsed->host;
    backend.port = parsed->port;
    backend.relay_latency = &obs::metrics().histogram(
        "sadp_dispatch_relay_seconds",
        "Committed request relay latency per backend (connect to last byte).",
        "backend=\"" + addr + "\"");
    backends_.push_back(std::move(backend));
  }
  uptime_.reset();

  if (const util::Status listening =
          listen_loopback(options_.port, &listen_fd_, &port_);
      !listening.is_ok()) {
    return listening;
  }
  probe_thread_ = std::thread([this] { probe_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  return util::Status::ok();
}

void RouteDispatcher::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  probe_cv_.notify_all();
  // shutdown() unblocks the accept loop even on Linuxes where close()
  // alone leaves accept() sleeping.  The fd is closed and cleared only
  // after the join: the accept loop reads listen_fd_ on every iteration.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (probe_thread_.joinable()) probe_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // A handler still reading its request wakes with EOF and drops it; a
  // relay already in flight only writes to its client, so it finishes.
  std::unique_lock<std::mutex> lock(handlers_mutex_);
  for (const int fd : client_fds_) ::shutdown(fd, SHUT_RD);
  handlers_cv_.wait(lock, [this] { return client_fds_.empty(); });
}

// ---------------------------------------------------------------------------
// Probing

void RouteDispatcher::probe_loop() {
  for (;;) {
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      std::string host;
      int port = 0;
      {
        const std::lock_guard<std::mutex> lock(backends_mutex_);
        host = backends_[i].host;
        port = backends_[i].port;
      }
      api::StatsReply stats;
      if (!query_stats(host, port, &stats, options_.probe_timeout_ms)
               .is_ok()) {
        dispatch_metrics().stale_probes.inc();
        continue;
      }
      const std::lock_guard<std::mutex> lock(backends_mutex_);
      backends_[i].last_good_probe = uptime_.seconds();
      backends_[i].queue_depth = static_cast<int>(stats.queue_depth);
      backends_[i].draining = stats.draining;
    }
    std::unique_lock<std::mutex> lock(probe_cv_mutex_);
    probe_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.probe_interval_ms),
                       [this] {
                         return stopping_.load(std::memory_order_acquire);
                       });
    if (stopping_.load(std::memory_order_acquire)) return;
  }
}

bool RouteDispatcher::backend_alive(const Backend& backend) const {
  if (backend.last_good_probe < 0.0) return false;
  const double age = uptime_.seconds() - backend.last_good_probe;
  return age * 1000.0 <= static_cast<double>(options_.stale_after_ms);
}

std::vector<std::size_t> RouteDispatcher::pick_order() const {
  const std::lock_guard<std::mutex> lock(backends_mutex_);
  std::vector<std::size_t> alive;
  std::vector<std::size_t> unknown;
  std::vector<std::size_t> draining;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!backend_alive(backends_[i])) {
      unknown.push_back(i);
    } else if (backends_[i].draining) {
      // Still answering probes, but rejecting flow requests: last resort
      // only (a forward there comes back as a structured draining error).
      draining.push_back(i);
    } else {
      alive.push_back(i);
    }
  }
  std::stable_sort(alive.begin(), alive.end(),
                   [this](std::size_t a, std::size_t b) {
                     if (backends_[a].queue_depth != backends_[b].queue_depth) {
                       return backends_[a].queue_depth <
                              backends_[b].queue_depth;
                     }
                     return backends_[a].forwarded < backends_[b].forwarded;
                   });
  alive.insert(alive.end(), unknown.begin(), unknown.end());
  alive.insert(alive.end(), draining.begin(), draining.end());
  return alive;
}

api::StatsReply RouteDispatcher::fleet_stats() const {
  api::StatsReply reply;
  reply.uptime_seconds = uptime_.seconds();
  const std::lock_guard<std::mutex> lock(backends_mutex_);
  // Fleet relay latency: merge the per-backend histograms (log2 bins merge
  // exactly) and report the combined quantiles.
  util::Histogram relay;
  for (const Backend& backend : backends_) {
    if (backend.relay_latency != nullptr) {
      relay.merge(backend.relay_latency->snapshot().hist);
    }
  }
  reply.latency_p50_ms = static_cast<double>(relay.percentile(0.5)) / 1e3;
  reply.latency_p99_ms = static_cast<double>(relay.percentile(0.99)) / 1e3;
  for (const Backend& backend : backends_) {
    api::PeerStatus peer;
    peer.addr = backend.addr;
    peer.queue_depth = backend.queue_depth;
    peer.active = backend.queue_depth;
    peer.alive = backend_alive(backend);
    peer.age_seconds = backend.last_good_probe < 0.0
                           ? -1.0
                           : uptime_.seconds() - backend.last_good_probe;
    if (peer.alive) {
      reply.queue_depth += static_cast<std::size_t>(backend.queue_depth);
      reply.active += static_cast<std::size_t>(backend.queue_depth);
    }
    reply.peers.push_back(std::move(peer));
  }
  return reply;
}

// ---------------------------------------------------------------------------
// Client handling

void RouteDispatcher::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(handlers_mutex_);
      client_fds_.insert(fd);
    }
    std::thread([this, fd] {
      handle_client(fd);
      // Erase, close and notify under the mutex: stop() can then never shut
      // down a reused fd or miss the last handler, and nothing of *this is
      // touched afterwards.
      const std::lock_guard<std::mutex> lock(handlers_mutex_);
      client_fds_.erase(fd);
      ::close(fd);
      handlers_cv_.notify_all();
    }).detach();
  }
}

void RouteDispatcher::handle_client(int fd) {
  std::string line;
  if (!read_line(fd, options_.max_request_bytes, &line)) {
    if (line.size() <= options_.max_request_bytes) return;  // EOF or error
    // The daemon's answer to an over-long line.  Half-close, then drain
    // the rest of the request so the close does not reset the connection
    // before the client read the line (stop() ends the drain early).
    const util::Status too_long = util::Status::invalid_input(
        "request exceeds " + std::to_string(options_.max_request_bytes) +
        " bytes");
    (void)send_all(fd, api::response_error_line(too_long) + "\n");
    ::shutdown(fd, SHUT_WR);
    char sink[4096];
    while (::recv(fd, sink, sizeof sink, 0) > 0) {
    }
    return;
  }

  if (api::looks_like_control_line(line)) {
    const std::string reply = api::answer_control(
        line, {.uptime_seconds = uptime_.seconds(),
               .stats = [this] { return fleet_stats(); },
               .drain = [this] { drain_fleet(); }});
    (void)send_all(fd, reply + "\n");
    return;
  }

  // The dispatcher is the trace root for the fleet: mint a trace_id (plus
  // per-job span_ids and the send timestamp) on requests that carry none,
  // and forward the re-serialized line.  A request that already has a
  // trace_id keeps it (the client owns the trace), and an unparseable line
  // is forwarded verbatim — the backend produces the real error, exactly
  // as before trace propagation existed.
  std::string trace_id;
  if (api::looks_like_delta_line(line)) {
    // ECO requests relay exactly like flow requests: same backend order,
    // failover and trace framing; only the trace-minting step differs.
    if (auto delta = api::parse_delta_request(line)) {
      api::ensure_delta_trace_context(&*delta);
      trace_id = delta->trace_id;
      line = api::serialize_delta_request(*delta);
    }
  } else if (auto request = api::parse_request(line)) {
    api::ensure_trace_context(&*request);
    trace_id = request->trace_id;
    line = api::serialize_request(*request);
  }

  const std::vector<std::size_t> order = pick_order();
  bool committed = false;
  std::size_t tried = 0;
  for (const std::size_t index : order) {
    ++tried;
    if (forward_to(index, line, fd, trace_id)) {
      committed = true;
      break;
    }
  }
  if (committed && tried > 1) dispatch_metrics().failovers.inc();
  if (!committed) {
    const util::Status none =
        util::Status::resource_exhausted("no live backend answered");
    (void)send_all(fd, api::response_error_line(none) + "\n");
  }
}

void RouteDispatcher::drain_fleet() {
  // Copy the targets first: no blocking connect runs under the mutex.
  std::vector<HostPort> targets;
  {
    const std::lock_guard<std::mutex> lock(backends_mutex_);
    for (const Backend& backend : backends_) {
      targets.push_back({backend.host, backend.port});
    }
  }
  for (const HostPort& target : targets) {
    (void)drain_remote(target.host, target.port, options_.probe_timeout_ms);
  }
}

bool RouteDispatcher::forward_to(std::size_t backend_index,
                                 const std::string& line, int client_fd,
                                 const std::string& trace_id) {
  std::string host;
  int port = 0;
  std::string addr;
  obs::LatencyHistogram* relay_latency = nullptr;
  {
    const std::lock_guard<std::mutex> lock(backends_mutex_);
    host = backends_[backend_index].host;
    port = backends_[backend_index].port;
    addr = backends_[backend_index].addr;
    relay_latency = backends_[backend_index].relay_latency;
  }
  const std::int64_t relay_start_us = util::process_uptime_us();
  const bool inject_connect_failure =
      g_fp_dispatch_connect.evaluate().kind == util::FailKind::kError;
  std::string error;
  const int backend_fd =
      inject_connect_failure ? -1
                             : connect_to(host, port, /*timeout_ms=*/0, &error);
  if (backend_fd < 0) {
    const std::lock_guard<std::mutex> lock(backends_mutex_);
    backends_[backend_index].last_good_probe = -1.0;  // mark dead immediately
    return false;
  }
  if (!send_all(backend_fd, line + "\n")) {
    ::close(backend_fd);
    const std::lock_guard<std::mutex> lock(backends_mutex_);
    backends_[backend_index].last_good_probe = -1.0;
    return false;
  }

  // Relay response bytes verbatim.  Until the first byte is relayed the
  // request can still fail over; afterwards we are committed.
  char chunk[16384];
  std::size_t relayed = 0;
  for (;;) {
    if (g_fp_dispatch_relay.evaluate().kind == util::FailKind::kError) {
      // Injected relay abort: before the first byte this is a clean
      // failover; after it, the client sees a truncated stream — exactly
      // the documented SIGKILL-mid-stream behavior.
      break;
    }
    const ssize_t n = ::recv(backend_fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    if (!send_all(client_fd,
                  std::string_view(chunk, static_cast<std::size_t>(n)))) {
      // Client vanished; drop the backend stream too.
      ::close(backend_fd);
      return true;  // committed from the dispatcher's point of view
    }
    relayed += static_cast<std::size_t>(n);
  }
  ::close(backend_fd);
  if (relayed == 0) {
    const std::lock_guard<std::mutex> lock(backends_mutex_);
    backends_[backend_index].last_good_probe = -1.0;
    return false;
  }
  {
    const std::lock_guard<std::mutex> lock(backends_mutex_);
    backends_[backend_index].forwarded += 1;
  }
  const std::int64_t relay_end_us = util::process_uptime_us();
  if (relay_latency != nullptr) {
    relay_latency->observe_us(
        static_cast<std::uint64_t>(relay_end_us - relay_start_us));
  }
  if (obs::tracing_enabled()) {
    if (trace_id.empty()) {
      obs::complete("dispatch.relay", relay_start_us,
                    relay_end_us - relay_start_us, {{"backend", addr}});
    } else {
      obs::complete("dispatch.relay", relay_start_us,
                    relay_end_us - relay_start_us,
                    {{"backend", addr}, {"trace_id", trace_id}});
    }
  }
  if (!options_.quiet) {
    std::fprintf(stderr, "[sadp_routed] %s served %zu byte(s)\n",
                 host.c_str(), relayed);
  }
  return true;
}

}  // namespace sadp::server
