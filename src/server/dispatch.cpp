#include "server/dispatch.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
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

bool split_host_port(const std::string& addr, std::string* host, int* port) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size()) return false;
  *host = addr.substr(0, colon);
  try {
    *port = std::stoi(addr.substr(colon + 1));
  } catch (...) {
    return false;
  }
  return *port > 0 && *port < 65536;
}

/// Connect to a backend.  timeout_ms > 0 arms SO_RCVTIMEO/SO_SNDTIMEO
/// before connecting (on Linux SO_SNDTIMEO also bounds connect()), so a
/// wedged peer turns into a timed-out syscall instead of an infinite block.
int connect_backend(const std::string& host, int port, int timeout_ms = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  return send_all(fd, framed.data(), framed.size());
}

/// Blocking read of one '\n'-terminated line (cap enforced by the caller's
/// loop); returns false on EOF/error before the newline.
bool read_line(int fd, std::size_t max_bytes, std::string* line) {
  line->clear();
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    for (ssize_t i = 0; i < n; ++i) {
      if (chunk[i] == '\n') return true;
      line->push_back(chunk[i]);
    }
    if (line->size() > max_bytes) return false;
  }
}

}  // namespace

RouteDispatcher::RouteDispatcher(DispatcherOptions options)
    : options_(std::move(options)) {}

RouteDispatcher::~RouteDispatcher() { stop(); }

util::Status RouteDispatcher::start() {
  if (options_.backends.empty()) {
    return util::Status::invalid_input("dispatcher needs at least one backend");
  }
  for (const std::string& addr : options_.backends) {
    Backend backend;
    backend.addr = addr;
    if (!split_host_port(addr, &backend.host, &backend.port)) {
      return util::Status::invalid_input("bad backend address: " + addr);
    }
    backend.relay_latency = &obs::metrics().histogram(
        "sadp_dispatch_relay_seconds",
        "Committed request relay latency per backend (connect to last byte).",
        "backend=\"" + addr + "\"");
    backends_.push_back(std::move(backend));
  }
  uptime_.reset();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Status::internal(std::string("socket: ") +
                                  std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    return util::Status::internal(std::string("bind/listen: ") +
                                  std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

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
  std::unique_lock<std::mutex> lock(handlers_mutex_);
  handlers_cv_.wait(lock, [this] { return handler_count_ == 0; });
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
      const int fd = connect_backend(host, port, options_.probe_timeout_ms);
      if (fd < 0) {
        dispatch_metrics().stale_probes.inc();
        continue;
      }
      api::ControlRequest probe;
      probe.type = api::ControlRequest::Type::kStats;
      std::string reply;
      bool good = send_line(fd, api::serialize_control_request(probe)) &&
                  read_line(fd, 1u << 20, &reply);
      ::close(fd);
      if (!good) {
        dispatch_metrics().stale_probes.inc();
        continue;
      }
      const auto stats = api::parse_stats_reply(reply);
      if (!stats) {
        dispatch_metrics().stale_probes.inc();
        continue;
      }
      const std::lock_guard<std::mutex> lock(backends_mutex_);
      backends_[i].last_good_probe = uptime_.seconds();
      backends_[i].queue_depth = static_cast<int>(stats->queue_depth);
      backends_[i].draining = stats->draining;
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

std::vector<BackendSnapshot> RouteDispatcher::backends() const {
  const std::lock_guard<std::mutex> lock(backends_mutex_);
  std::vector<BackendSnapshot> out;
  for (const Backend& backend : backends_) {
    BackendSnapshot snap;
    snap.addr = backend.addr;
    snap.alive = backend_alive(backend);
    snap.queue_depth = backend.queue_depth;
    snap.probe_age_seconds = backend.last_good_probe < 0.0
                                 ? -1.0
                                 : uptime_.seconds() - backend.last_good_probe;
    snap.forwarded = backend.forwarded;
    out.push_back(std::move(snap));
  }
  return out;
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
      ++handler_count_;
    }
    std::thread([this, fd] {
      handle_client(fd);
      ::close(fd);
      // Decrement + notify under the mutex so stop()'s wait cannot miss
      // the last handler; nothing of *this is touched afterwards.
      const std::lock_guard<std::mutex> lock(handlers_mutex_);
      --handler_count_;
      handlers_cv_.notify_all();
    }).detach();
  }
}

void RouteDispatcher::handle_client(int fd) {
  std::string line;
  if (!read_line(fd, options_.max_request_bytes, &line)) return;

  if (api::looks_like_control_line(line)) {
    handle_control(fd, line);
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
  if (committed && tried > 1) {
    failovers_.fetch_add(1, std::memory_order_relaxed);
    dispatch_metrics().failovers.inc();
  }
  if (!committed) {
    (void)send_line(fd, api::response_error_line(util::Status::resource_exhausted(
                            "no live backend answered")));
  }
}

void RouteDispatcher::handle_control(int fd, const std::string& line) {
  const auto control = api::parse_control_request(line);
  if (!control) {
    (void)send_line(fd, api::response_error_line(util::Status::invalid_input(
                            "bad control line")));
    return;
  }
  switch (control->type) {
    case api::ControlRequest::Type::kPing:
      (void)send_line(fd, api::pong_line(uptime_.seconds()));
      return;
    case api::ControlRequest::Type::kStats:
      (void)send_line(fd, api::stats_reply_line(fleet_stats()));
      return;
    case api::ControlRequest::Type::kMetrics:
      (void)send_line(fd, api::metrics_reply_line(obs::metrics().render()));
      return;
    case api::ControlRequest::Type::kDrain: {
      api::ControlRequest drain;
      drain.type = api::ControlRequest::Type::kDrain;
      const std::string drain_line = api::serialize_control_request(drain);
      const std::lock_guard<std::mutex> lock(backends_mutex_);
      for (const Backend& backend : backends_) {
        const int bfd = connect_backend(backend.host, backend.port,
                                        options_.probe_timeout_ms);
        if (bfd < 0) continue;
        (void)send_line(bfd, drain_line);
        std::string ack;
        (void)read_line(bfd, 1u << 16, &ack);
        ::close(bfd);
      }
      (void)send_line(fd, api::draining_line());
      return;
    }
    case api::ControlRequest::Type::kFailpoint: {
      // Applied to the dispatcher's own registry; chaos drivers arm each
      // backend directly through its own control port.
      util::FailPointRegistry& registry = util::FailPointRegistry::instance();
      if (control->spec.empty()) {
        registry.clear();
      } else if (const util::Status applied =
                     registry.configure(control->spec, control->seed);
                 !applied.is_ok()) {
        (void)send_line(fd, api::response_error_line(applied));
        return;
      }
      (void)send_line(fd, api::failpoints_line(registry.armed_count()));
      return;
    }
    case api::ControlRequest::Type::kSchemas: {
      // The dispatcher relays both flow verbs, so it advertises the full
      // set regardless of what any one backend speaks.
      api::SchemasReply schemas;
      schemas.request = api::kRequestSchema;
      schemas.response = api::kResponseSchema;
      schemas.control = api::kControlSchema;
      schemas.delta = api::kDeltaRequestSchema;
      (void)send_line(fd, api::schemas_reply_line(schemas));
      return;
    }
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
  const int backend_fd =
      inject_connect_failure ? -1 : connect_backend(host, port);
  if (backend_fd < 0) {
    const std::lock_guard<std::mutex> lock(backends_mutex_);
    backends_[backend_index].last_good_probe = -1.0;  // mark dead immediately
    return false;
  }
  if (!send_line(backend_fd, line)) {
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
    if (!send_all(client_fd, chunk, static_cast<std::size_t>(n))) {
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
    std::fprintf(stderr, "[sadp_route_dispatch] %s served %zu byte(s)\n",
                 host.c_str(), relayed);
  }
  return true;
}

}  // namespace sadp::server
