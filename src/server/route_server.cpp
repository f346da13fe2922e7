#include "server/route_server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/socket.hpp"
#include "util/failpoint.hpp"

namespace sadp::server {

namespace {

// Fault sites (util/failpoint.hpp).  Zero-cost unless armed.
util::FailPoint g_fp_net_accept("net.accept");
util::FailPoint g_fp_net_read("net.read");
util::FailPoint g_fp_net_write("net.write");
util::FailPoint g_fp_executor_task("executor.task");

/// Process-global server metric families (obs/metrics.hpp), registered on
/// first use.  A second RouteServer in the same process (tests) shares
/// them — matching Prometheus semantics, where the scrape unit is the
/// process.  Request latency histograms are recorded once per request,
/// never inside the engine's loops.
struct ServerMetrics {
  obs::Counter& requests;
  obs::Counter& rejected;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Gauge& queue_depth;
  obs::Gauge& connections;
  obs::LatencyHistogram& admission_wait;
  obs::LatencyHistogram& run;
  obs::LatencyHistogram& flush;
};

ServerMetrics& server_metrics() {
  static ServerMetrics m{
      obs::metrics().counter("sadp_server_requests_total",
                             "Flow requests admitted to a runner."),
      obs::metrics().counter("sadp_server_rejected_total",
                             "Flow requests rejected for overload."),
      obs::metrics().counter("sadp_server_cache_requests_total",
                             "Result-cache lookups by outcome.",
                             "result=\"hit\""),
      obs::metrics().counter("sadp_server_cache_requests_total",
                             "Result-cache lookups by outcome.",
                             "result=\"miss\""),
      obs::metrics().gauge("sadp_server_queue_depth",
                           "Admitted flow requests in flight."),
      obs::metrics().gauge("sadp_server_connections",
                           "Open client connections."),
      obs::metrics().histogram("sadp_server_request_admission_wait_seconds",
                               "Request-line completion to runner start."),
      obs::metrics().histogram("sadp_server_request_run_seconds",
                               "Runner start to batch summary."),
      obs::metrics().histogram("sadp_server_request_flush_seconds",
                               "Batch summary enqueued to connection close "
                               "(row-stream drain)."),
  };
  return m;
}

util::Status errno_status(const std::string& what) {
  return util::Status::internal(what + ": " + std::strerror(errno));
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One server span on the process telemetry clock, tagged with the
/// request's trace id when it carries one.
void server_span(const char* name, std::int64_t start_us, std::int64_t end_us,
                 const std::string& trace_id) {
  if (!obs::tracing_enabled()) return;
  if (trace_id.empty()) {
    obs::complete(name, start_us, end_us - start_us);
  } else {
    obs::complete(name, start_us, end_us - start_us,
                  {{"trace_id", trace_id}});
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerPool

WorkerPool::WorkerPool(int workers) {
  const int n = engine::FlowEngine::resolve_workers(workers);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with an empty queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Chaos seam: a delay here models a task stuck behind a descheduled
    // worker (evaluate() already slept); results must be unaffected.
    (void)g_fp_executor_task.evaluate();
    task();
  }
}

void WorkerPool::run_parallel(int tasks,
                              const std::function<void(int)>& work) {
  if (tasks <= 0) return;
  // The caller blocks below until every task ran, so capturing `work` by
  // pointer is safe.
  struct Sync {
    std::mutex mutex;
    std::condition_variable done;
    int remaining;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining = tasks;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (int i = 0; i < tasks; ++i) {
      queue_.push_back([sync, &work, i] {
        work(i);
        const std::lock_guard<std::mutex> task_lock(sync->mutex);
        if (--sync->remaining == 0) sync->done.notify_all();
      });
    }
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(sync->mutex);
  sync->done.wait(lock, [&sync] { return sync->remaining == 0; });
}

void WorkerPool::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

// ---------------------------------------------------------------------------
// RouteServer

RouteServer::RouteServer(ServerOptions options)
    : options_(std::move(options)) {}

RouteServer::~RouteServer() { stop(); }

util::Status RouteServer::start() {
  pool_ = std::make_unique<WorkerPool>(options_.pool_workers);
  cache_ = std::make_unique<ResultCache>(options_.cache_entries);
  uptime_.reset();

  if (const util::Status listening =
          listen_loopback(options_.port, &listen_fd_, &port_);
      !listening.is_ok()) {
    return listening;
  }
  if (!set_nonblocking(listen_fd_)) return errno_status("fcntl listener");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return errno_status("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return errno_status("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return errno_status("epoll_ctl listener");
  }
  listener_registered_ = true;
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return errno_status("epoll_ctl eventfd");
  }

  loop_thread_ = std::thread([this] { event_loop(); });
  return util::Status::ok();
}

void RouteServer::begin_drain() noexcept {
  draining_.store(true, std::memory_order_release);
  drain_token_.request_cancel();
  // No wake here: the event loop polls the flag within its timeout.
}

void RouteServer::wake() noexcept {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof one);
}

// ---------------------------------------------------------------------------
// Event loop

void RouteServer::event_loop() {
  epoll_event events[64];
  for (;;) {
    // Drain: flow admission stops (handle_line answers a structured
    // "draining" rejection) but the listener stays open, so the control
    // plane — stats, metrics scrapes, ping — keeps working against a
    // draining daemon.  The listener closes only once stop() is underway.
    if (stopping_.load(std::memory_order_acquire) && listener_registered_) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      listener_registered_ = false;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Force idle (request-less) connections shut; running ones finish.
      std::vector<std::shared_ptr<Connection>> idle;
      for (const auto& [fd, conn] : connections_) {
        if (!conn->runner_started ||
            conn->runner_done.load(std::memory_order_acquire)) {
          idle.push_back(conn);
        }
      }
      for (const auto& conn : idle) {
        // Give finished streams one last nonblocking flush before closing.
        flush_output(conn);
        close_connection(conn);
      }
      if (connections_.empty() && !listener_registered_) return;
    }

    const int n = ::epoll_wait(epoll_fd_, events, 64, /*timeout_ms=*/100);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t counter = 0;
        (void)!::read(wake_fd_, &counter, sizeof counter);
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      const std::shared_ptr<Connection> conn = it->second;
      if (mask & (EPOLLHUP | EPOLLERR)) {
        conn->client_gone.store(true, std::memory_order_release);
        conn->cancel.request_cancel();
        // Deregister entirely: EPOLLHUP is reported regardless of the
        // interest mask, so a mere MOD would spin the loop until the
        // runner (if any) finishes and the sweep reaps the connection.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
        conn->events = 0;
        continue;
      }
      if (mask & EPOLLIN) read_ready(conn);
      if (mask & EPOLLOUT) flush_output(conn);
      if ((mask & EPOLLRDHUP) && conn->state != ConnState::kReading) {
        // Peer shut its write side after the request; it may still be
        // reading our stream, so only stop watching for input.
        update_interest(*conn, conn->events & ~(EPOLLIN | EPOLLRDHUP));
      }
    }

    // Runners signal new output via the eventfd; push it out and close
    // whatever both sides are done with.
    sweep_connections();
  }
}

void RouteServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN or a transient error: back to epoll
    if (g_fp_net_accept.evaluate().kind == util::FailKind::kError) {
      // Injected accept failure: the client sees a reset, exactly as if
      // the kernel had run out of descriptors.
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->events = EPOLLIN | EPOLLRDHUP;
    epoll_event ev{};
    ev.events = conn->events;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(conn));
    server_metrics().connections.add(1);
  }
}

void RouteServer::read_ready(const std::shared_ptr<Connection>& conn) {
  if (g_fp_net_read.evaluate().kind == util::FailKind::kError) {
    // Injected read failure: same path as a peer that vanished mid-request.
    conn->client_gone.store(true, std::memory_order_release);
    conn->cancel.request_cancel();
    close_connection(conn);
    return;
  }
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n < 0) return;  // EAGAIN: request still arriving
    if (n == 0) {
      // EOF.  Before a request: the client vanished — drop the connection.
      // After an over-long request's reply and half-close: the drain is
      // done.  After a request: the peer is done sending; treat a full
      // close as gone.
      if (conn->state == ConnState::kReading || conn->write_shut) {
        close_connection(conn);
      } else {
        conn->drain_input = false;  // nothing left to drain; close once out
        update_interest(*conn, conn->events & ~(EPOLLIN | EPOLLRDHUP));
      }
      return;
    }
    if (conn->state != ConnState::kReading) continue;  // discard extra bytes
    for (ssize_t i = 0; i < n; ++i) {
      if (chunk[i] == '\n') {
        std::string line = std::move(conn->in);
        conn->in.clear();
        handle_line(conn, std::move(line));
        break;
      }
      conn->in.push_back(chunk[i]);
    }
    if (conn->state == ConnState::kReading &&
        conn->in.size() > options_.max_request_bytes) {
      enqueue_line(conn,
                   api::response_error_line(util::Status::invalid_input(
                       "request exceeds " +
                       std::to_string(options_.max_request_bytes) + " bytes")),
                   /*finish_after=*/true);
      conn->state = ConnState::kFlushing;
      conn->drain_input = true;
      return;
    }
  }
}

void RouteServer::handle_line(const std::shared_ptr<Connection>& conn,
                              std::string line) {
  conn->line_complete_us = util::process_uptime_us();
  conn->state = ConnState::kFlushing;  // unless a runner is admitted below
  if (api::looks_like_control_line(line)) {
    // Answered right here on the event loop, outside admission, so probes
    // and scrapes work while the server is saturated or draining.
    enqueue_line(conn,
                 api::answer_control(
                     line, {.uptime_seconds = uptime_.seconds(),
                            .stats = [this] { return stats(); },
                            .drain = [this] { begin_drain(); }}),
                 /*finish_after=*/true);
    return;
  }
  const auto reject = [&](const util::Status& status) {
    enqueue_line(conn, api::response_error_line(status),
                 /*finish_after=*/true);
  };

  // Both flow verbs parse into one Runner; admission and the spawn below
  // are shared.
  std::string parse_error;
  Runner runner;
  if (api::looks_like_delta_line(line)) {
    if (auto delta = api::parse_delta_request(line, &parse_error)) {
      runner.name = "delta runner";
      runner.trace_id = delta->trace_id;
      runner.body = [this, conn, request = std::move(*delta)](
                        api::ResponseSummary* summary) mutable {
        return run_delta(conn, std::move(request), summary);
      };
    }
  } else if (auto request = api::parse_request(line, &parse_error)) {
    runner.name = "request runner";
    runner.trace_id = request->trace_id;
    runner.body = [this, conn, request = std::move(*request)](
                      api::ResponseSummary* summary) {
      return run_flow(conn, request, summary);
    };
  }
  if (!runner.body) {
    reject(util::Status::invalid_input(parse_error));
    return;
  }
  if (draining()) {
    reject(util::Status::resource_exhausted(
        "server is draining; retry elsewhere"));
    return;
  }
  if (active_.load(std::memory_order_acquire) >= options_.max_requests) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    server_metrics().rejected.inc();
    reject(util::Status::resource_exhausted(
        "server at capacity (" + std::to_string(options_.max_requests) +
        " requests in flight); retry later"));
    return;
  }
  active_.fetch_add(1, std::memory_order_acq_rel);
  server_metrics().requests.inc();
  server_metrics().queue_depth.add(1);
  conn->state = ConnState::kRunning;
  conn->runner_started = true;
  conn->runner = std::thread([this, conn, runner = std::move(runner)] {
    run_frame(conn, runner);
    conn->runner_done.store(true, std::memory_order_release);
    wake();
  });
}

// ---------------------------------------------------------------------------
// Runner frame (one thread per admitted request, bounded by max_requests)

void RouteServer::run_frame(const std::shared_ptr<Connection>& conn,
                            const Runner& runner) {
  struct SlotGuard {
    RouteServer* server;
    ~SlotGuard() {
      server->active_.fetch_sub(1, std::memory_order_acq_rel);
      server_metrics().queue_depth.add(-1);
    }
  } slot{this};

  ServerMetrics& metrics = server_metrics();
  const std::int64_t admitted_us = util::process_uptime_us();
  metrics.admission_wait.observe_us(
      static_cast<std::uint64_t>(admitted_us - conn->line_complete_us));
  // Cross-thread span: begun by the event loop's line-complete stamp,
  // recorded here on the runner.
  server_span("server.admission", conn->line_complete_us, admitted_us,
              runner.trace_id);

  if (options_.on_request_admitted) options_.on_request_admitted();

  try {
    util::Timer wall;
    api::ResponseSummary summary;
    if (const util::Status done = runner.body(&summary); !done.is_ok()) {
      enqueue_line(conn, api::response_error_line(done), true);
      return;
    }
    summary.wall_seconds = wall.seconds();
    if (!runner.trace_id.empty()) {
      summary.trace_id = runner.trace_id;
      // The hop's receive instant: realtime at the moment the event loop
      // completed the request line, reconstructed from the shared process
      // clock anchor so it agrees with the admission span's start.
      summary.recv_unix_us =
          util::process_unix_anchor_us() + conn->line_complete_us;
      summary.sent_unix_us = util::unix_now_us();
    }
    const std::int64_t done_us = util::process_uptime_us();
    metrics.run.observe_us(static_cast<std::uint64_t>(done_us - admitted_us));
    server_span("server.run", admitted_us, done_us, runner.trace_id);
    conn->summary_enqueued_us = done_us;
    enqueue_line(conn, api::response_summary_line(summary), true);

    if (!options_.quiet) {
      std::fprintf(stderr,
                   "[sadp_routed] batch done: ok=%zu degraded=%zu failed=%zu "
                   "timeout=%zu cancelled=%zu resumed=%zu cache=%zu/%zu "
                   "(%.2fs)\n",
                   summary.ok, summary.degraded, summary.failed,
                   summary.timed_out, summary.cancelled, summary.resumed,
                   summary.cache_hits, summary.cache_misses,
                   summary.wall_seconds);
    }
  } catch (const std::exception& e) {
    enqueue_line(conn,
                 api::response_error_line(util::Status::internal(
                     std::string(runner.name) + ": " + e.what())),
                 true);
  }
}

util::Status RouteServer::run_flow(const std::shared_ptr<Connection>& conn,
                                   const api::FlowRequest& request,
                                   api::ResponseSummary* summary) {
  if (!options_.quiet) {
    std::fprintf(stderr, "[sadp_routed] request: %zu job(s), workers=%d\n",
                 request.jobs.size(), request.workers);
  }
  if (const util::Status valid = api::validate(request); !valid.is_ok()) {
    return valid;
  }
  ServerMetrics& metrics = server_metrics();
  const std::size_t total = request.jobs.size();
  std::size_t streamed = 0;

  // Journaled batches bypass the cache: the journal is the authority for
  // --resume, and cache-served rows are never journaled, so mixing the
  // two would leave resume holes.
  const bool use_cache = cache_->enabled() && request.journal_path.empty() &&
                         !request.resume;

  // A job is a hit or a miss only when its key was looked up: rows of
  // uncacheable jobs (netlist_path, deadline) carry no `cache` member and
  // no counter counts them.
  std::vector<std::pair<std::size_t, CachedRow>> hits;  // job index -> row
  std::map<std::string, std::string> miss_keys;  // label -> cache key
  api::FlowRequest misses = request;
  if (use_cache) {
    misses.jobs.clear();
    for (std::size_t i = 0; i < request.jobs.size(); ++i) {
      const api::JobRequest& job = request.jobs[i];
      const auto key = job_cache_key(job);
      if (key.has_value()) {
        if (auto row = cache_->lookup(*key)) {
          hits.emplace_back(i, std::move(*row));
          continue;
        }
        miss_keys[api::effective_label(job)] = *key;
      }
      misses.jobs.push_back(job);
    }
    metrics.cache_hits.inc(hits.size());
    metrics.cache_misses.inc(miss_keys.size());
  }

  // Echoing the request's trace context onto each row needs the span id
  // by label (on_job_done only sees the outcome).  Empty map when the
  // request is untraced, so every lookup misses and rows stay untraced.
  std::map<std::string, const std::string*> span_by_label;
  if (!request.trace_id.empty()) {
    for (const api::JobRequest& job : request.jobs) {
      span_by_label[api::effective_label(job)] = &job.span_id;
    }
  }
  const auto span_for = [&](const std::string& label) -> const std::string& {
    static const std::string kEmpty;
    const auto it = span_by_label.find(label);
    return it == span_by_label.end() ? kEmpty : *it->second;
  };

  if (!hits.empty()) {
    // Materialize the full request once before replaying anything, so a
    // request with an unknown benchmark still fails with a single error
    // line instead of a half-stream.
    std::vector<engine::FlowJob> scratch;
    if (const util::Status materialized = api::to_flow_jobs(request, &scratch);
        !materialized.is_ok()) {
      return materialized;
    }
  }

  summary->jobs = total;
  summary->cache_hits = hits.size();
  summary->cache_misses = miss_keys.size();
  for (auto& [index, row] : hits) {
    replay_hit(conn, std::move(row), request.jobs[index], ++streamed, total,
               request.trace_id, summary);
  }
  if (misses.jobs.empty()) {
    summary->workers = capped_workers(request.workers);
    return util::Status::ok();
  }

  api::DispatchOptions hooks;
  hooks.cancel = conn->cancel;
  hooks.drain = drain_token_;
  hooks.executor = pool_.get();
  hooks.max_workers = pool_->size();
  // on_job_done is serialized by the engine, so `streamed` needs no lock;
  // the runner itself is blocked inside dispatch() meanwhile.
  hooks.on_job_done = [&](const engine::JobOutcome& outcome, std::size_t,
                          std::size_t) {
    const auto key = miss_keys.find(outcome.label);
    const bool missed = key != miss_keys.end();
    if (missed) cache_->insert(key->second, outcome);
    if (conn->client_gone.load(std::memory_order_relaxed)) return;
    enqueue_line(conn,
                 api::response_row_line(outcome, ++streamed, total,
                                        missed ? "miss" : nullptr,
                                        request.trace_id,
                                        span_for(outcome.label)),
                 false);
  };

  const api::DispatchResult run = api::dispatch(misses, hooks);
  if (!run.status.is_ok()) return run.status;
  if (!run.batch.journal_error.is_ok() && !options_.quiet) {
    std::fprintf(stderr, "[sadp_routed] journal error: %s\n",
                 run.batch.journal_error.to_string().c_str());
  }
  // Journal-restored rows never pass through on_job_done; stream them after
  // the executed ones so the client still receives every row exactly once.
  for (const engine::JobOutcome& outcome : run.batch.outcomes) {
    summary->tally(outcome.status, outcome.from_journal);
    if (!outcome.from_journal ||
        conn->client_gone.load(std::memory_order_relaxed)) {
      continue;
    }
    enqueue_line(conn,
                 api::response_row_line(outcome, ++streamed, total, nullptr,
                                        request.trace_id,
                                        span_for(outcome.label)),
                 false);
  }
  summary->workers = run.workers;
  return util::Status::ok();
}

util::Status RouteServer::run_delta(const std::shared_ptr<Connection>& conn,
                                    api::FlowDeltaRequest request,
                                    api::ResponseSummary* summary) {
  if (!options_.quiet) {
    std::fprintf(stderr, "[sadp_routed] delta request: %zu change(s)\n",
                 request.changes.size());
  }
  if (const util::Status valid = api::validate_delta(request);
      !valid.is_ok()) {
    return valid;
  }
  ServerMetrics& metrics = server_metrics();

  // The cache key hashes the base text.  A path base is read here, once,
  // and routed as inline text, so a later write to the file cannot give
  // the row a key from other bytes; without a cache only dispatch_delta
  // reads the base.
  const bool use_cache = cache_->enabled();
  std::optional<std::string> key;
  if (use_cache) {
    if (request.base_solution.empty()) {
      if (const util::Status loaded = api::load_base_solution(
              request.base_solution_path, &request.base_solution);
          !loaded.is_ok()) {
        return loaded;
      }
      request.base_solution_path.clear();
    }
    key = delta_cache_key(request, request.base_solution);
  }

  summary->jobs = 1;
  summary->workers = 1;  // ECO re-routes run serially on the runner thread
  // An uncacheable base (netlist_path, deadline) has no key: its row is
  // neither a hit nor a miss.
  if (key.has_value()) {
    if (auto row = cache_->lookup(*key)) {
      metrics.cache_hits.inc();
      summary->cache_hits = 1;
      replay_hit(conn, std::move(*row), request.base, 1, 1, request.trace_id,
                 summary);
      return util::Status::ok();
    }
    metrics.cache_misses.inc();
    summary->cache_misses = 1;
  }

  api::DeltaDispatchOptions hooks;
  hooks.cancel = conn->cancel;
  const api::DeltaDispatchResult run = api::dispatch_delta(request, hooks);
  if (!run.status.is_ok()) return run.status;

  if (key.has_value()) cache_->insert(*key, run.outcome, run.summary);
  summary->tally(run.outcome.status);
  if (!conn->client_gone.load(std::memory_order_relaxed)) {
    enqueue_line(conn,
                 api::response_row_line(run.outcome, 1, 1,
                                        key.has_value() ? "miss" : nullptr,
                                        request.trace_id, request.base.span_id),
                 false);
    enqueue_line(conn, api::response_delta_line(run.summary, request.trace_id),
                 false);
  }
  if (!options_.quiet) {
    std::fprintf(stderr,
                 "[sadp_routed] delta done: ripped=%d untouched=%d "
                 "changes=%d (%.2fs)\n",
                 run.summary.nets_ripped, run.summary.nets_untouched,
                 run.summary.changes, run.wall_seconds);
  }
  return util::Status::ok();
}

void RouteServer::replay_hit(const std::shared_ptr<Connection>& conn,
                             CachedRow row, const api::JobRequest& job,
                             std::size_t done, std::size_t total,
                             const std::string& trace_id,
                             api::ResponseSummary* summary) {
  row.outcome.label = api::effective_label(job);
  row.outcome.arm = job.arm;
  summary->tally(row.outcome.status);
  enqueue_line(conn,
               api::response_row_line(row.outcome, done, total, "hit",
                                      trace_id, job.span_id),
               false);
  if (row.delta) {
    enqueue_line(conn, api::response_delta_line(*row.delta, trace_id), false);
  }
}

int RouteServer::capped_workers(int requested) const noexcept {
  int workers = requested;
  const int pool = pool_ ? pool_->size() : 0;
  if (pool > 0 && (workers == 0 || workers > pool)) workers = pool;
  return engine::FlowEngine::resolve_workers(workers);
}

// ---------------------------------------------------------------------------
// Output path

void RouteServer::enqueue_line(const std::shared_ptr<Connection>& conn,
                               const std::string& line, bool finish_after) {
  {
    const std::lock_guard<std::mutex> lock(conn->mutex);
    if (!conn->client_gone.load(std::memory_order_relaxed)) {
      conn->out += line;
      conn->out += '\n';
    }
    if (finish_after) conn->finish = true;
  }
  wake();
}

void RouteServer::flush_output(const std::shared_ptr<Connection>& conn) {
  bool want_write = false;
  bool inject_gone = false;
  std::size_t write_cap = SIZE_MAX;  // bytes per send; 1 under 'short'
  if (const util::FailDecision fail = g_fp_net_write.evaluate(); fail) {
    if (fail.kind == util::FailKind::kError) inject_gone = true;
    if (fail.kind == util::FailKind::kShort) write_cap = 1;
  }
  {
    const std::lock_guard<std::mutex> lock(conn->mutex);
    while (conn->out_pos < conn->out.size()) {
      if (inject_gone) {
        // Injected send failure: identical handling to a real EPIPE below.
        conn->client_gone.store(true, std::memory_order_release);
        conn->cancel.request_cancel();
        conn->out.clear();
        conn->out_pos = 0;
        conn->finish = true;
        break;
      }
      const ssize_t n =
          ::send(conn->fd, conn->out.data() + conn->out_pos,
                 std::min(conn->out.size() - conn->out_pos, write_cap),
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (write_cap != SIZE_MAX && n > 0) {
        // Short write injected: deliver this one byte, then yield to epoll
        // exactly as a full socket buffer would.
        conn->out_pos += static_cast<std::size_t>(n);
        want_write = conn->out_pos < conn->out.size();
        break;
      }
      if (n > 0) {
        conn->out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        want_write = true;
        break;
      }
      // Client gone: cancel its batch and drop the rest of the stream.
      conn->client_gone.store(true, std::memory_order_release);
      conn->cancel.request_cancel();
      conn->out.clear();
      conn->out_pos = 0;
      conn->finish = true;
      break;
    }
    if (conn->out_pos == conn->out.size()) {
      conn->out.clear();
      conn->out_pos = 0;
    }
  }
  const std::uint32_t base = conn->events & ~EPOLLOUT;
  update_interest(*conn, want_write ? (base | EPOLLOUT) : base);
}

void RouteServer::update_interest(Connection& conn, std::uint32_t events) {
  if (conn.events == events || conn.fd < 0) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.events = events;
  }
}

void RouteServer::close_connection(const std::shared_ptr<Connection>& conn) {
  if (conn->runner.joinable()) conn->runner.join();
  if (conn->fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::shutdown(conn->fd, SHUT_RDWR);
    ::close(conn->fd);
    connections_.erase(conn->fd);
    conn->fd = -1;
    server_metrics().connections.add(-1);
    // Flush latency: summary enqueued (runner, ordered by the join/acquire
    // above) -> stream fully drained and the socket closed.
    if (conn->summary_enqueued_us > 0) {
      server_metrics().flush.observe_us(static_cast<std::uint64_t>(
          util::process_uptime_us() - conn->summary_enqueued_us));
    }
  }
}

void RouteServer::sweep_connections() {
  std::vector<std::shared_ptr<Connection>> closable;
  for (const auto& [fd, conn] : connections_) {
    flush_output(conn);
    const bool runner_pending =
        conn->runner_started &&
        !conn->runner_done.load(std::memory_order_acquire);
    if (runner_pending) continue;
    bool drained;
    bool finish;
    {
      const std::lock_guard<std::mutex> lock(conn->mutex);
      drained = conn->out_pos == conn->out.size();
      finish = conn->finish;
    }
    const bool gone = conn->client_gone.load(std::memory_order_acquire);
    if (finish && drained && conn->drain_input && !gone) {
      // read_ready closes the connection at the client's EOF.
      if (!conn->write_shut) {
        ::shutdown(conn->fd, SHUT_WR);
        conn->write_shut = true;
      }
      continue;
    }
    if ((finish && drained) || gone) closable.push_back(conn);
  }
  for (const auto& conn : closable) close_connection(conn);
}

// ---------------------------------------------------------------------------
// Stats

api::StatsReply RouteServer::stats() const {
  api::StatsReply reply;
  reply.active = active();
  reply.queue_depth = reply.active;
  reply.rejected = rejected();
  reply.cache_hits = cache_hits();
  reply.cache_misses = cache_misses();
  reply.pool_size = pool_ ? pool_->size() : 0;
  reply.uptime_seconds = uptime_.seconds();
  reply.draining = draining();
  reply.latency_p50_ms = server_metrics().run.percentile_ms(0.5);
  reply.latency_p99_ms = server_metrics().run.percentile_ms(0.99);
  return reply;
}

// ---------------------------------------------------------------------------
// Shutdown

void RouteServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  begin_drain();
  stopping_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (pool_) pool_->shutdown();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

}  // namespace sadp::server
