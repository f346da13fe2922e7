// Long-lived routing service: an epoll event-loop TCP daemon around
// api::dispatch, with a content-addressed result cache.
//
// sadp_routed listens on a loopback TCP port and speaks three newline-
// delimited JSON dialects on the same socket:
//   * one sadp.flow_request.v1 line in, a stream of sadp.flow_response.v1
//     lines out (one "row" per finished job in completion order, then one
//     "batch" summary — or a single "error" line);
//   * one sadp.flow_delta.v1 line in (incremental ECO re-route: base
//     solution + change list, see api/flow_delta.hpp), one "row" + one
//     "delta" summary + one "batch" line out, through the same admission
//     gate and result cache as flow requests;
//   * tiny sadp.control.v1 lines ({"type":"ping"|"stats"|"drain"|...})
//     answered on the event loop itself, so health probes work even when
//     every admission slot is busy.
//
// I/O model: ONE event-loop thread owns an epoll set over the listener,
// a wake eventfd, and every connection.  Accept, request reads, and
// response writes are nonblocking per-connection state machines — an idle
// connection is one epoll registration plus a buffer, never a thread, so
// thousands of idle clients cannot starve admission.  Only an ADMITTED
// flow request materializes a thread (its "runner", which blocks in
// api::dispatch on the shared WorkerPool); runners are bounded by
// `max_requests`.  Connection states:
//
//   kReading    --request line complete-->  kRunning   (runner spawned)
//        |                             \->  reply+kFlushing (control/error/
//        |                                   rejection — no runner)
//   kRunning    --summary enqueued----->    kFlushing
//   kFlushing   --output drained------->    closed
//
// Rows are produced on engine threads, appended to the connection's
// output buffer under its mutex, and written by the event loop (EPOLLOUT
// is armed only while output is pending).  A write error or EPOLLRDHUP
// fires the request's cancel token, so abandoned batches stop routing.
//
// Result cache: requests without a journal consult a server-wide
// content-addressed ResultCache keyed by each job as the job codec writes
// it (see result_cache.hpp).  A hit relabels the stored row and writes it
// with the same row writer a miss uses, "cache":"hit" in the framing, and
// never touches the pool; misses execute and are inserted.
// Journaled batches bypass the cache entirely: the journal is the
// authority for --resume, and cache-served rows are not journaled, so
// mixing them would leave resume holes.
//
// Runner frame: both flow verbs parse into a Runner and share one
// admit-and-spawn site and one frame (run_frame) around their body; the
// bodies (run_flow, run_delta) only stream rows and count the summary.
//
// Cancellation and shutdown match the PR 5 daemon: client disconnect
// cancels that batch, per-job/batch deadlines ride inside the request,
// and SIGTERM / begin_drain() lets running jobs finish (journaled batches
// complete under --resume) while unstarted jobs come back kCancelled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/control.hpp"
#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "engine/flow_engine.hpp"
#include "server/result_cache.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace sadp::server {

/// Fixed pool of persistent worker threads implementing engine::Executor.
/// run_parallel enqueues the engine's drain loops and blocks the calling
/// (request runner) thread until they finish; concurrent requests
/// interleave their loops on the same threads, FIFO.
class WorkerPool : public engine::Executor {
 public:
  /// `workers` <= 0 means hardware concurrency (at least 1).
  explicit WorkerPool(int workers);
  ~WorkerPool() override;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(threads_.size());
  }

  void run_parallel(int tasks, const std::function<void(int)>& work) override;

  /// Reject further work and join the threads.  Idempotent; called by the
  /// destructor.  Pending tasks still run (drain loops exit quickly once
  /// their batch token fires, so shutdown after begin_drain is prompt).
  void shutdown();

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
};

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = ephemeral (read the chosen one back with
  /// port()).  The daemon is a local trusted service — it never binds a
  /// non-loopback address.
  int port = 0;
  /// Shared pool size; 0 = hardware concurrency.  Every request's engine
  /// worker count is capped to this.
  int pool_workers = 0;
  /// Admission bound: flow requests in flight beyond this are rejected
  /// with a resource_exhausted error line.  Control lines are exempt.
  int max_requests = 4;
  /// Reject request lines longer than this (protocol hygiene).
  std::size_t max_request_bytes = 16u << 20;
  /// Result-cache capacity in entries; 0 disables caching.
  std::size_t cache_entries = 256;
  /// Suppress the per-request stderr log lines.
  bool quiet = false;
  /// Test hook: invoked on the request's runner thread after the request
  /// is parsed and admitted, before it is dispatched.  Blocking here holds
  /// the admission slot, which is how the overload test makes rejection
  /// deterministic.
  std::function<void()> on_request_admitted;
};

class RouteServer {
 public:
  explicit RouteServer(ServerOptions options = {});
  ~RouteServer();

  RouteServer(const RouteServer&) = delete;
  RouteServer& operator=(const RouteServer&) = delete;

  /// Bind + listen on 127.0.0.1 and start the event loop.
  [[nodiscard]] util::Status start();

  /// The bound port (after start()).
  [[nodiscard]] int port() const noexcept { return port_; }

  /// Begin graceful drain: stop accepting, let running jobs finish, skip
  /// unstarted ones (kCancelled).  Atomic stores only; the event loop
  /// notices within its poll timeout.  Idempotent.
  void begin_drain() noexcept;

  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// Drain, run every in-flight request to completion, join the event loop
  /// and the runners, shut the pool down and close the socket.
  /// Idempotent; called by the destructor.
  void stop();

  /// Flow requests rejected for overload so far.
  [[nodiscard]] std::size_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Admitted flow requests currently in flight.
  [[nodiscard]] std::size_t active() const noexcept {
    return static_cast<std::size_t>(active_.load(std::memory_order_acquire));
  }

  [[nodiscard]] std::size_t cache_hits() const noexcept {
    return cache_ ? cache_->hits() : 0;
  }
  [[nodiscard]] std::size_t cache_misses() const noexcept {
    return cache_ ? cache_->misses() : 0;
  }

  /// Snapshot for {"type":"stats"} replies (`sadp_route --control stats`).
  [[nodiscard]] api::StatsReply stats() const;

 private:
  enum class ConnState : std::uint8_t { kReading, kRunning, kFlushing };

  /// One client connection.  The event loop owns fd/in/state; `out`,
  /// `out_pos` and `finish` are shared with the runner under `mutex`;
  /// the atomics are the cross-thread signals.
  struct Connection {
    int fd = -1;
    ConnState state = ConnState::kReading;
    std::uint32_t events = 0;  ///< epoll interest currently registered
    std::string in;            ///< accumulating request line
    /// Telemetry timestamps (process telemetry clock, µs).  line_complete
    /// is stamped by the event loop when the request line finishes and read
    /// by the runner (ordered by the thread spawn); summary_enqueued is
    /// stamped by the runner and read by the event loop after it observes
    /// runner_done (acquire) or joins the runner.
    std::int64_t line_complete_us = 0;
    std::int64_t summary_enqueued_us = 0;
    std::mutex mutex;
    std::string out;
    std::size_t out_pos = 0;
    bool finish = false;  ///< close once out is drained
    /// Over-long request: once its error line is out, shut the write side
    /// and read and drop input until the client's EOF, so a client still
    /// sending reads the line instead of a reset.  Event loop only.
    bool drain_input = false;
    bool write_shut = false;
    std::atomic<bool> client_gone{false};
    std::atomic<bool> runner_done{false};
    bool runner_started = false;
    std::thread runner;
    util::CancelToken cancel = util::CancelToken::cancellable();
  };

  void event_loop();
  void accept_ready();
  void read_ready(const std::shared_ptr<Connection>& conn);
  void handle_line(const std::shared_ptr<Connection>& conn, std::string line);

  /// One parsed flow-verb request, ready for the runner frame.
  struct Runner {
    const char* name = "";  ///< internal-error prefix ("request runner")
    std::string trace_id;   ///< the request's trace context; "" = untraced
    /// Streams the request's rows and fills the summary's counts; a
    /// non-ok status ends the stream with that error line instead.
    std::function<util::Status(api::ResponseSummary*)> body;
  };
  /// The runner frame (one thread per admitted request, bounded by
  /// max_requests): releases the admission slot on exit, records the
  /// admission-wait and run histograms and spans, runs the body, stamps
  /// and enqueues the "batch" summary, and turns an exception into one
  /// internal-error line.
  void run_frame(const std::shared_ptr<Connection>& conn,
                 const Runner& runner);
  /// Body of a sadp.flow_request.v1 batch: cache hits replay, misses go
  /// through api::dispatch, one row per job either way.
  [[nodiscard]] util::Status run_flow(const std::shared_ptr<Connection>& conn,
                                      const api::FlowRequest& request,
                                      api::ResponseSummary* summary);
  /// Body of a sadp.flow_delta.v1 request: cache lookup by
  /// delta_cache_key, dispatch_delta on a miss, and a row + "delta" line
  /// either way.  With the cache on, a path base is read once into
  /// `request` as inline text, so the key and the route see the same bytes.
  [[nodiscard]] util::Status run_delta(const std::shared_ptr<Connection>& conn,
                                       api::FlowDeltaRequest request,
                                       api::ResponseSummary* summary);
  /// Stream one cache hit for `job`: the stored row relabelled with the
  /// job's label and arm, written by the same row (and delta) line writer
  /// a miss uses, with "cache":"hit"; tallies it in `summary`.
  void replay_hit(const std::shared_ptr<Connection>& conn, CachedRow row,
                  const api::JobRequest& job, std::size_t done,
                  std::size_t total, const std::string& trace_id,
                  api::ResponseSummary* summary);
  /// Append `line` + '\n' to the connection's output (any thread).
  void enqueue_line(const std::shared_ptr<Connection>& conn,
                    const std::string& line, bool finish_after);
  /// Nonblocking write of pending output; updates EPOLLOUT interest.
  /// Event loop only.
  void flush_output(const std::shared_ptr<Connection>& conn);
  void update_interest(Connection& conn, std::uint32_t events);
  void close_connection(const std::shared_ptr<Connection>& conn);
  /// Close every connection whose stream finished (or died) and whose
  /// runner, if any, has exited.
  void sweep_connections();
  void wake() noexcept;
  [[nodiscard]] int capped_workers(int requested) const noexcept;

  ServerOptions options_;
  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<ResultCache> cache_;
  util::Timer uptime_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int port_ = 0;
  std::thread loop_thread_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  util::CancelToken drain_token_ = util::CancelToken::cancellable();
  std::atomic<int> active_{0};
  std::atomic<std::size_t> rejected_{0};
  std::map<int, std::shared_ptr<Connection>> connections_;  // event loop only
  bool listener_registered_ = false;
  bool stopped_ = false;
};

}  // namespace sadp::server
