// Span tracing for the routing flow.
//
// A TraceSession collects timed spans and counter samples from every thread
// of a flow run and serializes them as Chrome trace-event JSON (schema
// sadp.flow_trace.v1) — open the file in chrome://tracing or
// https://ui.perfetto.dev to see per-job swimlanes, nested route / R&R /
// solver spans, and counter tracks of the convergence state.
//
// Instrumentation is compiled in permanently and costs one relaxed atomic
// load per span site while no session is installed: the Span constructor
// checks obs::tracing_enabled() first and leaves the object inert (no
// allocation, no clock read, no buffer access) when tracing is off.  The
// sites therefore live directly in the router and the solvers, outside
// their inner loops, without a build flag.
//
// Tracing never perturbs results.  Span and counter recording only reads
// flow state, never writes it, so the routed geometry, DVI choices and all
// deterministic perf counters are bit-identical with tracing on or off
// (tests/test_obs.cpp proves it row by row).
//
// Threading model.  Each thread appends to its own buffer (registered with
// the installed session on first use, keyed by a global installation
// generation so stale thread-local caches are never reused across
// sessions); no lock is taken on the recording path.  to_json/write_json
// merge the buffers under the session mutex and must only run after the
// traced threads have been joined (the FlowEngine joins its pool before
// the caller writes the trace).  The session must outlive every Span
// started while it was installed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace sadp::obs {

inline constexpr const char* kTraceSchema = "sadp.flow_trace.v1";

namespace detail {

extern std::atomic<bool> g_enabled;

/// One recorded event.  Names are borrowed pointers: string literals or
/// strings interned in the owning thread's buffer.
struct TraceEvent {
  const char* name = nullptr;
  std::int64_t ts_us = 0;   ///< process telemetry clock microseconds
  std::int64_t dur_us = 0;  ///< complete events only
  std::int64_t id = -1;     ///< optional integer payload; emitted as args.id
  char phase = 'X';         ///< 'X' complete, 'C' counter, 'I' instant
  std::uint8_t num_values = 0;
  std::uint8_t num_strs = 0;
  struct KV {
    const char* key;
    double value;
  };
  struct StrKV {
    const char* key;
    const char* value;  ///< interned in the owning thread's buffer
  };
  std::array<KV, 6> values{};
  std::array<StrKV, 2> strs{};
};

/// Per-thread event storage.  Appended only by the owning thread; drained
/// by TraceSession::to_json after that thread is done (joined or idle).
class ThreadBuffer {
 public:
  explicit ThreadBuffer(int tid) noexcept : tid_(tid) {}

  void append(const TraceEvent& event) { events_.push_back(event); }

  /// Copy a dynamic span name into buffer-owned stable storage.
  [[nodiscard]] const char* intern(const std::string& name) {
    return names_.emplace_back(name).c_str();
  }

  [[nodiscard]] int tid() const noexcept { return tid_; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }

  void set_thread_name(std::string name) { thread_name_ = std::move(name); }
  [[nodiscard]] const std::string& thread_name() const noexcept {
    return thread_name_;
  }

 private:
  int tid_;
  std::vector<TraceEvent> events_;
  std::deque<std::string> names_;  ///< deque: c_str() stays valid on growth
  std::string thread_name_;
};

[[nodiscard]] std::int64_t now_us() noexcept;

}  // namespace detail

/// The one relaxed load every span site pays when tracing is off.
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

class TraceSession {
 public:
  TraceSession() = default;
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Make this the process-wide recording session (replacing any other) and
  /// enable the span sites.  Timestamps are reported on the process
  /// telemetry clock (microseconds since process start, util/timer.hpp),
  /// the same epoch log-line prefixes use, so log lines, spans, and the
  /// traces of sibling fleet processes line up after obs::merge_traces
  /// shifts each file by its `clock_unix_us` anchor.
  void install();

  /// Stop recording into this session.  Already-buffered events remain
  /// available to to_json.  Idempotent; also called by the destructor.
  void uninstall();

  [[nodiscard]] bool installed() const noexcept { return installed_; }

  /// Name this process in the trace view (the process_name metadata event
  /// and the top-level `process` member).  Defaults to "sadp_flow"; fleet
  /// daemons set "sadp_routed :port" and the front
  /// "sadp_routed --backends :port" so merged timelines label their
  /// swimlanes.
  void set_process_name(std::string name);

  /// Merge all thread buffers into one Chrome trace-event JSON document.
  /// Only call after the traced threads are joined or quiescent.
  [[nodiscard]] std::string to_json() const;

  /// to_json to a file (single write + flush).
  [[nodiscard]] util::Status write_json(const std::string& path) const;

  /// Total recorded events across all thread buffers.
  [[nodiscard]] std::size_t event_count() const;

  /// The calling thread's buffer of the installed session, registering it
  /// on first use; nullptr when no session is installed.
  [[nodiscard]] static detail::ThreadBuffer* thread_buffer();

 private:
  [[nodiscard]] detail::ThreadBuffer* register_thread();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<detail::ThreadBuffer>> buffers_;
  std::string process_name_ = "sadp_flow";
  bool installed_ = false;
};

/// RAII span: records one complete ('X') event over its lifetime.  Balanced
/// by construction — early returns, exceptions and cancellation paths all
/// run the destructor.  Inert (and allocation-free) when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::int64_t id = -1) noexcept {
    if (!tracing_enabled()) return;
    begin(name, id);
  }
  /// Dynamic-name span (e.g. one per job); the name is copied into the
  /// thread buffer, so this allocates — only when tracing is on.
  explicit Span(const std::string& name, std::int64_t id = -1) {
    if (!tracing_enabled()) return;
    begin_interned(name, id);
  }
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] bool active() const noexcept { return buffer_ != nullptr; }

  /// Attach/replace the integer payload (args.id) before the span closes.
  void set_id(std::int64_t id) noexcept { id_ = id; }

  /// Attach a string arg (e.g. a propagated trace_id) before the span
  /// closes.  The key must outlive the session (a string literal); the
  /// value is copied into the thread buffer.  At most two per span; extra
  /// calls are dropped.
  void set_str(const char* key, const std::string& value);

  /// Close the span now instead of at scope exit (idempotent; the
  /// destructor then does nothing).
  void end() noexcept {
    if (buffer_ == nullptr) return;
    record_end();
    buffer_ = nullptr;
  }

 private:
  void begin(const char* name, std::int64_t id) noexcept;
  void begin_interned(const std::string& name, std::int64_t id);
  void record_end() noexcept;

  detail::ThreadBuffer* buffer_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t start_us_ = 0;
  std::int64_t id_ = -1;
  std::uint8_t num_strs_ = 0;
  std::array<detail::TraceEvent::StrKV, 2> strs_{};
};

struct CounterValue {
  const char* key;
  double value;
};

/// Record one sample of a counter track (up to 6 named series per track).
/// Callers should guard with tracing_enabled() so the sampled values are
/// not even computed when tracing is off.
void counter(const char* track, std::initializer_list<CounterValue> values);

/// Record an instant event (a vertical marker in the trace view).
void instant(const char* name, std::int64_t id = -1);

/// A string argument for complete(); the value is copied into the thread
/// buffer when the event is recorded.
struct StrArg {
  const char* key;
  std::string value;
};

/// Record a complete ('X') event with explicit timestamps, for spans whose
/// begin and end are observed on different threads (e.g. the server's
/// admission wait: the epoll thread stamps the start, the runner thread
/// records the event).  Timestamps are microseconds on the process
/// telemetry clock (util::process_uptime_us()).  Callers should guard with
/// tracing_enabled() so arguments are not built when tracing is off.
void complete(const std::string& name, std::int64_t ts_us, std::int64_t dur_us,
              std::initializer_list<StrArg> strs = {});

/// Name the calling thread in the trace view (e.g. "worker 3").
void name_this_thread(const std::string& name);

}  // namespace sadp::obs
