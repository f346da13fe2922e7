// Timing helpers for the benchmark harness and flow reports, and the
// CPU-time budget poll of the exact solvers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <limits>
#include <utility>

#include "util/cancel.hpp"

namespace sadp::util {

/// The process-wide telemetry clock: a steady-clock epoch captured once at
/// process start, paired with the CLOCK_REALTIME microseconds read at the
/// same instant.  Every observability timestamp in the process — log-line
/// prefixes, trace-event `ts` values, metrics uptime — is expressed as
/// microseconds since this single epoch, so log lines and trace spans line
/// up without conversion.  The unix anchor travels inside trace files
/// (sadp.flow_trace.v1 `clock_unix_us`), which is how obs::merge_traces
/// aligns timelines recorded by different processes.
///
/// The pair is captured by the first caller (thread-safe magic static);
/// link the process clock early in main() only if sub-microsecond anchor
/// skew between threads ever matters — in practice the first log line or
/// span does it.

/// Microseconds elapsed on the steady clock since the process epoch.
[[nodiscard]] std::int64_t process_uptime_us() noexcept;

/// CLOCK_REALTIME microseconds at the process epoch (uptime zero).  Adding
/// process_uptime_us() to it converts a telemetry timestamp to unix time.
[[nodiscard]] std::int64_t process_unix_anchor_us() noexcept;

/// Current unix time in microseconds, derived from the anchor + uptime so
/// it is immune to wall-clock steps after startup.
[[nodiscard]] inline std::int64_t unix_now_us() noexcept {
  return process_unix_anchor_us() + process_uptime_us();
}

/// A simple wall-clock stopwatch.  Started on construction; elapsed time is
/// queried without stopping, matching how the paper reports per-phase CPU.
class Timer {
 public:
  Timer() noexcept : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() noexcept { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  [[nodiscard]] double millis() const noexcept { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A stopwatch over the calling thread's CPU time.
///
/// Solver deadlines (B&B ILP, exact DVI) must not depend on how many sibling
/// worker threads share the machine: a wall-clock budget buys less search when
/// the core is oversubscribed, which makes time-limited results vary with the
/// engine's --jobs setting.  Charging the budget against per-thread CPU time
/// keeps the cutoff point independent of scheduling.  Falls back to wall time
/// where CLOCK_THREAD_CPUTIME_ID is unavailable.
///
/// Reading CLOCK_THREAD_CPUTIME_ID is a real syscall, not a vDSO read: about
/// 360 ns per call against about 43 ns for CLOCK_MONOTONIC on a 4-vCPU Xeon
/// VM.  Search loops must not call seconds() per node; they poll through
/// SolverBudget below.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() noexcept : start_(now()) {}

  void reset() noexcept { start_ = now(); }

  /// Elapsed CPU seconds consumed by this thread since construction/reset().
  [[nodiscard]] double seconds() const noexcept { return now() - start_; }

 private:
  static double now() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  double start_;
};

/// The one budget poll of the exact solvers (B&B ILP, exact DVI): the
/// thread-CPU time limit, the external cancel token and the `solver.cancel`
/// failpoint behind a single check.  The caller owns it, so its clock can
/// start before the warm start and cover the whole stage.
///
/// Because a thread-CPU clock read is a syscall, a search reads all three
/// before every component, then at the first node of the component and
/// every 256th node after, not per node.  A deadline that passes
/// mid-component is therefore noticed up to 255 nodes late; once it has
/// passed, every later component keeps its warm start unsearched.  Node
/// limits are exact and free to check, so they stay with each solver.
class SolverBudget {
 public:
  SolverBudget(double time_limit_seconds, CancelToken cancel) noexcept
      : time_limit_seconds_(time_limit_seconds), cancel_(std::move(cancel)) {}
  /// No time limit and no token: only the failpoint stops it.
  SolverBudget() noexcept
      : SolverBudget(std::numeric_limits<double>::infinity(), CancelToken()) {}

  /// The per-node poll.  `component_node` is the node's 1-based index
  /// within its component.
  [[nodiscard]] bool node_exhausted(std::size_t component_node) const noexcept {
    return (component_node & 0xFF) == 1 && exhausted();
  }

  /// Reads the clock, the token and the failpoint now: true once the time
  /// limit has passed, the token fired or `solver.cancel` fired.
  [[nodiscard]] bool exhausted() const noexcept;

  /// CPU seconds this thread spent since construction.
  [[nodiscard]] double seconds() const noexcept { return clock_.seconds(); }

 private:
  ThreadCpuTimer clock_;
  double time_limit_seconds_;
  CancelToken cancel_;
};

}  // namespace sadp::util
