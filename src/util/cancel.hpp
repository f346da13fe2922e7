// Cooperative cancellation with wall-clock deadlines.
//
// A CancelToken is a cheap copyable handle to shared stop-state.  Long
// loops (the router's R&R iterations, the coloring fix loop, the B&B
// search) poll `stop_requested()` at natural iteration boundaries; owners
// fire the token explicitly (`request_cancel()`) or implicitly by giving it
// a deadline.  Tokens form parent chains: a child created with
// `child_with_deadline()` stops when ITS deadline passes or when any
// ancestor stops, which is how a per-job deadline composes with the
// engine-wide batch deadline and fail-fast cancellation.
//
// A default-constructed token has no state and never stops — passing it is
// free, so every loop can poll unconditionally.
//
// Deadlines are wall-clock (steady_clock) by design: a per-job deadline
// bounds user-visible latency.  The solvers keep their deterministic
// per-thread CPU budgets (util::ThreadCpuTimer) independently and poll the
// token with them (util::SolverBudget); the token is the non-deterministic
// safety net on top.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "util/status.hpp"

namespace sadp::util {

/// The longest deadline in seconds (1e9 s, about 31.7 years).  Requests
/// and the CLI reject larger or non-finite deadlines, and tokens saturate
/// here, so now() plus a deadline always fits steady_clock's int64 ticks
/// (about 292 years of nanoseconds).
inline constexpr double kMaxDeadlineSeconds = 1e9;
/// The accepted range, as rejections state it.
inline constexpr const char* kDeadlineRange = "must be in [0, 1e9] seconds";

/// True for a deadline requests and the CLI accept; false for NaN.
[[nodiscard]] constexpr bool deadline_in_range(double seconds) noexcept {
  return seconds >= 0.0 && seconds <= kMaxDeadlineSeconds;
}

enum class StopReason : std::uint8_t {
  kNone = 0,   ///< not stopped
  kCancelled,  ///< request_cancel() was called (on this token or an ancestor)
  kDeadline,   ///< a deadline in the chain passed
};

class CancelToken {
 public:
  /// A token that never stops (no shared state; polling is two loads).
  CancelToken() = default;

  /// A fresh stoppable token with no deadline.
  [[nodiscard]] static CancelToken cancellable();

  /// A fresh token that stops `seconds` from now (and on request_cancel()).
  /// `seconds` saturates to [0, kMaxDeadlineSeconds]; NaN reads as the
  /// ceiling.
  [[nodiscard]] static CancelToken with_deadline(double seconds);

  /// A child that stops when this token stops OR when its own deadline
  /// (`seconds` from now, saturated as above) passes.  Works on stateless
  /// tokens too: the child is then a fresh root.
  [[nodiscard]] CancelToken child_with_deadline(double seconds) const;

  /// A child with no deadline of its own; stops with this token or on its
  /// own request_cancel().
  [[nodiscard]] CancelToken child() const;

  /// True when the token can ever stop (has state).
  [[nodiscard]] bool can_stop() const noexcept { return state_ != nullptr; }

  /// Poll: should the current work stop now?
  [[nodiscard]] bool stop_requested() const noexcept {
    return reason() != StopReason::kNone;
  }

  /// Why the token stopped (kNone while running).  Explicit cancellation
  /// anywhere in the chain wins over a passed deadline.
  [[nodiscard]] StopReason reason() const noexcept;

  /// Fire this token (and therefore all its children).  No-op on a
  /// stateless token.  Thread-safe; idempotent.
  void request_cancel() const noexcept;

  /// Seconds until the nearest deadline in the chain; +infinity when none.
  /// Zero or negative once a deadline has passed.
  [[nodiscard]] double seconds_remaining() const noexcept;

  /// The stop reason as a flow Status (ok while running).
  [[nodiscard]] Status status(const char* where) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct State {
    mutable std::atomic<bool> cancelled{false};
    bool has_deadline = false;
    Clock::time_point deadline{};
    std::shared_ptr<const State> parent;
  };

  explicit CancelToken(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

}  // namespace sadp::util
