#include "util/cancel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

namespace sadp::util {

CancelToken CancelToken::cancellable() {
  return CancelToken(std::make_shared<State>());
}

CancelToken CancelToken::with_deadline(double seconds) {
  return CancelToken().child_with_deadline(seconds);
}

CancelToken CancelToken::child_with_deadline(double seconds) const {
  // Saturate before the tick cast, which is undefined past int64.
  const double bounded =
      std::isnan(seconds) ? kMaxDeadlineSeconds
                          : std::clamp(seconds, 0.0, kMaxDeadlineSeconds);
  auto state = std::make_shared<State>();
  state->has_deadline = true;
  state->deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(bounded));
  state->parent = state_;
  return CancelToken(std::move(state));
}

CancelToken CancelToken::child() const {
  auto state = std::make_shared<State>();
  state->parent = state_;
  return CancelToken(std::move(state));
}

StopReason CancelToken::reason() const noexcept {
  // Explicit cancellation anywhere in the chain wins; deadlines are checked
  // in the same walk so one pass decides.
  bool deadline_passed = false;
  Clock::time_point now{};
  bool now_read = false;
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (s->cancelled.load(std::memory_order_relaxed)) return StopReason::kCancelled;
    if (s->has_deadline && !deadline_passed) {
      if (!now_read) {
        now = Clock::now();
        now_read = true;
      }
      deadline_passed = now >= s->deadline;
    }
  }
  return deadline_passed ? StopReason::kDeadline : StopReason::kNone;
}

void CancelToken::request_cancel() const noexcept {
  if (state_) state_->cancelled.store(true, std::memory_order_relaxed);
}

double CancelToken::seconds_remaining() const noexcept {
  double best = std::numeric_limits<double>::infinity();
  Clock::time_point now{};
  bool now_read = false;
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (!s->has_deadline) continue;
    if (!now_read) {
      now = Clock::now();
      now_read = true;
    }
    const double remaining =
        std::chrono::duration<double>(s->deadline - now).count();
    if (remaining < best) best = remaining;
  }
  return best;
}

Status CancelToken::status(const char* where) const {
  switch (reason()) {
    case StopReason::kNone:
      return Status::ok();
    case StopReason::kCancelled:
      return Status::cancelled(std::string("cancelled during ") + where);
    case StopReason::kDeadline:
      return Status::solver_timeout(std::string("deadline exceeded during ") +
                                    where);
  }
  return Status::internal("unknown stop reason");
}

}  // namespace sadp::util
