#include "util/timer.hpp"

#include "util/failpoint.hpp"

namespace sadp::util {

namespace {

// Fault site (util/failpoint.hpp): 'cancel' behaves exactly like the
// external token firing at a solver's budget poll — the solver keeps its
// incumbent (B&B) or warm-start answer (exact DVI) and reports non-optimal.
FailPoint g_fp_solver_cancel("solver.cancel");

/// Both clocks read back to back, once per process.  The steady reading is
/// the epoch every telemetry timestamp subtracts; the realtime reading is
/// the unix anchor shipped in trace files.
struct ProcessClock {
  std::chrono::steady_clock::time_point steady_start;
  std::int64_t unix_start_us;

  ProcessClock() noexcept
      : steady_start(std::chrono::steady_clock::now()),
        unix_start_us(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count()) {}
};

const ProcessClock& process_clock() noexcept {
  static const ProcessClock clock;
  return clock;
}

}  // namespace

std::int64_t process_uptime_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - process_clock().steady_start)
      .count();
}

std::int64_t process_unix_anchor_us() noexcept {
  return process_clock().unix_start_us;
}

bool SolverBudget::exhausted() const noexcept {
  return clock_.seconds() > time_limit_seconds_ || cancel_.stop_requested() ||
         g_fp_solver_cancel.evaluate().kind == FailKind::kCancel;
}

}  // namespace sadp::util
