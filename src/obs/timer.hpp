// hi-opt: observability — RAII phase timing.
//
// ScopedTimer observes its own lifetime (wall-clock seconds) into a
// named Histogram of a MetricsRegistry: construct at phase entry,
// destroy at phase exit.  A null registry makes the timer a no-op (the
// clock is not even read), so instrumented code needs no branches.
// Used by the MILP solver (`milp.solve_s`), the evaluator
// (`dse.simulate_s`), the batch engine (`exec.batch_s`), and the
// MILP level walk's per-phase hooks (`walk.milp_s`, `walk.sim_s`).
#pragma once

#include <chrono>
#include <string_view>

#include "obs/metrics.hpp"

namespace hi::obs {

/// See file comment.
class ScopedTimer {
 public:
  ScopedTimer(MetricsRegistry* registry, std::string_view name)
      : hist_(registry != nullptr ? &registry->histogram(name) : nullptr) {
    if (hist_ != nullptr) {
      t0_ = std::chrono::steady_clock::now();
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->observe(elapsed_s());
    }
  }

  /// Seconds since construction (0 when unobserved).
  [[nodiscard]] double elapsed_s() const {
    if (hist_ == nullptr) {
      return 0.0;
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace hi::obs
