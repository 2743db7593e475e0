/// \file stopwatch.h
/// \brief Monotonic wall-clock stopwatch for coarse progress reporting, and
/// the steady-clock reading behind every injectable `clock_ms`.
#pragma once

#include <chrono>

namespace abp {

/// Milliseconds on the steady clock: the default of every component whose
/// clock tests inject (server deadlines, quotas, retry budgets, breaker
/// cadence, drain timeouts).
inline double steady_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace abp
