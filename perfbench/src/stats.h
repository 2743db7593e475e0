// Order statistics, digests and timing helpers used by every workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// One timed sample of an open-loop run: when it was due (seconds from the
/// segment start) and its latency.
struct TimedSample {
  double due_s = 0.0;
  double latency_ms = 0.0;
};

/// The `q` quantile of each fixed window of `window_s` seconds holding at
/// least `min_count` samples; when no window qualifies, the one quantile of
/// all samples. The median of these is a tail a single host stall moves
/// by one window, not outright.
std::vector<double> window_quantiles(const std::vector<TimedSample>& samples,
                                     double window_s, double q,
                                     std::size_t min_count);

/// 64-bit FNV-1a, for output digests.
class Digest {
 public:
  void add(std::string_view bytes);
  void add(double value);  ///< exact bits, via hex-float text
  void add(std::uint64_t value);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace perfbench
