#include "stats.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<double> window_quantiles(const std::vector<TimedSample>& samples,
                                     double window_s, double q,
                                     std::size_t min_count) {
  if (samples.empty()) return {};
  std::vector<double> all;
  all.reserve(samples.size());
  double end_s = 0.0;
  for (const TimedSample& s : samples) {
    all.push_back(s.latency_ms);
    end_s = std::max(end_s, s.due_s);
  }
  const auto windows =
      static_cast<std::size_t>(std::floor(end_s / window_s)) + 1;
  std::vector<std::vector<double>> buckets(windows);
  for (const TimedSample& s : samples) {
    buckets[static_cast<std::size_t>(s.due_s / window_s)].push_back(
        s.latency_ms);
  }
  std::vector<double> per_window;
  for (std::vector<double>& b : buckets) {
    if (b.size() >= min_count) per_window.push_back(quantile(std::move(b), q));
  }
  if (per_window.empty()) per_window.push_back(quantile(std::move(all), q));
  return per_window;
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  h_ ^= 0xff;  // field separator
  h_ *= 1099511628211ULL;
}

void Digest::add(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  add(std::string_view(buf));
}

void Digest::add(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  add(std::string_view(buf));
}

std::string Digest::hex() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

}  // namespace perfbench
