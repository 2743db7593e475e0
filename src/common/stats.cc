#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.h"

namespace abp {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double sample_stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s2 = 0.0;
  for (double x : xs) s2 += (x - m) * (x - m);
  return std::sqrt(s2 / static_cast<double>(xs.size() - 1));
}

double quantile(std::span<const double> xs, double q) {
  ABP_CHECK(q >= 0.0 && q <= 1.0, "quantile fraction out of [0,1]");
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  // Everything past `lo` is now >= a, so the next order statistic is the
  // least of it. Equal values may differ only in the sign of zero, which
  // the interpolation below maps to the same bits.
  const double b =
      hi == lo ? a
               : *std::min_element(
                     v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  const double frac = pos - static_cast<double>(lo);
  return a + (b - a) * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double t_critical_975(std::size_t dof) {
  // Two-sided 95% (upper 97.5%) Student-t critical values, dof 1..30.
  static constexpr double kTable[31] = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
      2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
      2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
      2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  if (dof == 0) return 0.0;
  if (dof <= 30) return kTable[dof];
  if (dof <= 40) return 2.021;
  if (dof <= 60) return 2.000;
  if (dof <= 120) return 1.980;
  return 1.960;
}

double ci95_half_width(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double sd = sample_stddev(xs);
  const double n = static_cast<double>(xs.size());
  return t_critical_975(xs.size() - 1) * sd / std::sqrt(n);
}

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  s.count = xs.size();
  s.mean = mean(xs);
  s.stddev = sample_stddev(xs);
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  s.median = median(xs);
  s.p90 = quantile(xs, 0.9);
  s.ci95 = ci95_half_width(xs);
  return s;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi) {
  ABP_CHECK(lo > 0.0 && hi > lo, "histogram needs 0 < lo < hi");
  ABP_CHECK(buckets >= 1, "histogram needs at least one bucket");
  log_lo_ = std::log(lo_);
  log_span_ = std::log(hi_) - log_lo_;
  counts_.assign(buckets, 0);
}

std::size_t Histogram::bucket_index(double x) const {
  if (!(x > lo_)) return 0;  // also catches NaN
  if (x >= hi_) return counts_.size() - 1;
  const double frac = (std::log(x) - log_lo_) / log_span_;
  const auto idx = static_cast<std::size_t>(
      frac * static_cast<double>(counts_.size()));
  return std::min(idx, counts_.size() - 1);
}

double Histogram::bucket_lower(std::size_t i) const {
  ABP_CHECK(i <= counts_.size(), "bucket index out of range");
  const double frac =
      static_cast<double>(i) / static_cast<double>(counts_.size());
  return std::exp(log_lo_ + frac * log_span_);
}

void Histogram::add(double x) {
  if (total_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++counts_[bucket_index(x)];
  ++total_;
  sum_ += x;
}

void Histogram::merge(const Histogram& other) {
  ABP_CHECK(same_layout(other), "histogram layouts differ");
  if (other.total_ == 0) return;
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
}

double Histogram::mean() const {
  return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

double Histogram::percentile(double q) const {
  ABP_CHECK(q >= 0.0 && q <= 1.0, "percentile fraction out of [0,1]");
  if (total_ == 0) return 0.0;
  // Target rank among n samples (type-7 style: 0 → min, 1 → max).
  const double rank = q * static_cast<double>(total_ - 1);
  double below = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto n = static_cast<double>(counts_[i]);
    if (n == 0.0) continue;
    if (rank < below + n) {
      // Geometric interpolation inside the bucket matches the log-spaced
      // layout; clamp to the observed extremes so sparse tails stay exact.
      // The edge buckets absorb out-of-range samples, so their nominal
      // bounds can understate the data — widen them to the observed
      // extremes or a saturated tail would cap every percentile at `hi`.
      // A lower end at or below 0 (an observed minimum of 0) has no
      // geometric mean with anything, so that bucket interpolates linearly.
      const double frac = n > 1.0 ? (rank - below) / (n - 1.0) : 0.0;
      const double lower = i == 0 ? min_ : bucket_lower(i);
      const double upper = i + 1 == counts_.size() ? max_ : bucket_upper(i);
      const double a = std::max(lower, min_);
      const double b = std::min(upper, max_);
      double v = a;
      if (b > a) v = a > 0.0 ? a * std::pow(b / a, frac) : a + (b - a) * frac;
      return std::clamp(v, min_, max_);
    }
    below += n;
  }
  return max_;
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95() const {
  if (n_ < 2) return 0.0;
  return t_critical_975(n_ - 1) * stddev() /
         std::sqrt(static_cast<double>(n_));
}

}  // namespace abp
