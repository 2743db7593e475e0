#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "common/assert.h"
#include "rng/rng.h"

namespace abp {
namespace {

TEST(Stats, MeanOfKnownValues) {
  const double xs[] = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_EQ(mean(std::span<const double>{}), 0.0);
}

TEST(Stats, SampleStddevMatchesHandComputation) {
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known dataset: population sd 2, sample sd = sqrt(32/7).
  EXPECT_NEAR(sample_stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, StddevOfSingletonIsZero) {
  const double xs[] = {42.0};
  EXPECT_EQ(sample_stddev(xs), 0.0);
}

TEST(Stats, MedianOddCount) {
  const double xs[] = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
}

TEST(Stats, MedianEvenCountInterpolates) {
  const double xs[] = {1.0, 2.0, 3.0, 10.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, QuantileEndpoints) {
  const double xs[] = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 3.0);
}

TEST(Stats, QuantileInterpolatesLinearly) {
  const double xs[] = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

// quantile selects twice in one pass (nth_element, then the least element
// past it); a full sort is the reference. Duplicates, negatives and zeros
// of both signs, exact `==` and the same sign bit.
TEST(Stats, QuantileEqualsSortedReference) {
  Rng rng(0x5EED);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{10}, std::size_t{10201}}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> xs(n);
      for (double& x : xs) {
        switch (rng.below(4)) {
          case 0: x = static_cast<double>(rng.below(7)) - 3.0; break;
          case 1: x = rng.below(2) == 0 ? 0.0 : -0.0; break;
          default: x = rng.uniform(-50.0, 50.0); break;
        }
      }
      std::vector<double> sorted = xs;
      std::sort(sorted.begin(), sorted.end());
      for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        const double pos = q * static_cast<double>(n - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, n - 1);
        const double a = sorted[lo];
        const double want =
            a + (sorted[hi] - a) * (pos - static_cast<double>(lo));
        const double got = quantile(xs, q);
        EXPECT_EQ(got, want) << "n=" << n << " q=" << q;
        EXPECT_EQ(std::signbit(got), std::signbit(want))
            << "n=" << n << " q=" << q;
      }
    }
  }
}

TEST(Stats, QuantileRejectsOutOfRange) {
  const double xs[] = {1.0};
  EXPECT_THROW(quantile(xs, 1.5), CheckFailure);
}

TEST(Stats, TCriticalValuesMatchTables) {
  EXPECT_NEAR(t_critical_975(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_975(10), 2.228, 1e-3);
  EXPECT_NEAR(t_critical_975(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_975(1000), 1.960, 1e-3);
}

TEST(Stats, Ci95ShrinksWithSampleSize) {
  std::vector<double> small, large;
  Rng rng(1);
  for (int i = 0; i < 10; ++i) small.push_back(rng.normal());
  for (int i = 0; i < 1000; ++i) large.push_back(rng.normal());
  EXPECT_GT(ci95_half_width(small), ci95_half_width(large));
}

TEST(Stats, Ci95CoversTrueMeanUsually) {
  // Statistical property test: the CI over samples of N(5,1) should cover
  // the true mean ~95% of the time. With 200 repetitions, far more than
  // 80% coverage is virtually certain.
  Rng rng(7);
  int covered = 0;
  const int reps = 200;
  for (int r = 0; r < reps; ++r) {
    std::vector<double> xs;
    for (int i = 0; i < 30; ++i) xs.push_back(rng.normal(5.0, 1.0));
    const double m = mean(xs);
    const double hw = ci95_half_width(xs);
    if (std::fabs(m - 5.0) <= hw) ++covered;
  }
  EXPECT_GE(covered, static_cast<int>(0.80 * reps));
}

TEST(Stats, SummarizeAgreesWithPieces) {
  const double xs[] = {4.0, 8.0, 15.0, 16.0, 23.0, 42.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.mean, mean(xs));
  EXPECT_DOUBLE_EQ(s.median, median(xs));
  EXPECT_DOUBLE_EQ(s.min, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
  EXPECT_DOUBLE_EQ(s.ci95, ci95_half_width(xs));
}

TEST(RunningStats, MatchesBatchStatistics) {
  Rng rng(3);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-10);
  EXPECT_NEAR(rs.stddev(), sample_stddev(xs), 1e-10);
  EXPECT_NEAR(rs.ci95(), ci95_half_width(xs), 1e-10);
  EXPECT_EQ(rs.count(), xs.size());
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(4);
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.normal(2.0, 3.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  const double m = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), m);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), m);
}

TEST(Histogram, EmptyReportsZeroes) {
  const Histogram h(1.0, 1000.0, 30);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(Histogram, RejectsInvalidLayout) {
  EXPECT_THROW(Histogram(0.0, 10.0, 4), CheckFailure);
  EXPECT_THROW(Histogram(10.0, 10.0, 4), CheckFailure);
  EXPECT_THROW(Histogram(-1.0, 10.0, 4), CheckFailure);
  EXPECT_THROW(Histogram(1.0, 10.0, 0), CheckFailure);
}

TEST(Histogram, TracksCountMinMaxMean) {
  Histogram h(1.0, 1e6, 60);
  h.add(10.0);
  h.add(100.0);
  h.add(1000.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 370.0);
}

TEST(Histogram, OutOfRangeSamplesClampToEdgeBuckets) {
  Histogram h(1.0, 100.0, 10);
  h.add(0.001);   // below lo
  h.add(1e9);     // above hi
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_value(0), 1u);
  EXPECT_EQ(h.bucket_value(h.bucket_count() - 1), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(Histogram, SaturatedTailKeepsExactExtremes) {
  // Samples far past `hi` saturate the last bucket, but the exact min/max
  // (and the percentile clamp to them) must survive: a latency spike of
  // minutes against a 10 s layout still reports truthfully.
  Histogram h = Histogram::latency_us();
  h.add(5.0);
  h.add(1e9);    // 1000 s in a 10 s layout
  h.add(1e300);  // absurd, still must not overflow or distort
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket_value(h.bucket_count() - 1), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1e300);
  // Percentiles stay within the observed range even with a saturated tail.
  EXPECT_GE(h.p50(), h.min());
  EXPECT_LE(h.p99(), h.max());
}

TEST(Histogram, FullySaturatedSingleBucketPercentiles) {
  // Every sample below `lo`: the whole distribution collapses into the
  // first bucket and every percentile must stay inside [min, max] instead
  // of extrapolating past the observed data.
  Histogram h(1.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) h.add(1e-6);
  EXPECT_EQ(h.bucket_value(0), 100u);
  EXPECT_DOUBLE_EQ(h.p50(), 1e-6);
  EXPECT_DOUBLE_EQ(h.p99(), 1e-6);
}

TEST(Histogram, MergePreservesSaturatedCounts) {
  Histogram a(1.0, 100.0, 10);
  Histogram b(1.0, 100.0, 10);
  a.add(1e9);
  b.add(1e12);
  b.add(0.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bucket_value(a.bucket_count() - 1), 2u);  // both overflows
  EXPECT_EQ(a.bucket_value(0), 1u);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 1e12);
}

TEST(Histogram, BucketBoundariesAreLogSpacedAndCover) {
  const Histogram h(1.0, 1000.0, 3);
  EXPECT_DOUBLE_EQ(h.bucket_lower(0), 1.0);
  EXPECT_NEAR(h.bucket_lower(1), 10.0, 1e-9);
  EXPECT_NEAR(h.bucket_lower(2), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.bucket_upper(2), 1000.0);
}

TEST(Histogram, SingleSamplePercentilesCollapseToIt) {
  Histogram h = Histogram::latency_us();
  h.add(42.0);
  EXPECT_DOUBLE_EQ(h.p50(), 42.0);
  EXPECT_DOUBLE_EQ(h.p95(), 42.0);
  EXPECT_DOUBLE_EQ(h.p99(), 42.0);
}

TEST(Histogram, ZeroMinimumInterpolatesToAFinitePercentile) {
  // Bucket 0 starts at the observed minimum 0, where geometric
  // interpolation would compute 0 * inf.
  Histogram h = Histogram::latency_us();
  for (int i = 0; i < 7; ++i) h.add(0.0);
  for (int i = 0; i < 3; ++i) h.add(50.0);
  const double p50 = h.p50();
  EXPECT_TRUE(std::isfinite(p50));
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 50.0);
  EXPECT_TRUE(std::isfinite(h.p95()));
  EXPECT_TRUE(std::isfinite(h.p99()));
}

TEST(Histogram, PercentilesAreMonotoneAndClampedToObservedRange) {
  Histogram h = Histogram::latency_us();
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    h.add(std::exp(rng.uniform(0.0, 10.0)));  // log-uniform in [1, e^10]
  }
  const double p50 = h.p50();
  const double p95 = h.p95();
  const double p99 = h.p99();
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p99, h.max());
  EXPECT_DOUBLE_EQ(h.percentile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(1.0), h.max());
}

TEST(Histogram, PercentileApproximatesExactQuantile) {
  // Bucket resolution bounds the error: with 10 buckets per decade a
  // bucket spans a ×10^0.1 ≈ ×1.26 ratio, so the approximate quantile is
  // within ~26% of the exact one.
  Histogram h = Histogram::latency_us();
  std::vector<double> xs;
  Rng rng(13);
  for (int i = 0; i < 20000; ++i) {
    const double x = std::exp(rng.uniform(std::log(5.0), std::log(50000.0)));
    h.add(x);
    xs.push_back(x);
  }
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact = quantile(xs, q);
    EXPECT_NEAR(h.percentile(q), exact, 0.3 * exact) << "q=" << q;
  }
}

TEST(Histogram, MergeEqualsSequential) {
  Histogram all = Histogram::latency_us();
  Histogram a = Histogram::latency_us();
  Histogram b = Histogram::latency_us();
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double x = std::exp(rng.uniform(0.0, 12.0));
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.p95(), all.p95());
  for (std::size_t i = 0; i < a.bucket_count(); ++i) {
    EXPECT_EQ(a.bucket_value(i), all.bucket_value(i)) << "bucket " << i;
  }
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  Histogram a = Histogram::latency_us();
  Histogram empty = Histogram::latency_us();
  a.add(7.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.p50(), 7.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.min(), 7.0);
}

TEST(Histogram, MergeRejectsLayoutMismatch) {
  Histogram a(1.0, 100.0, 10);
  Histogram b(1.0, 100.0, 20);
  Histogram c(1.0, 200.0, 10);
  EXPECT_FALSE(a.same_layout(b));
  EXPECT_FALSE(a.same_layout(c));
  EXPECT_THROW(a.merge(b), CheckFailure);
  EXPECT_THROW(a.merge(c), CheckFailure);
}

}  // namespace
}  // namespace abp
