/// Property tests for the batched survey kernel (loc/survey_kernel.h).
///
/// The kernel's contract is *bit-identity*: every arm (scalar, generic,
/// AVX2) and every wrapper built on it must reproduce the historical
/// per-point scalar path exactly — same connected sets, same ascending-id
/// accumulation, same IEEE doubles. All comparisons here use exact
/// equality on purpose; a one-ulp drift is a bug.
#include "loc/survey_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "field/generators.h"
#include "loc/connectivity.h"
#include "loc/error_map.h"
#include "loc/localizer.h"
#include "radio/lognormal_model.h"
#include "radio/noise_model.h"
#include "radio/propagation.h"
#include "rng/rng.h"

namespace abp {
namespace {

/// The historical scalar path, reproduced verbatim: spatial-index disk
/// query, per-beacon virtual predicate, sort by id, accumulate ascending.
/// This is the oracle every kernel arm must match bit-for-bit.
ConnectedSum oracle_connected_sum(const BeaconField& field,
                                  const PropagationModel& model, Vec2 point) {
  std::vector<std::pair<BeaconId, Vec2>> hits;
  field.query_disk(point, model.max_range(), [&](const Beacon& b) {
    if (model.connected(b, point)) hits.emplace_back(b.id, b.pos);
  });
  std::sort(hits.begin(), hits.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ConnectedSum out;
  for (const auto& [id, pos] : hits) {
    out.sum += pos;
    ++out.count;
  }
  return out;
}

BeaconField make_field(std::size_t n_beacons, std::uint64_t seed,
                       bool clustered = false) {
  BeaconField field(AABB::square(100.0));
  Rng rng(seed);
  if (clustered) {
    // Dense knots: exercises points connected to many beacons at once.
    const std::size_t clusters = std::max<std::size_t>(1, n_beacons / 8);
    for (std::size_t c = 0; c < clusters; ++c) {
      const Vec2 center{rng.uniform(5.0, 95.0), rng.uniform(5.0, 95.0)};
      for (std::size_t i = 0; i < 8 && field.size() < n_beacons; ++i) {
        field.add(field.bounds().clamp(
            {center.x + rng.uniform(-4.0, 4.0),
             center.y + rng.uniform(-4.0, 4.0)}));
      }
    }
  } else {
    for (std::size_t i = 0; i < n_beacons; ++i) {
      field.add({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
  }
  return field;
}

std::vector<Vec2> make_points(std::size_t n, std::uint64_t seed) {
  // Deliberately wider than the field so some points lie outside every
  // disk; also hit exact lattice-ish coordinates.
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 7 == 0) {
      pts.push_back({static_cast<double>(i % 120), static_cast<double>(i % 97)});
    } else {
      pts.push_back({rng.uniform(-20.0, 120.0), rng.uniform(-20.0, 120.0)});
    }
  }
  return pts;
}

/// Points on each beacon's own band edges R(1−nf) and R(1+nf), and one
/// ulp either side of each radius, in the four axis directions: the pairs
/// the chunk arms decide without a hash draw by the per-beacon band, right
/// where that decision flips.
std::vector<Vec2> band_edge_points(const BeaconField& field,
                                   const PerBeaconNoiseModel& model) {
  std::vector<Vec2> pts;
  const double range = model.nominal_range();
  field.for_each_active([&](const Beacon& b) {
    const double nf = model.noise_factor(b);
    for (const double edge : {range * (1.0 - nf), range * (1.0 + nf)}) {
      for (const double r : {std::nextafter(edge, 0.0), edge,
                             std::nextafter(edge, 2.0 * edge)}) {
        pts.push_back({b.pos.x + r, b.pos.y});
        pts.push_back({b.pos.x - r, b.pos.y});
        pts.push_back({b.pos.x, b.pos.y + r});
        pts.push_back({b.pos.x, b.pos.y - r});
      }
    }
  });
  return pts;
}

void expect_batches_equal(const SurveyBatch& a, const SurveyBatch& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.counts[i], b.counts[i]) << what << " count @" << i;
    // Exact bit equality, not almost-equal.
    EXPECT_EQ(a.sum_x[i], b.sum_x[i]) << what << " sum_x @" << i;
    EXPECT_EQ(a.sum_y[i], b.sum_y[i]) << what << " sum_y @" << i;
  }
}

void evaluate_into(const SurveyKernel& kernel, const std::vector<Vec2>& pts,
                   SurveyBackend backend, SurveyBatch& batch) {
  batch.clear();
  batch.reserve(pts.size());
  for (Vec2 p : pts) batch.push(p);
  kernel.evaluate(batch, backend);
}

class SurveyKernelNoise : public ::testing::TestWithParam<double> {};

TEST_P(SurveyKernelNoise, ScalarArmMatchesHistoricalOracle) {
  const double noise = GetParam();
  const BeaconField field = make_field(60, 0xA1);
  const PerBeaconNoiseModel model(15.0, noise, 0xBEEF);
  const SurveyKernel kernel(field, model);
  ASSERT_TRUE(kernel.fast_path());
  for (Vec2 p : make_points(300, 0xB2)) {
    const ConnectedSum want = oracle_connected_sum(field, model, p);
    const ConnectedSum got = kernel.evaluate_point(p);
    EXPECT_EQ(want.count, got.count);
    EXPECT_EQ(want.sum.x, got.sum.x);
    EXPECT_EQ(want.sum.y, got.sum.y);
  }
}

TEST_P(SurveyKernelNoise, AllArmsBitIdenticalAcrossBatchSizes) {
  const double noise = GetParam();
  for (const bool clustered : {false, true}) {
    const BeaconField field = make_field(48, 0xC3, clustered);
    const PerBeaconNoiseModel model(15.0, noise, 0xF00D);
    const SurveyKernel kernel(field, model);
    std::vector<Vec2> all = make_points(1024, 0xD4);
    const std::vector<Vec2> edges = band_edge_points(field, model);
    all.insert(all.end(), edges.begin(), edges.end());
    SurveyBatch scalar, generic, avx2;
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{4}, std::size_t{5}, std::size_t{7},
                                std::size_t{8}, std::size_t{15},
                                std::size_t{16}, std::size_t{17},
                                std::size_t{31}, std::size_t{33},
                                std::size_t{64}, std::size_t{127},
                                std::size_t{257}, std::size_t{1024},
                                all.size()}) {
      const std::vector<Vec2> pts(all.begin(), all.begin() + n);
      evaluate_into(kernel, pts, SurveyBackend::kScalar, scalar);
      evaluate_into(kernel, pts, SurveyBackend::kGeneric, generic);
      expect_batches_equal(scalar, generic, "generic");
      if (SurveyKernel::avx2_supported()) {
        evaluate_into(kernel, pts, SurveyBackend::kAvx2, avx2);
        expect_batches_equal(scalar, avx2, "avx2");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseSettings, SurveyKernelNoise,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5));

TEST(SurveyKernel, EmptyFieldAndEmptyBatch) {
  const BeaconField field(AABB::square(100.0));
  const PerBeaconNoiseModel model(15.0, 0.3, 1);
  const SurveyKernel kernel(field, model);
  SurveyBatch batch;
  kernel.evaluate(batch);
  EXPECT_EQ(batch.size(), 0u);
  batch.push({50.0, 50.0});
  for (const auto backend : {SurveyBackend::kScalar, SurveyBackend::kGeneric,
                             SurveyBackend::kAvx2}) {
    kernel.evaluate(batch, backend);
    EXPECT_EQ(batch.counts[0], 0u);
    EXPECT_EQ(batch.sum_x[0], 0.0);
    EXPECT_EQ(batch.sum_y[0], 0.0);
  }
}

TEST(SurveyKernel, SingletonField) {
  BeaconField field(AABB::square(100.0));
  field.add({50.0, 50.0});
  const PerBeaconNoiseModel model(15.0, 0.5, 7);
  const SurveyKernel kernel(field, model);
  SurveyBatch scalar, generic, avx2;
  const std::vector<Vec2> pts = make_points(257, 0xE5);
  evaluate_into(kernel, pts, SurveyBackend::kScalar, scalar);
  evaluate_into(kernel, pts, SurveyBackend::kGeneric, generic);
  expect_batches_equal(scalar, generic, "generic");
  if (SurveyKernel::avx2_supported()) {
    evaluate_into(kernel, pts, SurveyBackend::kAvx2, avx2);
    expect_batches_equal(scalar, avx2, "avx2");
  }
}

TEST(SurveyKernel, IdealDiskModelTakesFastPathAndMatchesOracle) {
  const BeaconField field = make_field(40, 0x11);
  const IdealDiskModel model(15.0);
  const SurveyKernel kernel(field, model);
  EXPECT_TRUE(kernel.fast_path());
  SurveyBatch scalar, generic;
  const std::vector<Vec2> pts = make_points(200, 0x22);
  evaluate_into(kernel, pts, SurveyBackend::kScalar, scalar);
  evaluate_into(kernel, pts, SurveyBackend::kGeneric, generic);
  expect_batches_equal(scalar, generic, "generic");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const ConnectedSum want = oracle_connected_sum(field, model, pts[i]);
    EXPECT_EQ(want.count, scalar.counts[i]);
    EXPECT_EQ(want.sum.x, scalar.sum_x[i]);
    EXPECT_EQ(want.sum.y, scalar.sum_y[i]);
  }
}

TEST(SurveyKernel, FallbackModelBatchMatchesOracle) {
  const BeaconField field = make_field(40, 0x33);
  const LogNormalShadowingModel model(15.0, 3.0, 4.0, 0x77);
  const SurveyKernel kernel(field, model);
  EXPECT_FALSE(kernel.fast_path());
  SurveyBatch batch;
  const std::vector<Vec2> pts = make_points(200, 0x44);
  evaluate_into(kernel, pts, SurveyBackend::kAvx2, batch);  // degrades
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const ConnectedSum want = oracle_connected_sum(field, model, pts[i]);
    EXPECT_EQ(want.count, batch.counts[i]);
    EXPECT_EQ(want.sum.x, batch.sum_x[i]);
    EXPECT_EQ(want.sum.y, batch.sum_y[i]);
  }
}

TEST(SurveyKernel, WrappersMatchKernel) {
  const BeaconField field = make_field(32, 0x55, /*clustered=*/true);
  const PerBeaconNoiseModel model(15.0, 0.3, 0x99);
  const SurveyKernel kernel(field, model);
  for (Vec2 p : make_points(64, 0x66)) {
    const ConnectedSum a = connected_sum(field, model, p);
    const ConnectedSum b = kernel.evaluate_point(p);
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum.x, b.sum.x);
    EXPECT_EQ(a.sum.y, b.sum.y);
    EXPECT_EQ(connected_count(field, model, p), b.count);
    const auto list = connected_beacons(field, model, p);
    const auto klist = kernel.connected_list(p);
    ASSERT_EQ(list.size(), klist.size());
    EXPECT_EQ(list.size(), b.count);
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(list[i].id, klist[i].id);
      // Ascending-id contract.
      if (i > 0) {
        EXPECT_LT(list[i - 1].id, list[i].id);
      }
    }
  }
}

TEST(SurveyKernel, HypotheticalMatchesRealAddition) {
  BeaconField field = make_field(24, 0x77);
  const PerBeaconNoiseModel model(15.0, 0.3, 0xAB);
  const SurveyKernel before(field, model);
  const Vec2 cand{42.5, 57.25};
  const auto hyp = before.make_hypothetical(cand);
  const std::vector<Vec2> pts = make_points(128, 0x88);

  field.add(cand);
  const SurveyKernel after(field, model);
  for (Vec2 p : pts) {
    ConnectedSum predicted = before.evaluate_point(p);
    if (before.hypothetical_connected(hyp, p)) {
      predicted.sum += cand;
      ++predicted.count;
    }
    const ConnectedSum actual = after.evaluate_point(p);
    EXPECT_EQ(predicted.count, actual.count);
    EXPECT_EQ(predicted.sum.x, actual.sum.x);
    EXPECT_EQ(predicted.sum.y, actual.sum.y);
  }
}

TEST(SurveyKernel, RevisionTracksEveryMutation) {
  BeaconField field(AABB::square(100.0));
  std::uint64_t rev = field.revision();
  const BeaconId id = field.add({10.0, 10.0});
  EXPECT_NE(field.revision(), rev);
  rev = field.revision();
  field.set_active(id, false);
  EXPECT_NE(field.revision(), rev);
  rev = field.revision();
  field.remove(id);
  EXPECT_NE(field.revision(), rev);
  // Two distinct fields never share a revision.
  const BeaconField other(AABB::square(100.0));
  EXPECT_NE(other.revision(), field.revision());

  const PerBeaconNoiseModel model(15.0, 0.3, 3);
  const SurveyKernel kernel(field, model);
  EXPECT_EQ(kernel.revision(), field.revision());
  field.add({20.0, 20.0});
  EXPECT_NE(kernel.revision(), field.revision());
}

TEST(SurveyKernel, ErrorMapBatchedEqualsDirectPerPoint) {
  const BeaconField field = make_field(30, 0xAA);
  const PerBeaconNoiseModel model(15.0, 0.3, 0xCD);
  const Lattice2D lattice(field.bounds(), 2.0);
  ErrorMap map(lattice);
  map.compute(field, model);
  const CentroidLocalizer loc(field, model);
  lattice.for_each([&](std::size_t flat, Vec2 p) {
    // Exact: the batched sweep must reproduce the per-point localizer.
    EXPECT_EQ(map.value(flat), loc.error(p));
    EXPECT_EQ(map.connected(flat), loc.localize(p).connected);
  });
}

TEST(SurveyKernel, DefaultBackendHonorsEnvOverride) {
  ::setenv("ABP_SURVEY_BACKEND", "scalar", 1);
  EXPECT_EQ(SurveyKernel::default_backend(), SurveyBackend::kScalar);
  ::setenv("ABP_SURVEY_BACKEND", "generic", 1);
  EXPECT_EQ(SurveyKernel::default_backend(), SurveyBackend::kGeneric);
  ::setenv("ABP_SURVEY_BACKEND", "avx2", 1);
  EXPECT_EQ(SurveyKernel::default_backend(), SurveyBackend::kAvx2);
  ::unsetenv("ABP_SURVEY_BACKEND");
  const SurveyBackend def = SurveyKernel::default_backend();
  EXPECT_EQ(def, SurveyKernel::avx2_supported() ? SurveyBackend::kAvx2
                                                : SurveyBackend::kGeneric);
}

}  // namespace
}  // namespace abp
