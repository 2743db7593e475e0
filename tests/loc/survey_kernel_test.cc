/// Property tests for the batched survey kernel (loc/survey_kernel.h).
///
/// The kernel's contract is *bit-identity*: every path (`evaluate_point`,
/// `evaluate(batch)`, `evaluate_lattice`) and every wrapper built on them
/// must reproduce the historical per-point scalar path exactly — same
/// connected sets, same ascending-id accumulation, same IEEE doubles. The
/// scalar reference `evaluate_point` is held to the historical oracle, and
/// the batch and lattice paths to `evaluate_point`. All comparisons here
/// use exact equality on purpose; a one-ulp drift is a bug.
#include "loc/survey_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
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
/// This is the oracle `evaluate_point` must match bit-for-bit.
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
/// the batch and lattice paths decide without a hash draw by the per-beacon
/// band, right where that decision flips.
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

SurveyBatch make_batch(const std::vector<Vec2>& pts) {
  SurveyBatch batch;
  batch.reserve(pts.size());
  for (Vec2 p : pts) batch.push(p);
  return batch;
}

/// `evaluate(batch)` on `pts` against `evaluate_point` at each point,
/// exact `==`.
void expect_batch_matches_points(const SurveyKernel& kernel,
                                 const std::vector<Vec2>& pts,
                                 const std::string& what) {
  SurveyBatch batch = make_batch(pts);
  kernel.evaluate(batch);
  ASSERT_EQ(batch.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const ConnectedSum want = kernel.evaluate_point(pts[i]);
    EXPECT_EQ(want.count, batch.counts[i]) << what << " count @" << i;
    // Exact bit equality, not almost-equal.
    EXPECT_EQ(want.sum.x, batch.sum_x[i]) << what << " sum_x @" << i;
    EXPECT_EQ(want.sum.y, batch.sum_y[i]) << what << " sum_y @" << i;
  }
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

TEST_P(SurveyKernelNoise, BatchMatchesPointPathAcrossBatchSizes) {
  const double noise = GetParam();
  for (const bool clustered : {false, true}) {
    const BeaconField field = make_field(48, 0xC3, clustered);
    const PerBeaconNoiseModel model(15.0, noise, 0xF00D);
    const SurveyKernel kernel(field, model);
    std::vector<Vec2> all = make_points(1024, 0xD4);
    const std::vector<Vec2> edges = band_edge_points(field, model);
    all.insert(all.end(), edges.begin(), edges.end());
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{4}, std::size_t{5}, std::size_t{7},
                                std::size_t{8}, std::size_t{15},
                                std::size_t{16}, std::size_t{17},
                                std::size_t{31}, std::size_t{33},
                                std::size_t{64}, std::size_t{127},
                                std::size_t{257}, std::size_t{1024},
                                all.size()}) {
      const std::vector<Vec2> pts(all.begin(), all.begin() + n);
      expect_batch_matches_points(
          kernel, pts,
          (clustered ? "clustered n=" : "uniform n=") + std::to_string(n));
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
  kernel.evaluate(batch);
  EXPECT_EQ(batch.counts[0], 0u);
  EXPECT_EQ(batch.sum_x[0], 0.0);
  EXPECT_EQ(batch.sum_y[0], 0.0);
}

TEST(SurveyKernel, SingletonField) {
  BeaconField field(AABB::square(100.0));
  field.add({50.0, 50.0});
  const PerBeaconNoiseModel model(15.0, 0.5, 7);
  const SurveyKernel kernel(field, model);
  expect_batch_matches_points(kernel, make_points(257, 0xE5), "singleton");
}

TEST(SurveyKernel, IdealDiskModelTakesFastPathAndMatchesOracle) {
  const BeaconField field = make_field(40, 0x11);
  const IdealDiskModel model(15.0);
  const SurveyKernel kernel(field, model);
  EXPECT_TRUE(kernel.fast_path());
  const std::vector<Vec2> pts = make_points(200, 0x22);
  SurveyBatch batch = make_batch(pts);
  kernel.evaluate(batch);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const ConnectedSum want = oracle_connected_sum(field, model, pts[i]);
    EXPECT_EQ(want.count, batch.counts[i]);
    EXPECT_EQ(want.sum.x, batch.sum_x[i]);
    EXPECT_EQ(want.sum.y, batch.sum_y[i]);
  }
}

TEST(SurveyKernel, FallbackModelBatchMatchesOracle) {
  const BeaconField field = make_field(40, 0x33);
  const LogNormalShadowingModel model(15.0, 3.0, 4.0, 0x77);
  const SurveyKernel kernel(field, model);
  EXPECT_FALSE(kernel.fast_path());
  const std::vector<Vec2> pts = make_points(200, 0x44);
  SurveyBatch batch = make_batch(pts);
  kernel.evaluate(batch);
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

// ---- evaluate_lattice: the beacon-major lattice path -------------------

/// Lattices of the paper's 1 m step and of finer, coarser and non-binary
/// steps, on a square at the origin and on offset non-square bounds.
std::vector<Lattice2D> lattice_geometries() {
  std::vector<Lattice2D> out;
  for (const double step : {0.5, 0.7, 1.0, 2.0}) {
    const double side = step * std::round(48.0 / step);
    out.emplace_back(AABB::square(side), step);
    const Vec2 lo{-17.3, 4.1};
    out.emplace_back(
        AABB(lo, lo + Vec2{step * std::round(57.0 / step),
                           step * std::round(35.0 / step)}),
        step);
  }
  return out;
}

enum class LatticeFieldKind {
  kEmpty,
  kSingleton,
  kUniform,
  kClustered,
  kOnOrdinates
};

/// A field over the lattice's bounds widened by 20 m, so some disks are
/// clipped by the lattice edges and some beacons lie outside it.
BeaconField lattice_field(const Lattice2D& lattice, LatticeFieldKind kind,
                          std::uint64_t seed) {
  const AABB lb = lattice.bounds();
  BeaconField field(AABB(lb.lo - Vec2{20.0, 20.0}, lb.hi + Vec2{20.0, 20.0}));
  const AABB& fb = field.bounds();
  Rng rng(seed);
  const auto anywhere = [&] {
    return Vec2{rng.uniform(fb.lo.x, fb.hi.x), rng.uniform(fb.lo.y, fb.hi.y)};
  };
  switch (kind) {
    case LatticeFieldKind::kEmpty:
      break;
    case LatticeFieldKind::kSingleton:
      field.add(lb.center());
      break;
    case LatticeFieldKind::kUniform:
      for (int i = 0; i < 40; ++i) field.add(anywhere());
      break;
    case LatticeFieldKind::kClustered:
      for (int c = 0; c < 4; ++c) {
        const Vec2 center = anywhere();
        for (int i = 0; i < 8; ++i) {
          field.add(fb.clamp(center + Vec2{rng.uniform(-3.0, 3.0),
                                           rng.uniform(-3.0, 3.0)}));
        }
      }
      break;
    case LatticeFieldKind::kOnOrdinates:
      // On lattice points (exact boundary distances along both axes, and
      // disk boxes whose ends fall on ordinates), on row ordinates between
      // columns, and halfway between two columns.
      for (int i = 0; i < 12; ++i) {
        field.add(lattice.point(rng.below(lattice.nx()),
                                rng.below(lattice.ny())));
        field.add({rng.uniform(lb.lo.x, lb.hi.x),
                   lattice.point(0, rng.below(lattice.ny())).y});
        const Vec2 p =
            lattice.point(rng.below(lattice.nx() - 1), rng.below(lattice.ny()));
        field.add({p.x + 0.5 * lattice.step(), p.y});
      }
      break;
  }
  return field;
}

/// `evaluate_lattice` on `cols × rows` against `evaluate_point` on the same
/// points, exact `==`. The outputs start as garbage to check they are reset.
void expect_lattice_matches_scalar(const SurveyKernel& kernel,
                                   const Lattice2D& lattice,
                                   Lattice2D::IndexRange cols,
                                   Lattice2D::IndexRange rows,
                                   const std::string& what) {
  const std::size_t n = cols.size() * rows.size();
  std::vector<double> sx(n, -1.0), sy(n, -2.0);
  std::vector<std::uint32_t> cnt(n, 99);
  kernel.evaluate_lattice(lattice, cols, rows, sx, sy, cnt);
  std::size_t k = 0;
  std::size_t mismatches = 0;
  for (std::size_t j = rows.begin; j < rows.end; ++j) {
    for (std::size_t i = cols.begin; i < cols.end; ++i, ++k) {
      const Vec2 p = lattice.point(i, j);
      const ConnectedSum want = kernel.evaluate_point(p);
      if (cnt[k] != want.count || sx[k] != want.sum.x ||
          sy[k] != want.sum.y) {
        ++mismatches;
        ADD_FAILURE() << what << " @" << k << " " << p << ": count "
                      << cnt[k] << " vs " << want.count << ", sum (" << sx[k]
                      << ", " << sy[k] << ") vs (" << want.sum.x << ", "
                      << want.sum.y << ")";
        if (mismatches > 5) return;
      }
    }
  }
}

/// The full lattice and its awkward sub-grids: empty, 1×1, one row, one
/// column, clipped at each edge, and each beacon's disk bounding box.
void expect_lattice_subgrids_match(const SurveyKernel& kernel,
                                   const Lattice2D& lattice,
                                   const std::string& what) {
  using R = Lattice2D::IndexRange;
  const std::size_t nx = lattice.nx();
  const std::size_t ny = lattice.ny();
  const R all_c{0, nx};
  const R all_r{0, ny};
  const std::vector<std::pair<R, R>> grids = {
      {all_c, all_r},
      {R{3, 3}, all_r},
      {all_c, R{ny / 2, ny / 2}},
      {R{nx / 2, nx / 2 + 1}, R{ny / 3, ny / 3 + 1}},
      {all_c, R{ny / 2, ny / 2 + 1}},
      {R{nx / 3, nx / 3 + 1}, all_r},
      {R{0, nx / 3}, all_r},
      {R{2 * nx / 3, nx}, all_r},
      {all_c, R{0, ny / 4}},
      {all_c, R{3 * ny / 4, ny}},
      {R{nx / 4, 3 * nx / 4}, R{ny / 5, 4 * ny / 5}},
  };
  for (std::size_t g = 0; g < grids.size(); ++g) {
    expect_lattice_matches_scalar(kernel, lattice, grids[g].first,
                                  grids[g].second,
                                  what + " grid " + std::to_string(g));
  }
  const BeaconSoA& soa = kernel.soa();
  for (std::size_t b = 0; b < soa.size(); b += 7) {
    const Lattice2D::BoxRange box = lattice.disk_range(
        soa.beacon(b).pos, kernel.model().max_range());
    expect_lattice_matches_scalar(kernel, lattice, box.cols, box.rows,
                                  what + " disk " + std::to_string(b));
  }
}

class LatticeKernelNoise : public ::testing::TestWithParam<double> {};

TEST_P(LatticeKernelNoise, LatticeEqualsScalarOnEverySubGrid) {
  const double noise = GetParam();
  for (const Lattice2D& lattice : lattice_geometries()) {
    for (const auto kind :
         {LatticeFieldKind::kEmpty, LatticeFieldKind::kSingleton,
          LatticeFieldKind::kUniform, LatticeFieldKind::kClustered,
          LatticeFieldKind::kOnOrdinates}) {
      const BeaconField field = lattice_field(
          lattice, kind, 0x1A77 + static_cast<std::uint64_t>(kind));
      const PerBeaconNoiseModel model(15.0, noise, 0x5EED);
      const SurveyKernel kernel(field, model);
      ASSERT_TRUE(kernel.fast_path());
      std::ostringstream what;
      what << "noise " << noise << " step " << lattice.step() << " lo "
           << lattice.bounds().lo << " kind " << static_cast<int>(kind);
      expect_lattice_subgrids_match(kernel, lattice, what.str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseSettings, LatticeKernelNoise,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5));

TEST(SurveyKernel, LatticeIdealAndFallbackModelsEqualScalar) {
  const IdealDiskModel ideal(15.0);
  const LogNormalShadowingModel lognormal(15.0, 3.0, 4.0, 0x77);
  for (const Lattice2D& lattice : lattice_geometries()) {
    for (const auto kind :
         {LatticeFieldKind::kSingleton, LatticeFieldKind::kClustered,
          LatticeFieldKind::kOnOrdinates}) {
      const BeaconField field = lattice_field(
          lattice, kind, 0x2B88 + static_cast<std::uint64_t>(kind));
      const SurveyKernel fast(field, ideal);
      const SurveyKernel fallback(field, lognormal);
      ASSERT_TRUE(fast.fast_path());
      ASSERT_FALSE(fallback.fast_path());
      std::ostringstream what;
      what << "step " << lattice.step() << " lo " << lattice.bounds().lo
           << " kind " << static_cast<int>(kind);
      expect_lattice_subgrids_match(fast, lattice, "ideal " + what.str());
      // The virtual predicate is slow; the coarser lattices cover its path.
      if (lattice.step() >= 1.0) {
        expect_lattice_subgrids_match(fallback, lattice,
                                      "lognormal " + what.str());
      }
    }
  }
}

TEST(SurveyKernel, BeaconConnectedMatchesEvaluatePoint) {
  const BeaconField field = make_field(32, 0x3C, /*clustered=*/true);
  const PerBeaconNoiseModel model(15.0, 0.5, 0x4D);
  const SurveyKernel kernel(field, model);
  std::vector<Vec2> pts = make_points(256, 0x5E);
  const std::vector<Vec2> edges = band_edge_points(field, model);
  pts.insert(pts.end(), edges.begin(), edges.end());
  for (Vec2 p : pts) {
    ConnectedSum sum;
    for (std::size_t b = 0; b < kernel.soa().size(); ++b) {
      if (kernel.beacon_connected(b, p)) {
        sum.sum += kernel.soa().beacon(b).pos;
        ++sum.count;
      }
    }
    const ConnectedSum want = kernel.evaluate_point(p);
    EXPECT_EQ(want.count, sum.count);
    EXPECT_EQ(want.sum.x, sum.sum.x);
    EXPECT_EQ(want.sum.y, sum.sum.y);
  }
}

}  // namespace
}  // namespace abp
