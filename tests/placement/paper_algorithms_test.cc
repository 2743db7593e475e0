// Tests for the three §3.2 algorithms: Random, Max, Grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/stats.h"
#include "field/generators.h"
#include "loc/error_map.h"
#include "placement/grid_placement.h"
#include "placement/max_placement.h"
#include "placement/random_placement.h"
#include "radio/noise_model.h"

namespace abp {
namespace {

constexpr double kSide = 100.0;
constexpr double kR = 15.0;

/// A survey with explicit values (everything measured, default 0).
SurveyData make_survey(const Lattice2D& lattice) {
  SurveyData data(lattice);
  lattice.for_each([&](std::size_t flat, Vec2) { data.record(flat, 0.0); });
  return data;
}

TEST(RandomAlg, ProposalsUniformInBounds) {
  const RandomPlacement alg;
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  const SurveyData survey = make_survey(lattice);
  const PlacementContext ctx =
      PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng rng(1);
  RunningStats xs;
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p = alg.propose(ctx, rng);
    ASSERT_TRUE(ctx.bounds.contains(p));
    xs.add(p.x);
  }
  EXPECT_NEAR(xs.mean(), 50.0, 2.5);
}

TEST(RandomAlg, IgnoresSurveyEntirely) {
  // Identical RNG stream ⇒ identical proposal, whatever the measurements.
  const RandomPlacement alg;
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  SurveyData empty(lattice);
  SurveyData loud = make_survey(lattice);
  loud.record(5000, 1e9);
  const auto ctx1 = PlacementContext::basic(empty, AABB::square(kSide), kR);
  const auto ctx2 = PlacementContext::basic(loud, AABB::square(kSide), kR);
  Rng r1(9), r2(9);
  EXPECT_EQ(alg.propose(ctx1, r1), alg.propose(ctx2, r2));
}

TEST(MaxAlg, PicksTheWorstMeasuredPoint) {
  const MaxPlacement alg;
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  SurveyData survey = make_survey(lattice);
  const std::size_t hot = lattice.index(63, 17);
  survey.record(hot, 25.0);
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng rng(2);
  EXPECT_EQ(alg.propose(ctx, rng), lattice.point(hot));
}

TEST(MaxAlg, IgnoresUnmeasuredPoints) {
  const MaxPlacement alg;
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  SurveyData survey(lattice);
  survey.record(lattice.index(10, 10), 2.0);  // only measurement
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng rng(3);
  EXPECT_EQ(alg.propose(ctx, rng), lattice.point(lattice.index(10, 10)));
}

TEST(MaxAlg, TieBreaksToLowestFlatIndex) {
  const MaxPlacement alg;
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  SurveyData survey = make_survey(lattice);
  survey.record(lattice.index(80, 80), 7.0);
  survey.record(lattice.index(20, 20), 7.0);  // same value, earlier index
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng rng(4);
  EXPECT_EQ(alg.propose(ctx, rng), lattice.point(lattice.index(20, 20)));
}

TEST(MaxAlg, RequiresMeasurements) {
  const MaxPlacement alg;
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  const SurveyData survey(lattice);  // nothing measured
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng rng(5);
  EXPECT_THROW(alg.propose(ctx, rng), CheckFailure);
}

TEST(MaxAlg, IsDeterministic) {
  const MaxPlacement alg;
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  SurveyData survey = make_survey(lattice);
  survey.record(777, 3.0);
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng r1(1), r2(99);  // different streams — Max must not consume them
  EXPECT_EQ(alg.propose(ctx, r1), alg.propose(ctx, r2));
}

TEST(GridAlg, PaperGeometryOfGridCenters) {
  // §3.2.3 with Table 1 parameters: NG=400 ⇒ 20 per axis, gridSide=30;
  // Xc(1)=15, Xc(20)=85, spacing (100-30)/19.
  const GridPlacement alg(400);
  EXPECT_EQ(alg.grids_per_axis(), 20u);
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  const SurveyData survey = make_survey(lattice);
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  const auto scores = alg.scores(ctx);
  ASSERT_EQ(scores.size(), 400u);
  EXPECT_NEAR(scores.front().center.x, 15.0, 1e-9);
  EXPECT_NEAR(scores.front().center.y, 15.0, 1e-9);
  EXPECT_NEAR(scores.back().center.x, 85.0, 1e-9);
  EXPECT_NEAR(scores.back().center.y, 85.0, 1e-9);
  const double spacing = scores[1].center.x - scores[0].center.x;
  EXPECT_NEAR(spacing, 70.0 / 19.0, 1e-9);
}

TEST(GridAlg, PgMatchesPaperFormulaApproximately) {
  // PG ≈ PT (2R)²/Side² = 10201 · 900/10000 ≈ 918; exact membership gives
  // 31×31 = 961 for interior grids (inclusive boundaries).
  const GridPlacement alg(400);
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  const SurveyData survey = make_survey(lattice);
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  const auto scores = alg.scores(ctx);
  for (const auto& s : scores) {
    EXPECT_GE(s.points, 900u);
    EXPECT_LE(s.points, 1024u);
  }
}

TEST(GridAlg, PicksGridContainingSpreadErrorMass) {
  // A diffuse error blob (many moderately-bad points) must attract Grid to
  // a center near the blob even though no single point is the global max.
  const GridPlacement alg(400);
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  SurveyData survey = make_survey(lattice);
  // Blob of value 5 around (30, 70), radius 12.
  lattice.for_each_in_disk({30.0, 70.0}, 12.0, [&](std::size_t flat, Vec2) {
    survey.record(flat, 5.0);
  });
  // One isolated very loud point far away.
  survey.record(lattice.index(90, 10), 60.0);
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng rng(6);
  const Vec2 pick = alg.propose(ctx, rng);
  EXPECT_LT(distance(pick, {30.0, 70.0}), 12.0)
      << "grid landed at " << pick << " instead of the blob";
}

TEST(GridAlg, MaxPicksTheLoudPointInstead) {
  // Contrast case for the previous test: Max chases the isolated maximum
  // (its documented weakness, §3.2.2).
  const MaxPlacement alg;
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  SurveyData survey = make_survey(lattice);
  lattice.for_each_in_disk({30.0, 70.0}, 12.0, [&](std::size_t flat, Vec2) {
    survey.record(flat, 5.0);
  });
  survey.record(lattice.index(90, 10), 60.0);
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng rng(7);
  EXPECT_EQ(alg.propose(ctx, rng), (Vec2{90.0, 10.0}));
}

TEST(GridAlg, HonoursPartialSurveys) {
  const GridPlacement alg(400);
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  SurveyData survey(lattice);
  // Only one measured point, inside the grid whose center is (15, 15).
  survey.record(lattice.index(15, 15), 4.0);
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng rng(8);
  const Vec2 pick = alg.propose(ctx, rng);
  // The winning grid must contain the measured point.
  EXPECT_LE(std::fabs(pick.x - 15.0), 15.0);
  EXPECT_LE(std::fabs(pick.y - 15.0), 15.0);
}

TEST(GridAlg, RejectsInvalidConfigurations) {
  EXPECT_THROW(GridPlacement(399), CheckFailure);  // not a perfect square
  EXPECT_THROW(GridPlacement(1), CheckFailure);    // fewer than 2 per axis
  // gridSide = 2R = 30 > terrain of 20 m: undefined.
  const GridPlacement alg(400);
  const Lattice2D lattice(AABB::square(20.0), 1.0);
  const SurveyData survey(lattice);
  const auto ctx = PlacementContext::basic(survey, AABB::square(20.0), kR);
  EXPECT_THROW(alg.scores(ctx), CheckFailure);
}

TEST(GridAlg, NormalizedVariantAgreesOnUniformSurveys) {
  // On a complete survey the density-normalized score ranks grids almost
  // identically (PG varies only at the boundary); both must pick the same
  // hot blob.
  const GridPlacement grid(400);
  const GridPlacement norm(400, 2.0, true);
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  SurveyData survey = make_survey(lattice);
  lattice.for_each_in_disk({70.0, 30.0}, 10.0, [&](std::size_t flat, Vec2) {
    survey.record(flat, 8.0);
  });
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng r1(1), r2(1);
  EXPECT_LT(distance(grid.propose(ctx, r1), norm.propose(ctx, r2)), 10.0);
}

TEST(GridAlg, NormalizedVariantResistsSamplingBias) {
  // Two equally-bad blobs, one measured densely and one sparsely: the
  // cumulative score chases the densely-measured one, the normalized
  // score does not.
  const GridPlacement grid(400);
  const GridPlacement norm(400, 2.0, true);
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  SurveyData survey(lattice);
  // Dense blob at (30,30), value 5: every lattice point measured.
  lattice.for_each_in_disk({30.0, 30.0}, 10.0, [&](std::size_t flat, Vec2) {
    survey.record(flat, 5.0);
  });
  // Sparse blob at (70,70), value 9 (worse!), every 4th point measured.
  lattice.for_each_in_disk({70.0, 70.0}, 10.0, [&](std::size_t flat, Vec2 p) {
    const auto [i, j] = lattice.coords(flat);
    if (i % 4 == 0 && j % 4 == 0) survey.record(flat, 9.0);
    (void)p;
  });
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  Rng r1(2), r2(2);
  // Cumulative score chases the densely-measured (but milder) blob.
  EXPECT_LT(distance(grid.propose(ctx, r1), {30.0, 30.0}), 12.0);
  // Normalized score targets the worse blob; with only a handful of
  // measured points, ties among grids clipping the blob allow the pick to
  // sit anywhere whose 30 m box covers part of it — assert it chose the
  // right blob, not a specific grid.
  const Vec2 norm_pick = norm.propose(ctx, r2);
  EXPECT_LT(distance(norm_pick, {70.0, 70.0}),
            distance(norm_pick, {30.0, 30.0}));
  EXPECT_LT(distance(norm_pick, {70.0, 70.0}), 26.0);
}

TEST(GridAlg, NamesDistinguishVariants) {
  EXPECT_EQ(GridPlacement().name(), "grid");
  EXPECT_EQ(GridPlacement(400, 2.0, true).name(), "grid-norm");
}

// ---- Grid's box sums against the per-point scan --------------------------

// The per-point scan Grid ran before box membership was made separable:
// bracket each grid's box with tolerant floor/ceil ordinates, test every
// point of the bracket with `AABB::contains`, and sum the measured ones in
// row-major order. `scores()` must reproduce it bit for bit.
std::size_t scan_floor_ord(double world, double origin, double step,
                           std::size_t n) {
  const double t = (world - origin) / step;
  const auto v = static_cast<long long>(std::ceil(t - 1e-9));
  return static_cast<std::size_t>(
      std::clamp<long long>(v, 0, static_cast<long long>(n) - 1));
}
std::size_t scan_ceil_ord(double world, double origin, double step,
                          std::size_t n) {
  const double t = (world - origin) / step;
  const auto v = static_cast<long long>(std::floor(t + 1e-9));
  return static_cast<std::size_t>(
      std::clamp<long long>(v, 0, static_cast<long long>(n) - 1));
}

std::vector<GridPlacement::GridScore> scan_scores(std::size_t num_grids,
                                                  double grid_side_factor,
                                                  const PlacementContext& ctx) {
  const SurveyData& survey = *ctx.survey;
  const Lattice2D& lattice = survey.lattice();
  const AABB& lb = lattice.bounds();
  const AABB& bounds = ctx.bounds;
  const auto per_axis = static_cast<std::size_t>(
      std::llround(std::sqrt(static_cast<double>(num_grids))));
  const double grid_side = grid_side_factor * ctx.nominal_range;
  const double m = static_cast<double>(per_axis);
  const double span_x = bounds.width() - grid_side;
  const double span_y = bounds.height() - grid_side;
  std::vector<GridPlacement::GridScore> out;
  for (std::size_t j = 1; j <= per_axis; ++j) {
    for (std::size_t i = 1; i <= per_axis; ++i) {
      GridPlacement::GridScore score;
      score.center = {
          bounds.lo.x + grid_side / 2.0 +
              (static_cast<double>(i) - 1.0) * span_x / (m - 1.0),
          bounds.lo.y + grid_side / 2.0 +
              (static_cast<double>(j) - 1.0) * span_y / (m - 1.0)};
      const AABB cell =
          AABB::centered(score.center, grid_side / 2.0, grid_side / 2.0);
      const double step = lattice.step();
      const std::size_t x0 =
          scan_floor_ord(cell.lo.x, lb.lo.x, step, lattice.nx());
      const std::size_t x1 =
          scan_ceil_ord(cell.hi.x, lb.lo.x, step, lattice.nx());
      const std::size_t y0 =
          scan_floor_ord(cell.lo.y, lb.lo.y, step, lattice.ny());
      const std::size_t y1 =
          scan_ceil_ord(cell.hi.y, lb.lo.y, step, lattice.ny());
      for (std::size_t y = y0; y <= y1; ++y) {
        for (std::size_t x = x0; x <= x1; ++x) {
          if (!cell.contains(lattice.point(x, y))) continue;
          const std::size_t flat = lattice.index(x, y);
          if (!survey.measured(flat)) continue;
          score.cumulative_error += survey.value(flat);
          ++score.points;
        }
      }
      out.push_back(score);
    }
  }
  return out;
}

Vec2 scan_pick(const std::vector<GridPlacement::GridScore>& all,
               bool normalized) {
  const GridPlacement::GridScore* best = &all.front();
  for (const auto& s : all) {
    if (s.score(normalized) > best->score(normalized)) best = &s;
  }
  return best->center;
}

/// Exact equality of every score and of both pickers' proposals.
void expect_grid_matches_scan(std::size_t num_grids, double factor,
                              const PlacementContext& ctx,
                              const std::string& what) {
  const auto want = scan_scores(num_grids, factor, ctx);
  const GridPlacement grid(num_grids, factor);
  const auto got = grid.scores(ctx);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(got[k].center.x, want[k].center.x) << what << " grid " << k;
    ASSERT_EQ(got[k].center.y, want[k].center.y) << what << " grid " << k;
    ASSERT_EQ(got[k].cumulative_error, want[k].cumulative_error)
        << what << " grid " << k;
    ASSERT_EQ(got[k].points, want[k].points) << what << " grid " << k;
  }
  for (const bool normalized : {false, true}) {
    const GridPlacement alg(num_grids, factor, normalized);
    Rng rng(1);
    const Vec2 pick = alg.propose(ctx, rng);
    EXPECT_EQ(pick.x, scan_pick(want, normalized).x) << what;
    EXPECT_EQ(pick.y, scan_pick(want, normalized).y) << what;
  }
}

TEST(GridAlg, BoxSumsEqualThePerPointScanExactly) {
  // Non-square bounds offset from the origin, so neither the grid centers
  // nor the box edges sit on lattice ordinates in general.
  const AABB bounds({-37.5, 12.0}, {82.5, 102.0});
  for (const double step : {0.5, 1.0, 2.0}) {
    const Lattice2D lattice(bounds, step);
    for (const std::size_t ng : {4u, 100u, 400u, 1600u}) {
      for (const double factor : {1.0, 2.0}) {
        const std::string what = "step " + std::to_string(step) + " NG " +
                                 std::to_string(ng) + " factor " +
                                 std::to_string(factor);
        // Seeded surveys with random errors: a complete one and a partial
        // one (about 60% of the points), each also after one-shot batch
        // suppression.
        Rng rng(ng * 31 + static_cast<std::uint64_t>(step * 4 + factor));
        for (const double coverage : {1.0, 0.6}) {
          SurveyData survey(lattice);
          lattice.for_each([&](std::size_t flat, Vec2) {
            if (rng.uniform(0.0, 1.0) < coverage) {
              survey.record(flat, rng.uniform(0.0, 20.0));
            }
          });
          const std::string kind =
              coverage == 1.0 ? "complete, " : "partial, ";
          expect_grid_matches_scan(
              ng, factor, PlacementContext::basic(survey, bounds, kR),
              kind + what);

          survey.suppress_disk({10.0, 50.0}, 18.0);
          survey.suppress_disk({70.0, 95.0}, 7.5);
          expect_grid_matches_scan(
              ng, factor, PlacementContext::basic(survey, bounds, kR),
              "suppressed " + kind + what);
        }
      }
    }
  }
}

TEST(GridAlg, AllZeroSurveyTiesAndTheFirstGridWins) {
  const AABB bounds({-37.5, 12.0}, {82.5, 102.0});
  const Lattice2D lattice(bounds, 1.0);
  const SurveyData survey = make_survey(lattice);
  const auto ctx = PlacementContext::basic(survey, bounds, kR);
  for (const std::size_t ng : {4u, 100u, 400u, 1600u}) {
    expect_grid_matches_scan(ng, 2.0, ctx, "all-zero NG " + std::to_string(ng));
    for (const bool normalized : {false, true}) {
      const GridPlacement alg(ng, 2.0, normalized);
      Rng rng(1);
      EXPECT_EQ(alg.propose(ctx, rng), alg.scores(ctx).front().center)
          << "NG " << ng << (normalized ? " normalized" : "");
    }
  }
}

TEST(GridAlg, ComplexityGrowsLinearlyInNG) {
  // O(NG · PG): per-grid work is bounded, so score count == NG.
  const Lattice2D lattice(AABB::square(kSide), 1.0);
  const SurveyData survey = make_survey(lattice);
  const auto ctx = PlacementContext::basic(survey, AABB::square(kSide), kR);
  EXPECT_EQ(GridPlacement(100).scores(ctx).size(), 100u);
  EXPECT_EQ(GridPlacement(900).scores(ctx).size(), 900u);
}

}  // namespace
}  // namespace abp
