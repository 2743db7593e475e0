#include "placement/coverage_placement.h"

#include <gtest/gtest.h>

#include "common/assert.h"
#include "field/generators.h"
#include "loc/connectivity.h"
#include "loc/coverage.h"
#include "loc/error_map.h"
#include "radio/noise_model.h"

namespace abp {
namespace {

struct Scenario {
  AABB bounds = AABB::square(100.0);
  BeaconField field{bounds, 20.0};
  PerBeaconNoiseModel model{15.0, 0.0, 2};
  Lattice2D lattice{bounds, 2.0};
  ErrorMap map{lattice};
  SurveyData survey{lattice};

  void finish() {
    map.compute(field, model);
    survey = SurveyData::from_error_map(map);
  }

  PlacementContext ctx() {
    PlacementContext c = PlacementContext::basic(survey, bounds, 15.0);
    c.field = &field;
    c.model = &model;
    c.truth = &map;
    return c;
  }
};

TEST(CoverageAlg, TargetsTheUncoveredVoid) {
  // All beacons in the west half: the east void is the biggest coverage
  // win; the proposal must land there, at least R from existing coverage.
  Scenario s;
  for (double y = 10.0; y <= 90.0; y += 20.0) {
    s.field.add({15.0, y});
    s.field.add({35.0, y});
  }
  s.finish();
  Rng rng(1);
  const CoveragePlacement alg(2);
  const Vec2 pick = alg.propose(s.ctx(), rng);
  EXPECT_GT(pick.x, 60.0);
}

TEST(CoverageAlg, ImprovesCoverageMoreThanErrorDrivenPlacement) {
  Scenario s;
  Rng gen(2);
  scatter_uniform(s.field, 12, gen);
  s.finish();
  const auto before =
      analyze_coverage(s.field, s.model, s.lattice).at_least(1);

  Rng rng(3);
  const CoveragePlacement alg(2);
  const Vec2 pick = alg.propose(s.ctx(), rng);
  s.field.add(s.bounds.clamp(pick));
  const auto after =
      analyze_coverage(s.field, s.model, s.lattice).at_least(1);
  // A full new disk is πR²/Side² ≈ 7.07%; the coverage maximizer should
  // realize most of it on a sparse field.
  EXPECT_GT(after - before, 0.05);
}

TEST(CoverageAlg, FullyCoveredFieldStillProposesInBounds) {
  Scenario s;
  place_grid(s.field, 8, 8);  // dense: everything covered
  s.finish();
  Rng rng(4);
  const CoveragePlacement alg(4);
  const Vec2 pick = alg.propose(s.ctx(), rng);
  EXPECT_TRUE(s.bounds.contains(pick));
}

TEST(CoverageAlg, IgnoresErrorMagnitudes) {
  // Identical coverage geometry, wildly different error readings ⇒ same
  // proposal (coverage placement never reads the survey values).
  Scenario s;
  s.field.add({20.0, 20.0});
  s.finish();
  Rng r1(5);
  const CoveragePlacement alg(2);
  const Vec2 a = alg.propose(s.ctx(), r1);
  // Corrupt the survey values.
  for (std::size_t flat = 0; flat < s.lattice.size(); ++flat) {
    s.survey.record(flat, 12345.0);
  }
  Rng r2(6);
  const Vec2 b = alg.propose(s.ctx(), r2);
  EXPECT_EQ(a, b);
}

/// `CoveragePlacement::propose` by brute force: per-point counts mark the
/// uncovered points, then each strided candidate's gain is counted over its
/// disk; the first maximum wins.
Vec2 reference_pick(const BeaconField& field, const PropagationModel& model,
                    const Lattice2D& lattice, std::size_t stride,
                    double range) {
  std::vector<std::uint8_t> uncovered(lattice.size());
  for (std::size_t flat = 0; flat < lattice.size(); ++flat) {
    uncovered[flat] = connected_count(field, model, lattice.point(flat)) == 0;
  }
  std::size_t best_gain = 0;
  Vec2 best = lattice.point(0);
  bool first = true;
  for (std::size_t j = 0; j < lattice.ny(); j += stride) {
    for (std::size_t i = 0; i < lattice.nx(); i += stride) {
      const Vec2 candidate = lattice.point(i, j);
      std::size_t gain = 0;
      lattice.for_each_in_disk(candidate, range, [&](std::size_t flat, Vec2) {
        gain += uncovered[flat];
      });
      if (first || gain > best_gain) {
        best_gain = gain;
        best = candidate;
        first = false;
      }
    }
  }
  return best;
}

TEST(CoverageAlg, PickMatchesPointCountReferenceUnderNoise) {
  // Noisy disks, a non-unit step, offset bounds and nx != ny, so a mask
  // read in the wrong order picks elsewhere.
  const Vec2 lo{-13.1, 6.4};
  const AABB bounds(lo, lo + Vec2{0.7 * 150, 0.7 * 120});
  const Lattice2D lattice(bounds, 0.7);
  ASSERT_NE(lattice.nx(), lattice.ny());
  BeaconField field(bounds);
  Rng gen(0x6D);
  scatter_uniform(field, 60, gen);
  const PerBeaconNoiseModel model(15.0, 0.5, 0xFACE);
  const SurveyData survey(lattice);
  PlacementContext ctx = PlacementContext::basic(survey, bounds, 15.0);
  ctx.field = &field;
  ctx.model = &model;
  for (const std::size_t stride : {2, 3}) {
    Rng rng(8);
    EXPECT_EQ(CoveragePlacement(stride).propose(ctx, rng),
              reference_pick(field, model, lattice, stride, 15.0))
        << "stride " << stride;
  }
}

TEST(CoverageAlg, RequiresContext) {
  Scenario s;
  s.field.add({20.0, 20.0});
  s.finish();
  PlacementContext bare =
      PlacementContext::basic(s.survey, s.bounds, 15.0);
  Rng rng(7);
  const CoveragePlacement alg;
  EXPECT_THROW(alg.propose(bare, rng), CheckFailure);
}

TEST(CoverageAlg, Name) {
  EXPECT_EQ(CoveragePlacement().name(), "coverage");
}

}  // namespace
}  // namespace abp
