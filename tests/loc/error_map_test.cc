#include "loc/error_map.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "field/generators.h"
#include "loc/localizer.h"
#include "radio/noise_model.h"
#include "rng/rng.h"

namespace abp {
namespace {

constexpr double kSide = 60.0;  // smaller terrain keeps tests fast

/// Survey lattice geometry: bounds and step.
struct Geometry {
  AABB bounds;
  double step;
};

/// The paper's 1 m step, a finer step, and offset non-square bounds at a
/// step that is not a power of two.
const Geometry kGeometries[] = {
    {AABB::square(kSide), 1.0},
    {AABB::square(kSide), 0.5},
    {AABB({-17.3, 4.1}, {-17.3 + 0.7 * 80, 4.1 + 0.7 * 60}), 0.7},
};

struct Scenario {
  BeaconField field;
  PerBeaconNoiseModel model;
  Lattice2D lattice;

  Scenario(double noise, std::uint64_t seed, std::size_t beacons,
           const Geometry& g = kGeometries[0])
      : field(g.bounds, 20.0), model(15.0, noise, seed),
        lattice(g.bounds, g.step) {
    Rng rng(seed ^ 0xF00D);
    scatter_uniform(field, beacons, rng);
  }
};

/// Every stored value, count and connected sum equals a full recompute's,
/// exact `==`.
void expect_matches_full(const ErrorMap& map, const Scenario& s,
                         const std::string& what) {
  ErrorMap full(s.lattice);
  full.compute(s.field, s.model);
  for (std::size_t flat = 0; flat < s.lattice.size(); ++flat) {
    ASSERT_EQ(map.value(flat), full.value(flat)) << what << " @" << flat;
    ASSERT_EQ(map.connected(flat), full.connected(flat)) << what;
    ASSERT_EQ(map.connected_sum(flat).sum.x, full.connected_sum(flat).sum.x)
        << what;
    ASSERT_EQ(map.connected_sum(flat).sum.y, full.connected_sum(flat).sum.y)
        << what;
  }
  ASSERT_NEAR(map.mean(), full.mean(), 1e-9) << what;
}

TEST(ErrorMap, MatchesDirectLocalizerEverywhere) {
  Scenario s(0.3, 11, 25);
  ErrorMap map(s.lattice);
  map.compute(s.field, s.model);
  const CentroidLocalizer loc(s.field, s.model);
  s.lattice.for_each([&](std::size_t flat, Vec2 p) {
    ASSERT_DOUBLE_EQ(map.value(flat), loc.error(p));
  });
}

TEST(ErrorMap, MeanIsMaintainedIncrementally) {
  Scenario s(0.0, 1, 15);
  ErrorMap map(s.lattice);
  map.compute(s.field, s.model);
  const auto vals = map.values();
  EXPECT_NEAR(map.mean(), mean(vals), 1e-9);
}

TEST(ErrorMap, UncoveredFractionCountsZeroConnectivity) {
  // One beacon in a corner: most of a 60x60 terrain is uncovered.
  BeaconField field(AABB::square(kSide), 20.0);
  field.add({0.0, 0.0});
  Lattice2D lattice(AABB::square(kSide), 1.0);
  ErrorMap map(lattice);
  const PerBeaconNoiseModel model(15.0, 0.0, 0);  // noise 0 ⇒ ideal disk
  map.compute(field, model);
  const double frac = map.uncovered_fraction();
  // Quarter-disk of radius 15 covers ~176.7 m² of 3600 m² ⇒ ~95% uncovered.
  EXPECT_GT(frac, 0.90);
  EXPECT_LT(frac, 0.99);
}

// The central property: incremental addition == full recomputation,
// bit-exactly, across noise levels and densities.
class IncrementalProperty
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(IncrementalProperty, AdditionMatchesFullRecompute) {
  const auto [noise, beacons] = GetParam();
  for (const Geometry& g : kGeometries) {
    Scenario s(noise, 1000 + beacons, beacons, g);
    ErrorMap incremental(s.lattice);
    incremental.compute(s.field, s.model);

    const AABB& b = s.field.bounds();
    Rng rng(noise * 1000 + beacons);
    for (int round = 0; round < 3; ++round) {
      const Vec2 pos{rng.uniform(b.lo.x, b.hi.x), rng.uniform(b.lo.y, b.hi.y)};
      const BeaconId id = s.field.add(pos);
      incremental.apply_addition(s.field, s.model, *s.field.get(id));
      std::ostringstream what;
      what << "noise=" << noise << " beacons=" << beacons
           << " step=" << g.step << " round=" << round;
      expect_matches_full(incremental, s, what.str());
    }
  }
}

TEST_P(IncrementalProperty, RemovalMatchesFullRecompute) {
  const auto [noise, beacons] = GetParam();
  for (const Geometry& g : kGeometries) {
    Scenario s(noise, 2000 + beacons, beacons, g);
    ErrorMap incremental(s.lattice);
    incremental.compute(s.field, s.model);

    Rng rng(noise * 500 + beacons);
    for (int round = 0; round < 3; ++round) {
      const auto ids = s.field.active_ids();
      if (ids.size() <= 1) break;
      const BeaconId victim = ids[rng.below(ids.size())];
      const Vec2 pos = s.field.get(victim)->pos;
      s.field.remove(victim);
      incremental.apply_removal(s.field, s.model, pos);
      std::ostringstream what;
      what << "step=" << g.step << " round=" << round;
      expect_matches_full(incremental, s, what.str());
    }
  }
}

TEST_P(IncrementalProperty, DeactivationBehavesLikeRemoval) {
  const auto [noise, beacons] = GetParam();
  for (const Geometry& g : kGeometries) {
    Scenario s(noise, 3000 + beacons, beacons, g);
    ErrorMap map(s.lattice);
    map.compute(s.field, s.model);
    const auto ids = s.field.active_ids();
    const BeaconId victim = ids[ids.size() / 2];
    const Vec2 pos = s.field.get(victim)->pos;

    s.field.set_active(victim, false);
    map.apply_removal(s.field, s.model, pos);
    expect_matches_full(map, s, "step=" + std::to_string(g.step));
  }
}

// Re-activating a beacon that is not the highest active id re-evaluates
// its disk; re-activating the highest one extends the stored sums. Both
// must land on a full recompute's bits.
TEST_P(IncrementalProperty, ReactivationMatchesFullRecompute) {
  const auto [noise, beacons] = GetParam();
  for (const Geometry& g : kGeometries) {
    Scenario s(noise, 4000 + beacons, beacons, g);
    ErrorMap map(s.lattice);
    map.compute(s.field, s.model);
    const auto ids = s.field.active_ids();
    for (const BeaconId id : {ids[ids.size() / 2], ids.front(), ids.back()}) {
      const Beacon beacon = *s.field.get(id);
      s.field.set_active(id, false);
      map.apply_removal(s.field, s.model, beacon.pos);
      s.field.set_active(id, true);
      map.apply_addition(s.field, s.model, beacon);
      expect_matches_full(map, s,
                          "step=" + std::to_string(g.step) +
                              " id=" + std::to_string(id));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NoiseAndDensity, IncrementalProperty,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.5),
                       ::testing::Values(std::size_t{5}, std::size_t{25},
                                         std::size_t{60})));

TEST(ErrorMap, MeanIfAddedPredictsActualAddition) {
  for (const Geometry& g : kGeometries) {
    Scenario s(0.3, 77, 20, g);
    ErrorMap map(s.lattice);
    map.compute(s.field, s.model);

    const AABB& b = s.field.bounds();
    Rng rng(4);
    for (int i = 0; i < 10; ++i) {
      const Vec2 pos{rng.uniform(b.lo.x, b.hi.x), rng.uniform(b.lo.y, b.hi.y)};
      const double predicted = map.mean_if_added(s.field, s.model, pos);

      const BeaconId id = s.field.add(pos);
      ErrorMap after(s.lattice);
      after.compute(s.field, s.model);
      EXPECT_NEAR(predicted, after.mean(), 1e-9) << "candidate " << pos;
      s.field.remove(id);
    }
  }
}

TEST(ErrorMap, MeanIfAddedDoesNotMutate) {
  Scenario s(0.1, 88, 15);
  ErrorMap map(s.lattice);
  map.compute(s.field, s.model);
  const double before = map.mean();
  const std::size_t n_before = s.field.size();
  (void)map.mean_if_added(s.field, s.model, {30.0, 30.0});
  EXPECT_DOUBLE_EQ(map.mean(), before);
  EXPECT_EQ(s.field.size(), n_before);
}

TEST(ErrorMap, AddingABeaconNeverHelpsBeyondItsReach) {
  // Points farther than max_range from the new beacon keep their exact
  // error unless they were uncovered (fallback shift only).
  Scenario s(0.0, 99, 30);
  ErrorMap before(s.lattice);
  before.compute(s.field, s.model);
  ErrorMap after = before;
  const Vec2 pos{30.0, 30.0};
  const BeaconId id = s.field.add(pos);
  after.apply_addition(s.field, s.model, *s.field.get(id));
  s.lattice.for_each([&](std::size_t flat, Vec2 p) {
    if (distance(p, pos) > s.model.max_range() && before.connected(flat) > 0) {
      ASSERT_DOUBLE_EQ(after.value(flat), before.value(flat));
    }
  });
}

}  // namespace
}  // namespace abp
