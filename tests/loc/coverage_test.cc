#include "loc/coverage.h"

#include <gtest/gtest.h>

#include "common/assert.h"
#include "field/generators.h"
#include "loc/connectivity.h"
#include "radio/noise_model.h"
#include "radio/propagation.h"
#include "rng/rng.h"

namespace abp {
namespace {

const Lattice2D kLattice(AABB::square(100.0), 2.0);
const IdealDiskModel kModel(15.0);

TEST(Coverage, EmptyFieldIsUncoveredAndComponentFree) {
  BeaconField field(AABB::square(100.0));
  const auto stats = analyze_coverage(field, kModel, kLattice);
  EXPECT_DOUBLE_EQ(stats.at_least(1), 0.0);
  EXPECT_EQ(stats.components, 0u);
  EXPECT_EQ(stats.isolated_beacons, 0u);
}

TEST(Coverage, SingleBeaconCoversItsDisk) {
  BeaconField field(AABB::square(100.0));
  field.add({50.0, 50.0});
  const auto stats = analyze_coverage(field, kModel, kLattice);
  // πR²/Side² ≈ 7.07%.
  EXPECT_NEAR(stats.at_least(1), 0.0707, 0.01);
  EXPECT_DOUBLE_EQ(stats.at_least(2), 0.0);
  EXPECT_EQ(stats.components, 1u);
  EXPECT_EQ(stats.isolated_beacons, 1u);
  EXPECT_EQ(stats.largest_component, 1u);
}

TEST(Coverage, KCoverageIsMonotoneInK) {
  BeaconField field(AABB::square(100.0));
  Rng rng(1);
  scatter_uniform(field, 80, rng);
  const auto stats = analyze_coverage(field, kModel, kLattice, 5);
  for (std::size_t k = 2; k <= 5; ++k) {
    EXPECT_LE(stats.at_least(k), stats.at_least(k - 1));
  }
  EXPECT_GT(stats.at_least(1), 0.9);
}

TEST(Coverage, AtLeastBoundaryBehaviour) {
  BeaconField field(AABB::square(100.0));
  field.add({50.0, 50.0});
  const auto stats = analyze_coverage(field, kModel, kLattice, 2);
  EXPECT_DOUBLE_EQ(stats.at_least(0), 1.0);  // trivially covered
  EXPECT_DOUBLE_EQ(stats.at_least(9), 0.0);  // beyond k_max
}

TEST(Coverage, TwoClustersAreTwoComponents) {
  BeaconField field(AABB::square(100.0));
  // Cluster A: chain of beacons 10 m apart (each hears the next).
  field.add({10.0, 10.0});
  field.add({20.0, 10.0});
  field.add({30.0, 10.0});
  // Cluster B: far corner pair.
  field.add({85.0, 85.0});
  field.add({92.0, 85.0});
  const auto stats = analyze_coverage(field, kModel, kLattice);
  EXPECT_EQ(stats.components, 2u);
  EXPECT_EQ(stats.largest_component, 3u);
  EXPECT_EQ(stats.isolated_beacons, 0u);
}

TEST(Coverage, ChainConnectivityIsTransitive) {
  // a—b in range, b—c in range, a—c NOT in range: still one component.
  BeaconField field(AABB::square(100.0));
  field.add({10.0, 50.0});
  field.add({22.0, 50.0});
  field.add({34.0, 50.0});
  const auto stats = analyze_coverage(field, kModel, kLattice);
  EXPECT_EQ(stats.components, 1u);
  EXPECT_EQ(stats.largest_component, 3u);
}

TEST(Coverage, PassiveBeaconsExcluded) {
  BeaconField field(AABB::square(100.0));
  field.add({50.0, 50.0});
  const BeaconId other = field.add({58.0, 50.0});
  field.set_active(other, false);
  const auto stats = analyze_coverage(field, kModel, kLattice);
  EXPECT_EQ(stats.components, 1u);
  EXPECT_EQ(stats.isolated_beacons, 1u);  // the active one hears nobody
}

TEST(Coverage, DensityDrivesConnectivityToOneComponent) {
  BeaconField field(AABB::square(100.0));
  Rng rng(3);
  scatter_uniform(field, 150, rng);  // ≈ 10 neighbours each
  const auto stats = analyze_coverage(field, kModel, kLattice);
  EXPECT_EQ(stats.components, 1u);
  EXPECT_EQ(stats.largest_component, 150u);
}

TEST(Coverage, KCoverageMatchesPointCountsUnderNoise) {
  // Noisy disks, a non-unit step, offset bounds and nx != ny: each k's
  // fraction must equal, exactly, the one counted point by point.
  const Vec2 lo{-13.1, 6.4};
  const Lattice2D lattice(AABB(lo, lo + Vec2{0.7 * 150, 0.7 * 120}), 0.7);
  ASSERT_NE(lattice.nx(), lattice.ny());
  BeaconField field(lattice.bounds());
  Rng rng(0x5C);
  scatter_uniform(field, 60, rng);
  const PerBeaconNoiseModel model(15.0, 0.5, 0xC0DE);
  constexpr std::size_t kMax = 4;
  const auto stats = analyze_coverage(field, model, lattice, kMax);
  std::vector<std::size_t> hits(kMax, 0);
  for (std::size_t flat = 0; flat < lattice.size(); ++flat) {
    const std::size_t n = connected_count(field, model, lattice.point(flat));
    for (std::size_t k = 1; k <= kMax; ++k) hits[k - 1] += n >= k;
  }
  ASSERT_EQ(stats.covered_fraction.size(), kMax);
  for (std::size_t k = 1; k <= kMax; ++k) {
    EXPECT_EQ(stats.covered_fraction[k - 1],
              static_cast<double>(hits[k - 1]) /
                  static_cast<double>(lattice.size()))
        << "k=" << k;
  }
}

TEST(Coverage, RejectsZeroKMax) {
  BeaconField field(AABB::square(100.0));
  EXPECT_THROW(analyze_coverage(field, kModel, kLattice, 0), CheckFailure);
}

}  // namespace
}  // namespace abp
