#include "geom/lattice.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/assert.h"
#include "rng/rng.h"

namespace abp {
namespace {

Lattice2D paper_lattice() { return Lattice2D(AABB::square(100.0), 1.0); }

TEST(Lattice, PaperDimensions) {
  const Lattice2D l = paper_lattice();
  EXPECT_EQ(l.nx(), 101u);
  EXPECT_EQ(l.ny(), 101u);
  EXPECT_EQ(l.size(), 10201u);  // the paper's PT for Side=100, step=1
}

TEST(Lattice, PointIndexRoundTrip) {
  const Lattice2D l = paper_lattice();
  for (std::size_t flat : {0u, 1u, 100u, 101u, 5050u, 10200u}) {
    const auto [i, j] = l.coords(flat);
    EXPECT_EQ(l.index(i, j), flat);
    const Vec2 p = l.point(flat);
    EXPECT_EQ(p, l.point(i, j));
  }
}

TEST(Lattice, CornerPositions) {
  const Lattice2D l = paper_lattice();
  EXPECT_EQ(l.point(0, 0), (Vec2{0.0, 0.0}));
  EXPECT_EQ(l.point(100, 100), (Vec2{100.0, 100.0}));
  EXPECT_EQ(l.point(3, 7), (Vec2{3.0, 7.0}));
}

TEST(Lattice, NonUnitStepAndOffsetOrigin) {
  const Lattice2D l(AABB({10.0, 20.0}, {20.0, 30.0}), 2.5);
  EXPECT_EQ(l.nx(), 5u);
  EXPECT_EQ(l.point(1, 2), (Vec2{12.5, 25.0}));
}

TEST(Lattice, NearestRoundsAndClamps) {
  const Lattice2D l = paper_lattice();
  EXPECT_EQ(l.nearest({3.4, 7.6}), l.index(3, 8));
  EXPECT_EQ(l.nearest({-5.0, 50.0}), l.index(0, 50));
  EXPECT_EQ(l.nearest({150.0, 150.0}), l.index(100, 100));
}

TEST(Lattice, ForEachVisitsAllOnce) {
  const Lattice2D l(AABB::square(10.0), 1.0);
  std::set<std::size_t> seen;
  l.for_each([&](std::size_t flat, Vec2 p) {
    EXPECT_TRUE(l.bounds().contains(p));
    seen.insert(flat);
  });
  EXPECT_EQ(seen.size(), l.size());
}

TEST(Lattice, DiskEnumerationMatchesBruteForce) {
  const Lattice2D l(AABB::square(50.0), 1.0);
  const Vec2 center{17.3, 24.8};
  const double radius = 9.7;
  std::set<std::size_t> fast;
  l.for_each_in_disk(center, radius, [&](std::size_t flat, Vec2) {
    fast.insert(flat);
  });
  std::set<std::size_t> brute;
  l.for_each([&](std::size_t flat, Vec2 p) {
    if (distance(p, center) <= radius) brute.insert(flat);
  });
  EXPECT_EQ(fast, brute);
}

TEST(Lattice, DiskAtBoundaryStaysInBounds) {
  const Lattice2D l(AABB::square(20.0), 1.0);
  std::size_t count = 0;
  l.for_each_in_disk({0.0, 0.0}, 5.0, [&](std::size_t, Vec2 p) {
    EXPECT_TRUE(l.bounds().contains(p));
    ++count;
  });
  EXPECT_GT(count, 0u);
}

TEST(Lattice, DiskIncludesBoundaryPoints) {
  const Lattice2D l(AABB::square(20.0), 1.0);
  // Radius exactly 3: the point at distance 3 must be included.
  std::set<std::size_t> pts;
  l.for_each_in_disk({10.0, 10.0}, 3.0, [&](std::size_t flat, Vec2) {
    pts.insert(flat);
  });
  EXPECT_TRUE(pts.count(l.index(13, 10)) == 1);
  EXPECT_TRUE(pts.count(l.index(10, 7)) == 1);
  EXPECT_FALSE(pts.count(l.index(13, 11)));  // distance sqrt(10) > 3
}

TEST(Lattice, DiskRangeClampsFarCenters) {
  // A center far past an edge clamps to that edge's ordinate; the clamp is
  // taken before any conversion to an index.
  const Lattice2D l = paper_lattice();
  const Lattice2D::BoxRange far = l.disk_range({1e300, -1e300}, 15.0);
  EXPECT_EQ(far.cols.begin, 100u);
  EXPECT_EQ(far.cols.end, 101u);
  EXPECT_EQ(far.rows.begin, 0u);
  EXPECT_EQ(far.rows.end, 1u);
}

TEST(Lattice, BoxEnumerationMatchesBruteForce) {
  const Lattice2D l(AABB::square(50.0), 1.0);
  const AABB box({12.5, 3.0}, {30.0, 18.2});
  std::set<std::size_t> fast;
  l.for_each_in_box(box, [&](std::size_t flat, Vec2) { fast.insert(flat); });
  std::set<std::size_t> brute;
  l.for_each([&](std::size_t flat, Vec2 p) {
    if (box.contains(p)) brute.insert(flat);
  });
  EXPECT_EQ(fast, brute);
}

TEST(Lattice, BoxRangeEmptyOutsideAndBetweenOrdinates) {
  const Lattice2D l = paper_lattice();
  EXPECT_TRUE(l.box_range(AABB({-30.0, 10.0}, {-20.0, 20.0})).cols.empty());
  EXPECT_TRUE(l.box_range(AABB({10.0, 100.5}, {20.0, 200.0})).rows.empty());
  const Lattice2D::BoxRange thin = l.box_range(AABB({4.3, 7.2}, {4.6, 7.9}));
  EXPECT_TRUE(thin.cols.empty());
  EXPECT_TRUE(thin.rows.empty());
  // A degenerate box on a lattice point covers exactly that point.
  const Lattice2D::BoxRange dot = l.box_range(AABB({5.0, 9.0}, {5.0, 9.0}));
  EXPECT_EQ(dot.cols.begin, 5u);
  EXPECT_EQ(dot.cols.end, 6u);
  EXPECT_EQ(dot.rows.begin, 9u);
  EXPECT_EQ(dot.rows.end, 10u);
}

TEST(Lattice, BoxRangeMatchesContainsOnEveryPoint) {
  // Offset, non-square bounds and fractional steps. Boxes: random ones
  // (partly or wholly outside the bounds, some thinner than a step), and
  // ones whose edges sit on an ordinate's coordinate or one ulp either
  // side of it, where the tolerant bracket and the exact test disagree.
  const AABB bounds({-7.5, 3.0}, {42.5, 33.0});
  for (const double step : {0.25, 0.5, 1.0, 2.0}) {
    const Lattice2D l(bounds, step);
    Rng rng(static_cast<std::uint64_t>(step * 8));
    std::vector<AABB> boxes;
    for (int k = 0; k < 150; ++k) {
      const Vec2 lo{rng.uniform(-20.0, 55.0), rng.uniform(-10.0, 45.0)};
      const double w = rng.uniform(0.0, k % 5 == 0 ? step : 30.0);
      const double h = rng.uniform(0.0, k % 7 == 0 ? step : 30.0);
      boxes.emplace_back(lo, Vec2{lo.x + w, lo.y + h});
    }
    const auto ordinate_point = [&] {
      return l.point(static_cast<std::size_t>(rng.below(l.nx())),
                     static_cast<std::size_t>(rng.below(l.ny())));
    };
    const auto nudge = [&](double v) {
      switch (rng.below(3)) {
        case 0:
          return std::nextafter(v, -1e9);
        case 1:
          return v;
        default:
          return std::nextafter(v, 1e9);
      }
    };
    for (int k = 0; k < 150; ++k) {
      const Vec2 a = ordinate_point();
      const Vec2 b = ordinate_point();
      const Vec2 lo{nudge(std::min(a.x, b.x)), nudge(std::min(a.y, b.y))};
      const Vec2 hi{std::max(nudge(std::max(a.x, b.x)), lo.x),
                    std::max(nudge(std::max(a.y, b.y)), lo.y)};
      boxes.emplace_back(lo, hi);
    }
    for (const AABB& box : boxes) {
      const Lattice2D::BoxRange r = l.box_range(box);
      ASSERT_LE(r.cols.begin, r.cols.end);
      ASSERT_LE(r.rows.begin, r.rows.end);
      ASSERT_LE(r.cols.end, l.nx());
      ASSERT_LE(r.rows.end, l.ny());
      for (std::size_t j = 0; j < l.ny(); ++j) {
        for (std::size_t i = 0; i < l.nx(); ++i) {
          const bool in_range = i >= r.cols.begin && i < r.cols.end &&
                                j >= r.rows.begin && j < r.rows.end;
          ASSERT_EQ(in_range, box.contains(l.point(i, j)))
              << "step " << step << " point (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(Lattice, BoxLargerThanBoundsGivesWholeLattice) {
  const Lattice2D l(AABB::square(10.0), 1.0);
  std::size_t count = 0;
  l.for_each_in_box(AABB({-100.0, -100.0}, {100.0, 100.0}),
                    [&](std::size_t, Vec2) { ++count; });
  EXPECT_EQ(count, l.size());
}

TEST(Lattice, RejectsBadConstruction) {
  EXPECT_THROW(Lattice2D(AABB::square(10.0), 0.0), CheckFailure);
  EXPECT_THROW(Lattice2D(AABB::square(10.0), -1.0), CheckFailure);
}

TEST(Lattice, RefusesMoreThanThePointCap) {
  // 4096 × 4096 points is exactly the cap; one more column is over it.
  const Lattice2D at_cap(AABB({0.0, 0.0}, {4095.0, 4095.0}), 1.0);
  EXPECT_EQ(at_cap.size(), Lattice2D::kMaxPoints);
  EXPECT_THROW(Lattice2D(AABB({0.0, 0.0}, {4096.0, 4095.0}), 1.0),
               CheckFailure);
  // Counts that would overflow or wrap a size_t product are refused too.
  EXPECT_THROW(Lattice2D(AABB::square(1e12), 1.0), CheckFailure);
  EXPECT_THROW(Lattice2D(AABB::square(1e300), 1e-300), CheckFailure);
}

TEST(Lattice, FractionalStepGeometry) {
  const Lattice2D l(AABB::square(1.0), 0.25);
  EXPECT_EQ(l.nx(), 5u);
  EXPECT_EQ(l.point(2, 2), (Vec2{0.5, 0.5}));
}

}  // namespace
}  // namespace abp
