/// \file lattice.h
/// \brief The survey measurement lattice (§3.2: points `step` meters apart).
///
/// The robot measures localization error at every lattice corner
/// `(i·step, j·step)` with `0 ≤ i,j ≤ Side/step`; with the paper's defaults
/// (Side=100, step=1) that is PT = 101×101 = 10201 points. `Lattice2D` maps
/// between flat indices, (i,j) grid coordinates, and world positions, and
/// enumerates the lattice points inside a disk — the key primitive behind
/// exact incremental error-map updates.
#pragma once

#include <cmath>
#include <cstddef>
#include <functional>

#include "common/assert.h"
#include "geom/aabb.h"
#include "geom/vec2.h"

namespace abp {

class Lattice2D {
 public:
  /// Most points a lattice may have. Bounds and steps can come from
  /// untrusted input (field and survey files, snapshot installs), and each
  /// lattice backs dense grids, so a larger one is refused before anything
  /// is allocated.
  static constexpr std::size_t kMaxPoints = std::size_t{1} << 24;

  /// Lattice over `bounds` with spacing `step`; `bounds` extents must be
  /// (near-)integral multiples of `step`, matching the paper's geometry.
  Lattice2D(const AABB& bounds, double step)
      : bounds_(bounds), step_(step) {
    ABP_CHECK(step > 0.0, "lattice step must be positive");
    // Counted in double, so no extent/step ratio can overflow a size_t.
    const double nx = std::round(bounds.width() / step) + 1.0;
    const double ny = std::round(bounds.height() / step) + 1.0;
    ABP_CHECK(nx * ny <= static_cast<double>(kMaxPoints),
              "lattice too large (bounds/step mismatch)");
    nx_ = static_cast<std::size_t>(nx);
    ny_ = static_cast<std::size_t>(ny);
    ABP_CHECK(nx_ >= 2 && ny_ >= 2, "lattice too small");
  }

  const AABB& bounds() const { return bounds_; }
  double step() const { return step_; }
  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  /// Total number of lattice points (the paper's PT).
  std::size_t size() const { return nx_ * ny_; }

  /// World position of grid coordinates (i, j).
  Vec2 point(std::size_t i, std::size_t j) const {
    ABP_DCHECK(i < nx_ && j < ny_, "lattice index out of range");
    return {bounds_.lo.x + static_cast<double>(i) * step_,
            bounds_.lo.y + static_cast<double>(j) * step_};
  }

  /// Flat row-major index of (i, j).
  std::size_t index(std::size_t i, std::size_t j) const {
    ABP_DCHECK(i < nx_ && j < ny_, "lattice index out of range");
    return j * nx_ + i;
  }

  /// Grid coordinates of a flat index.
  std::pair<std::size_t, std::size_t> coords(std::size_t flat) const {
    ABP_DCHECK(flat < size(), "flat index out of range");
    return {flat % nx_, flat / nx_};
  }

  /// World position of a flat index.
  Vec2 point(std::size_t flat) const {
    const auto [i, j] = coords(flat);
    return point(i, j);
  }

  /// Nearest lattice point (by rounding) to a world position; the position
  /// is clamped into bounds first.
  std::size_t nearest(Vec2 p) const {
    const Vec2 q = bounds_.clamp(p);
    const auto i = static_cast<std::size_t>(
        std::llround((q.x - bounds_.lo.x) / step_));
    const auto j = static_cast<std::size_t>(
        std::llround((q.y - bounds_.lo.y) / step_));
    return index(std::min(i, nx_ - 1), std::min(j, ny_ - 1));
  }

  /// Invoke `fn(flat_index, position)` for every lattice point.
  void for_each(const std::function<void(std::size_t, Vec2)>& fn) const {
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t i = 0; i < nx_; ++i) {
        fn(index(i, j), point(i, j));
      }
    }
  }

  /// Invoke `fn(flat_index, position)` for every lattice point within
  /// `radius` of `center` (inclusive). Scans only the bounding sub-grid
  /// (`disk_range`) and filters by exact distance, so the cost is
  /// O(points in the disk).
  void for_each_in_disk(Vec2 center, double radius,
                        const std::function<void(std::size_t, Vec2)>& fn) const;

  /// Half-open range `[begin, end)` of lattice ordinates along one axis.
  struct IndexRange {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool empty() const { return begin == end; }
    std::size_t size() const { return end - begin; }
  };

  /// The lattice points a box covers, boundary included: point (i, j) lies
  /// in `box` (`AABB::contains`) iff `i` is in `cols` and `j` is in `rows`.
  /// Either range may be empty, e.g. for a box outside the bounds or one
  /// thinner than the step that falls between two ordinates.
  struct BoxRange {
    IndexRange cols;
    IndexRange rows;
  };
  BoxRange box_range(const AABB& box) const;

  /// The bounding sub-grid `for_each_in_disk` scans: it holds every lattice
  /// point within `radius` of `center`; callers filter the rest out by exact
  /// distance.
  BoxRange disk_range(Vec2 center, double radius) const;

  /// Invoke `fn(flat_index, position)` for every lattice point inside the
  /// axis-aligned box (inclusive of boundary points), row-major.
  void for_each_in_box(const AABB& box,
                       const std::function<void(std::size_t, Vec2)>& fn) const;

 private:
  AABB bounds_;
  double step_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
};

}  // namespace abp
