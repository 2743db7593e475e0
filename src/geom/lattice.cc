#include "geom/lattice.h"

#include <algorithm>

namespace abp {

namespace {
// Convert a world coordinate to the lowest lattice ordinate >= it (floor /
// ceil pair clamped to the axis range).
std::size_t floor_ord(double world, double origin, double step,
                      std::size_t n) {
  const double t = (world - origin) / step;
  const long long v = static_cast<long long>(std::ceil(t - 1e-9));
  return static_cast<std::size_t>(std::clamp<long long>(v, 0, static_cast<long long>(n) - 1));
}
std::size_t ceil_ord(double world, double origin, double step, std::size_t n) {
  const double t = (world - origin) / step;
  const long long v = static_cast<long long>(std::floor(t + 1e-9));
  return static_cast<std::size_t>(std::clamp<long long>(v, 0, static_cast<long long>(n) - 1));
}
}  // namespace

void Lattice2D::for_each_in_disk(
    Vec2 center, double radius,
    const std::function<void(std::size_t, Vec2)>& fn) const {
  ABP_CHECK(radius >= 0.0, "negative disk radius");
  const double r2 = radius * radius;
  const std::size_t i0 = floor_ord(center.x - radius, bounds_.lo.x, step_, nx_);
  const std::size_t i1 = ceil_ord(center.x + radius, bounds_.lo.x, step_, nx_);
  const std::size_t j0 = floor_ord(center.y - radius, bounds_.lo.y, step_, ny_);
  const std::size_t j1 = ceil_ord(center.y + radius, bounds_.lo.y, step_, ny_);
  for (std::size_t j = j0; j <= j1; ++j) {
    for (std::size_t i = i0; i <= i1; ++i) {
      const Vec2 p = point(i, j);
      if (distance_sq(p, center) <= r2) fn(index(i, j), p);
    }
  }
}

Lattice2D::BoxRange Lattice2D::box_range(const AABB& box) const {
  // Bracket each axis with the tolerant floor/ceil ordinates, then trim the
  // ends with the exact inclusive test `AABB::contains` applies. Ordinate
  // coordinates `origin + i·step` are monotone in i, so the points passing
  // the test form one contiguous run and trimming both ends finds it.
  const auto axis = [this](double lo, double hi, double origin,
                           std::size_t n) {
    const auto coord = [&](std::size_t i) {
      return origin + static_cast<double>(i) * step_;
    };
    IndexRange r;
    r.begin = floor_ord(lo, origin, step_, n);
    r.end = std::max(r.begin, ceil_ord(hi, origin, step_, n) + 1);
    while (r.begin < r.end && coord(r.begin) < lo) ++r.begin;
    while (r.end > r.begin && coord(r.end - 1) > hi) --r.end;
    return r;
  };
  return {axis(box.lo.x, box.hi.x, bounds_.lo.x, nx_),
          axis(box.lo.y, box.hi.y, bounds_.lo.y, ny_)};
}

void Lattice2D::for_each_in_box(
    const AABB& box, const std::function<void(std::size_t, Vec2)>& fn) const {
  const BoxRange r = box_range(box);
  for (std::size_t j = r.rows.begin; j < r.rows.end; ++j) {
    for (std::size_t i = r.cols.begin; i < r.cols.end; ++i) {
      fn(index(i, j), point(i, j));
    }
  }
}

}  // namespace abp
