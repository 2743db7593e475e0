#include "geom/lattice.h"

#include <algorithm>

namespace abp {

namespace {
// An ordinate clamped to the axis range. The clamp is taken in floating
// point, so a far coordinate never reaches an out-of-range conversion.
std::size_t clamp_ord(double v, std::size_t n) {
  return static_cast<std::size_t>(
      std::clamp(v, 0.0, static_cast<double>(n - 1)));
}
// Convert a world coordinate to the lowest lattice ordinate >= it (floor /
// ceil pair clamped to the axis range).
std::size_t floor_ord(double world, double origin, double step,
                      std::size_t n) {
  return clamp_ord(std::ceil((world - origin) / step - 1e-9), n);
}
std::size_t ceil_ord(double world, double origin, double step, std::size_t n) {
  return clamp_ord(std::floor((world - origin) / step + 1e-9), n);
}
}  // namespace

void Lattice2D::for_each_in_disk(
    Vec2 center, double radius,
    const std::function<void(std::size_t, Vec2)>& fn) const {
  const double r2 = radius * radius;
  const BoxRange r = disk_range(center, radius);
  for (std::size_t j = r.rows.begin; j < r.rows.end; ++j) {
    for (std::size_t i = r.cols.begin; i < r.cols.end; ++i) {
      const Vec2 p = point(i, j);
      if (distance_sq(p, center) <= r2) fn(index(i, j), p);
    }
  }
}

Lattice2D::BoxRange Lattice2D::disk_range(Vec2 center, double radius) const {
  ABP_CHECK(radius >= 0.0, "negative disk radius");
  const auto axis = [&](double c, double origin, std::size_t n) {
    IndexRange r;
    r.begin = floor_ord(c - radius, origin, step_, n);
    r.end = std::max(r.begin, ceil_ord(c + radius, origin, step_, n) + 1);
    return r;
  };
  return {axis(center.x, bounds_.lo.x, nx_), axis(center.y, bounds_.lo.y, ny_)};
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
