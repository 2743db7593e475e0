#include "loc/error_map.h"

#include <limits>
#include <vector>

#include "common/assert.h"

namespace abp {

namespace {

/// Centroid estimate + distance-to-truth epilogue shared by every sweep:
/// same expression the scalar localizer evaluates per point.
double estimate_error(const ConnectedSum& cs, Vec2 fallback, Vec2 p) {
  const Vec2 est =
      cs.count == 0 ? fallback : cs.sum / static_cast<double>(cs.count);
  return distance(est, p);
}

/// Calls `fn(flat, p)` for every point no beacon reaches that lies farther
/// than `reach` from `center` (the disk's points have their own pass),
/// row-major. A plain loop: this runs over the whole lattice on every
/// update.
template <typename Fn>
void for_each_uncovered_beyond(const Lattice2D& lattice,
                               const Grid2D<std::uint32_t>& conn, Vec2 center,
                               double reach, const Fn& fn) {
  const double reach2 = reach * reach;
  for (std::size_t j = 0; j < lattice.ny(); ++j) {
    for (std::size_t i = 0; i < lattice.nx(); ++i) {
      const std::size_t flat = lattice.index(i, j);
      if (conn[flat] != 0) continue;
      const Vec2 p = lattice.point(i, j);
      if (distance_sq(p, center) > reach2) fn(flat, p);
    }
  }
}

}  // namespace

ErrorMap::ErrorMap(const Lattice2D& lattice)
    : lattice_(lattice),
      err_(lattice.nx(), lattice.ny(), 0.0),
      sum_x_(lattice.nx(), lattice.ny(), 0.0),
      sum_y_(lattice.nx(), lattice.ny(), 0.0),
      conn_(lattice.nx(), lattice.ny(), 0) {}

void ErrorMap::set_value(std::size_t flat, double v) {
  sum_ += v - err_[flat];
  err_[flat] = v;
}

void ErrorMap::compute(const BeaconField& field,
                       const PropagationModel& model) {
  compute(field, SurveyKernel(field, model));
}

void ErrorMap::compute(const BeaconField& field, const SurveyKernel& kernel) {
  kernel.evaluate_lattice(lattice_, {0, lattice_.nx()}, {0, lattice_.ny()},
                          sum_x_.data(), sum_y_.data(), conn_.data());
  const Vec2 centroid = field.active_centroid();
  sum_ = 0.0;
  for (std::size_t j = 0; j < lattice_.ny(); ++j) {
    for (std::size_t i = 0; i < lattice_.nx(); ++i) {
      const std::size_t flat = lattice_.index(i, j);
      const double e =
          estimate_error(connected_sum(flat), centroid, lattice_.point(i, j));
      err_[flat] = e;
      sum_ += e;
    }
  }
}

void ErrorMap::apply_addition(const BeaconField& field,
                              const PropagationModel& model,
                              const Beacon& beacon) {
  apply_addition(field, SurveyKernel(field, model), beacon);
}

void ErrorMap::apply_addition(const BeaconField& field,
                              const SurveyKernel& kernel,
                              const Beacon& beacon) {
  ABP_DCHECK(field.get(beacon.id).has_value(),
             "beacon must already be in the field");
  const Vec2 centroid = field.active_centroid();
  const double reach = kernel.model().max_range();
  const BeaconSoA& soa = kernel.soa();

  if (soa.empty() || soa.ids.back() != beacon.id) {
    // Not the last beacon of the canonical order (e.g. a re-activation):
    // its sum would land mid-sequence, so re-evaluate the disk.
    recompute_disk(kernel, beacon.pos, reach, centroid);
  } else {
    // The highest active id is summed last, so extending each stored sum
    // by it gives the bits a full evaluation would. Points it does not
    // reach keep their sums, and their LE unless they are uncovered
    // (set_value of an unchanged LE adds +0.0: skipping it is exact).
    const std::size_t b = soa.size() - 1;
    lattice_.for_each_in_disk(beacon.pos, reach, [&](std::size_t flat,
                                                     Vec2 p) {
      if (kernel.beacon_connected(b, p)) {
        sum_x_[flat] += soa.xs[b];
        sum_y_[flat] += soa.ys[b];
        ++conn_[flat];
      } else if (conn_[flat] != 0) {
        return;
      }
      set_value(flat, estimate_error(connected_sum(flat), centroid, p));
    });
  }
  // Still-uncovered points elsewhere: fallback estimate moved with the
  // field centroid; no connectivity can have changed for them.
  for_each_uncovered_beyond(lattice_, conn_, beacon.pos, reach,
                            [&](std::size_t flat, Vec2 p) {
    set_value(flat, distance(centroid, p));
  });
}

void ErrorMap::apply_removal(const BeaconField& field,
                             const PropagationModel& model, Vec2 removed_pos) {
  apply_removal(field, SurveyKernel(field, model), removed_pos);
}

void ErrorMap::apply_removal(const BeaconField& field,
                             const SurveyKernel& kernel, Vec2 removed_pos) {
  const Vec2 centroid = field.active_centroid();
  const double reach = kernel.model().max_range();
  recompute_disk(kernel, removed_pos, reach, centroid);
  for_each_uncovered_beyond(lattice_, conn_, removed_pos, reach,
                            [&](std::size_t flat, Vec2 p) {
    set_value(flat, distance(centroid, p));
  });
}

void ErrorMap::recompute_disk(const SurveyKernel& kernel, Vec2 center,
                              double reach, Vec2 centroid) {
  const Lattice2D::BoxRange box = lattice_.disk_range(center, reach);
  const std::size_t n = box.cols.size() * box.rows.size();
  std::vector<double> sx(n);
  std::vector<double> sy(n);
  std::vector<std::uint32_t> cnt(n);
  kernel.evaluate_lattice(lattice_, box.cols, box.rows, sx, sy, cnt);
  lattice_.for_each_in_disk(center, reach, [&](std::size_t flat, Vec2 p) {
    const auto [i, j] = lattice_.coords(flat);
    const std::size_t k =
        (j - box.rows.begin) * box.cols.size() + (i - box.cols.begin);
    sum_x_[flat] = sx[k];
    sum_y_[flat] = sy[k];
    conn_[flat] = cnt[k];
    set_value(flat, estimate_error(connected_sum(flat), centroid, p));
  });
}

double ErrorMap::mean_if_added(const BeaconField& field,
                               const PropagationModel& model, Vec2 pos) const {
  return mean_if_added(field, SurveyKernel(field, model), pos);
}

double ErrorMap::mean_if_added(const BeaconField& field,
                               const SurveyKernel& kernel, Vec2 pos) const {
  // Hypothetical beacon: id is irrelevant to propagation (noise draws are
  // keyed by position), so the kernel precomputes its constants once.
  const SurveyKernel::Hypothetical hyp = kernel.make_hypothetical(pos);
  const std::size_t active_n = field.active_count();
  const Vec2 new_centroid =
      active_n + 1 == 0
          ? field.bounds().center()
          : (field.active_centroid() * static_cast<double>(active_n) + pos) /
                static_cast<double>(active_n + 1);

  double delta = 0.0;
  const double reach = kernel.model().max_range();

  // Points the new beacon might reach: the stored sum plus the candidate.
  // The candidate is summed last, matching the canonical id order of the
  // kernel once the beacon is actually added (new ids are always the
  // highest in the field), so the prediction is bit-exact. A point the
  // candidate misses and that stays covered contributes exactly +0.0.
  lattice_.for_each_in_disk(pos, reach, [&](std::size_t flat, Vec2 p) {
    ConnectedSum cs = connected_sum(flat);
    if (kernel.hypothetical_connected(hyp, p)) {
      cs.sum += pos;
      ++cs.count;
    } else if (cs.count != 0) {
      return;
    }
    delta += estimate_error(cs, new_centroid, p) - err_[flat];
  });

  // Uncovered points out of reach: fallback moves to the new centroid.
  for_each_uncovered_beyond(lattice_, conn_, pos, reach,
                            [&](std::size_t flat, Vec2 p) {
    delta += distance(new_centroid, p) - err_[flat];
  });

  return (sum_ + delta) / static_cast<double>(lattice_.size());
}

double ErrorMap::mean() const {
  return sum_ / static_cast<double>(lattice_.size());
}

double ErrorMap::median() const { return abp::median(err_.data()); }

Summary ErrorMap::summary() const { return summarize(err_.data()); }

double ErrorMap::uncovered_fraction() const {
  std::size_t n = 0;
  for (std::uint32_t c : conn_.data()) {
    if (c == 0) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(conn_.size());
}

}  // namespace abp
