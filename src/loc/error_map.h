/// \file error_map.h
/// \brief Localization error over the survey lattice, with exact
/// incremental updates.
///
/// The evaluation (§4.1) measures LE at every lattice corner before and
/// after adding a beacon. Recomputing the full map after each candidate
/// placement would dominate runtime, so `ErrorMap` exploits the structure of
/// centroid localization:
///
///  * adding or removing beacon B can change the connected set only at
///    points within `model.max_range()` of B;
///  * points that hear *no* beacon fall back to the field centroid (see
///    localizer.h), which shifts when the field changes — those points are
///    updated without any connectivity queries.
///
/// Beside each point's LE the map stores the point's `ConnectedSum`: the
/// position sum and count of its connected beacons, in ascending id order.
/// `compute` fills them with `SurveyKernel::evaluate_lattice` (beacon-major:
/// each beacon scans only its own disk's bounding box), then runs the
/// scalar epilogue (centroid fallback, distance-to-truth) per point in
/// row-major order. Adding the beacon with the kernel's highest active id
/// extends each stored sum in its reach by one predicate test; the
/// canonical order sums that beacon last, so this is exact. Any other
/// addition (a re-activation) and every removal re-evaluate the disk's
/// bounding sub-grid. `mean_if_added` reads the stored sums and evaluates no
/// kernel. Every stored LE, sum and count is bit-identical to a full
/// recomputation's and to the per-point localizer (enforced by property
/// tests); the mean is maintained incrementally.
///
/// The map keeps no scratch buffers: const methods write nothing, so
/// concurrent const calls are safe, while mutating calls need a single
/// writer.
///
/// Each method has two forms: the `(field, model)` form snapshots a one-shot
/// kernel, and the `(field, kernel)` form takes a caller-held kernel so hot
/// loops (placement search, serving) amortize the snapshot. The kernel must
/// be a snapshot of `field` as it is now (taken after the change, for an
/// update), and an update assumes the map reflects the field and model as
/// they were just before the change.
#pragma once

#include <span>

#include "common/stats.h"
#include "field/beacon_field.h"
#include "geom/grid2d.h"
#include "geom/lattice.h"
#include "loc/survey_kernel.h"
#include "radio/propagation.h"

namespace abp {

class ErrorMap {
 public:
  explicit ErrorMap(const Lattice2D& lattice);

  const Lattice2D& lattice() const { return lattice_; }

  /// Full recomputation of LE (and connectivity counts) at every lattice
  /// point for the current field state.
  void compute(const BeaconField& field, const PropagationModel& model);
  void compute(const BeaconField& field, const SurveyKernel& kernel);

  /// Exact update after `beacon` has just been added to `field`.
  void apply_addition(const BeaconField& field, const PropagationModel& model,
                      const Beacon& beacon);
  void apply_addition(const BeaconField& field, const SurveyKernel& kernel,
                      const Beacon& beacon);

  /// Exact update after a beacon at `removed_pos` has just been removed
  /// from (or deactivated in) `field`.
  void apply_removal(const BeaconField& field, const PropagationModel& model,
                     Vec2 removed_pos);
  void apply_removal(const BeaconField& field, const SurveyKernel& kernel,
                     Vec2 removed_pos);

  /// Mean LE the map would have if a beacon were added at `pos` — computed
  /// without mutating the field or this map (greedy-oracle primitive).
  double mean_if_added(const BeaconField& field, const PropagationModel& model,
                       Vec2 pos) const;
  double mean_if_added(const BeaconField& field, const SurveyKernel& kernel,
                       Vec2 pos) const;

  /// LE value at a flat lattice index.
  double value(std::size_t flat) const { return err_[flat]; }
  /// Connected-beacon count at a flat lattice index.
  std::size_t connected(std::size_t flat) const { return conn_[flat]; }
  /// Position sum and count of the connected set at a flat lattice index.
  ConnectedSum connected_sum(std::size_t flat) const {
    return {{sum_x_[flat], sum_y_[flat]}, conn_[flat]};
  }

  std::span<const double> values() const { return err_.data(); }

  /// Mean LE over all lattice points (O(1); maintained incrementally).
  double mean() const;
  /// Median LE over all lattice points (O(PT)).
  double median() const;
  /// Full summary (mean/median/quantiles/min/max).
  Summary summary() const;

  /// Fraction of lattice points hearing no beacon.
  double uncovered_fraction() const;

 private:
  void set_value(std::size_t flat, double v);
  /// Re-evaluate the points within `reach` of `center` over the disk's
  /// bounding sub-grid, and refresh their LE.
  void recompute_disk(const SurveyKernel& kernel, Vec2 center, double reach,
                      Vec2 centroid);

  Lattice2D lattice_;
  Grid2D<double> err_;
  /// Each point's ConnectedSum, kept in step with the field.
  Grid2D<double> sum_x_;
  Grid2D<double> sum_y_;
  Grid2D<std::uint32_t> conn_;
  double sum_ = 0.0;
};

}  // namespace abp
