/// \file localizer.h
/// \brief Centroid localization (§2.2) and localization error.
///
/// A client estimates its position as the centroid of the positions of all
/// connected beacons:
///     (X_est, Y_est) = centroid{ (X_i, Y_i) : beacon i connected }.
/// Localization error is LE = ||(X_est,Y_est) − (X_a,Y_a)||.
///
/// When a client hears *no* beacon the paper leaves the estimate
/// unspecified; we use the centroid of the whole deployed field (≈ terrain
/// center), charging uncovered points a large-but-finite error. See the
/// interpretation table in DESIGN.md.
#pragma once

#include <optional>

#include "field/beacon_field.h"
#include "loc/survey_kernel.h"
#include "radio/propagation.h"

namespace abp {

/// Result of one localization attempt.
struct LocalizationResult {
  Vec2 estimate;
  std::size_t connected = 0;  ///< number of beacons heard
};

/// Live view over a field: observes every mutation. Internally the
/// localizer memoizes a `SurveyKernel` snapshot and rebuilds it whenever
/// `BeaconField::revision()` moves, so repeated queries against an
/// unchanged field pay the snapshot cost once. The cache makes the
/// localizer single-threaded per instance (like the field it watches);
/// concurrent readers each hold their own localizer or kernel.
class CentroidLocalizer {
 public:
  CentroidLocalizer(const BeaconField& field, const PropagationModel& model)
      : field_(&field), model_(&model) {}

  /// Estimate the position of a client whose true position is `point`.
  LocalizationResult localize(Vec2 point) const;

  /// Localization error LE at `point` (distance estimate ↔ truth).
  double error(Vec2 point) const {
    return distance(localize(point).estimate, point);
  }

  /// The memoized kernel for the field's current revision. Callers with
  /// many points per field state should evaluate them against this instead
  /// of looping `localize`: a `SurveyBatch` for arbitrary points, or
  /// `evaluate_lattice` for a lattice.
  const SurveyKernel& kernel() const;

  const BeaconField& field() const { return *field_; }
  const PropagationModel& model() const { return *model_; }

 private:
  const BeaconField* field_;
  const PropagationModel* model_;
  mutable std::optional<SurveyKernel> kernel_;
};

}  // namespace abp
