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

#include "field/beacon_field.h"
#include "loc/survey_kernel.h"
#include "radio/propagation.h"

namespace abp {

/// Result of one localization attempt.
struct LocalizationResult {
  Vec2 estimate;
  std::size_t connected = 0;  ///< number of beacons heard
};

/// Snapshot of a field: the survey kernel and the fallback centroid are
/// taken at construction, so queries pay the snapshot cost once and later
/// mutations of the field are not seen — build a new localizer after
/// changing it. The model must outlive the localizer. Immutable, so
/// concurrent const calls are safe.
class CentroidLocalizer {
 public:
  CentroidLocalizer(const BeaconField& field, const PropagationModel& model)
      : kernel_(field, model), fallback_(field.active_centroid()) {}

  /// Estimate the position of a client whose true position is `point`.
  LocalizationResult localize(Vec2 point) const;

  /// Localization error LE at `point` (distance estimate ↔ truth).
  double error(Vec2 point) const {
    return distance(localize(point).estimate, point);
  }

 private:
  SurveyKernel kernel_;
  Vec2 fallback_;  ///< the field's active centroid
};

}  // namespace abp
