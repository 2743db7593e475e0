/// \file surveyor.h
/// \brief The exploring agent: walks a tour, measures localization error at
/// each visited point, and produces the `SurveyData` placement algorithms
/// consume (§3).
///
/// At each tour point the agent (1) obtains a GPS fix of its true position,
/// (2) runs the client localization algorithm with its sensor-class radio,
/// and (3) records |estimate − fix| — which equals the true LE only when
/// GPS is ideal. Optional additive measurement noise models radio
/// non-determinism the §3.1 baseline abstracts away. With the default
/// configuration (full tour, ideal GPS, zero noise) the survey equals the
/// ground-truth error map exactly; tests enforce that equivalence.
#pragma once

#include "field/beacon_field.h"
#include "loc/localizer.h"
#include "loc/survey_data.h"
#include "radio/propagation.h"
#include "robot/gps.h"
#include "robot/tour.h"
#include "rng/rng.h"

namespace abp {

struct SurveyorConfig {
  GpsModel gps{0.0};
  /// Std-dev of additive zero-mean Gaussian noise on each LE reading
  /// (meters); readings are clamped at 0.
  double measurement_noise = 0.0;
};

class Surveyor {
 public:
  /// Snapshots `field`; `model` must outlive the surveyor.
  Surveyor(const BeaconField& field, const PropagationModel& model,
           SurveyorConfig config = {});

  /// One measurement at a lattice point: localize with the sensor radio at
  /// the true position, difference against the GPS fix, add instrument
  /// noise. This is the primitive online explorers build on.
  double measure_point(const Lattice2D& lattice, std::size_t flat,
                       Rng& rng) const;

  /// Walk `tour` (flat lattice indices) and record one measurement per
  /// visited point. Later visits to the same point overwrite earlier ones.
  SurveyData survey(const Lattice2D& lattice,
                    const std::vector<std::size_t>& tour, Rng& rng) const;

  /// Convenience: complete boustrophedon survey (the §3.1 baseline).
  SurveyData survey_complete(const Lattice2D& lattice, Rng& rng) const;

 private:
  /// Snapshots the field at construction and is reused across
  /// measurements, so build the surveyor once the field is deployed: no
  /// tour (the adaptive explorer's included) mutates it.
  CentroidLocalizer localizer_;
  SurveyorConfig config_;
};

}  // namespace abp
