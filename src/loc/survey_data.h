/// \file survey_data.h
/// \brief Measured localization-error data, as collected by the exploring
/// agent (§3: "based on its measurements of localization error at different
/// points in the region, it must compute good places to deploy additional
/// beacons").
///
/// Placement algorithms consume `SurveyData`, never the ground-truth
/// `ErrorMap` directly: in the paper's baseline setting the survey is
/// complete and noise-free (§3.1), in which case the two coincide
/// (`from_error_map`), but the survey-realism extension produces partial
/// tours and noisy readings through the same type.
#pragma once

#include "geom/grid2d.h"
#include "geom/lattice.h"
#include "loc/error_map.h"

namespace abp {

class SurveyData {
 public:
  explicit SurveyData(const Lattice2D& lattice);

  const Lattice2D& lattice() const { return lattice_; }

  /// Record a measurement at a lattice point (overwrites any previous one).
  void record(std::size_t flat, double measured_error);

  bool measured(std::size_t flat) const { return mask_[flat] != 0; }
  /// The recorded error; +0.0 at every unmeasured point.
  double value(std::size_t flat) const { return values_[flat]; }

  std::size_t measured_count() const { return measured_count_; }
  /// Fraction of lattice points with a measurement.
  double coverage() const;

  /// Mean / median of measured values (0 if nothing measured).
  double mean() const;
  double median() const;

  /// Merge another survey over the same lattice: `other`'s measurements
  /// overwrite this survey's at points both visited (later data wins —
  /// the convention for successive tours). Lattice geometry must match.
  void merge(const SurveyData& other);

  /// Zero out measured values within `radius` of `center` (points stay
  /// marked as measured). Used by one-shot batch placement to suppress the
  /// neighbourhood of an already-chosen candidate so the next proposal
  /// targets a different hot spot.
  void suppress_disk(Vec2 center, double radius);

  /// Complete, noise-free survey — the paper's §3.1 baseline assumption.
  static SurveyData from_error_map(const ErrorMap& map);

 private:
  Lattice2D lattice_;
  Grid2D<double> values_;
  Grid2D<std::uint8_t> mask_;
  std::size_t measured_count_ = 0;
  double sum_ = 0.0;
};

}  // namespace abp
