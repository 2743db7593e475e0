#include "robot/surveyor.h"

#include <algorithm>

namespace abp {

Surveyor::Surveyor(const BeaconField& field, const PropagationModel& model,
                   SurveyorConfig config)
    : localizer_(field, model), config_(config) {}

double Surveyor::measure_point(const Lattice2D& lattice, std::size_t flat,
                               Rng& rng) const {
  const Vec2 true_pos = lattice.point(flat);
  // The agent's radio observes connectivity at its *true* position; the
  // GPS fix only affects where it believes it is.
  const Vec2 estimate = localizer_.localize(true_pos).estimate;
  const Vec2 fix = config_.gps.fix(true_pos, rng);
  double reading = distance(estimate, fix);
  if (config_.measurement_noise > 0.0) {
    reading += rng.normal(0.0, config_.measurement_noise);
  }
  return std::max(0.0, reading);
}

SurveyData Surveyor::survey(const Lattice2D& lattice,
                            const std::vector<std::size_t>& tour,
                            Rng& rng) const {
  SurveyData data(lattice);
  for (std::size_t flat : tour) {
    data.record(flat, measure_point(lattice, flat, rng));
  }
  return data;
}

SurveyData Surveyor::survey_complete(const Lattice2D& lattice,
                                     Rng& rng) const {
  return survey(lattice, boustrophedon_tour(lattice), rng);
}

}  // namespace abp
