#include "placement/coverage_placement.h"

#include <vector>

#include "common/assert.h"
#include "loc/connectivity.h"

namespace abp {

CoveragePlacement::CoveragePlacement(std::size_t stride) : stride_(stride) {
  ABP_CHECK(stride >= 1, "stride must be at least 1");
}

Vec2 CoveragePlacement::propose(const PlacementContext& ctx, Rng&) const {
  ABP_CHECK(ctx.field != nullptr && ctx.model != nullptr,
            "coverage placement requires field and model");
  ABP_CHECK(ctx.survey != nullptr, "coverage placement requires the lattice");
  ABP_CHECK(ctx.nominal_range > 0.0, "coverage placement requires R");
  const Lattice2D& lattice = ctx.survey->lattice();

  // Precompute which lattice points are currently uncovered: one lattice
  // sweep, whose row-major offsets over the full lattice are flat indices.
  const SurveyKernel kernel(*ctx.field, *ctx.model);
  std::vector<double> sum_x(lattice.size()), sum_y(lattice.size());
  std::vector<std::uint32_t> counts(lattice.size());
  kernel.evaluate_lattice(lattice, {0, lattice.nx()}, {0, lattice.ny()},
                          sum_x, sum_y, counts);
  std::vector<std::uint8_t> uncovered(lattice.size(), 0);
  for (std::size_t flat = 0; flat < lattice.size(); ++flat) {
    uncovered[flat] = counts[flat] == 0;
  }

  std::size_t best_gain = 0;
  Vec2 best_pos = lattice.point(0);
  bool first = true;
  for (std::size_t j = 0; j < lattice.ny(); j += stride_) {
    for (std::size_t i = 0; i < lattice.nx(); i += stride_) {
      const Vec2 candidate = lattice.point(i, j);
      std::size_t gain = 0;
      lattice.for_each_in_disk(candidate, ctx.nominal_range,
                               [&](std::size_t flat, Vec2) {
                                 gain += uncovered[flat];
                               });
      if (first || gain > best_gain) {
        best_gain = gain;
        best_pos = candidate;
        first = false;
      }
    }
  }
  return best_pos;
}

}  // namespace abp
