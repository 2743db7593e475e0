#include "placement/grid_placement.h"

#include <cmath>

#include "common/assert.h"

namespace abp {

namespace {

using Range = Lattice2D::IndexRange;

/// Add lattice row `row_base` to each grid of one grid row (grid i covers
/// columns `cols[i]`), each grid's sum in column order. An unmeasured point
/// holds +0.0, and a sum that starts at +0.0 and adds values >= 0 keeps its
/// bits when +0.0 is added, so only `points` reads the mask: the sums equal
/// a scan over the measured points alone, without a branch per point.
void add_row(const SurveyData& survey, std::size_t row_base,
             const std::vector<Range>& cols,
             GridPlacement::GridScore* scores) {
  for (std::size_t i = 0; i < cols.size(); ++i) {
    double sum = scores[i].cumulative_error;
    std::size_t points = scores[i].points;
    for (std::size_t c = cols[i].begin; c < cols[i].end; ++c) {
      sum += survey.value(row_base + c);
      points += survey.measured(row_base + c);
    }
    scores[i].cumulative_error = sum;
    scores[i].points = points;
  }
}

}  // namespace

GridPlacement::GridPlacement(std::size_t num_grids, double grid_side_factor,
                             bool normalized)
    : num_grids_(num_grids), grid_side_factor_(grid_side_factor),
      normalized_(normalized) {
  per_axis_ = static_cast<std::size_t>(std::llround(
      std::sqrt(static_cast<double>(num_grids))));
  ABP_CHECK(per_axis_ * per_axis_ == num_grids_,
            "NG must be a perfect square");
  ABP_CHECK(per_axis_ >= 2, "need at least 2 grids per axis");
  ABP_CHECK(grid_side_factor > 0.0, "grid side factor must be positive");
}

std::vector<GridPlacement::GridScore> GridPlacement::scores(
    const PlacementContext& ctx) const {
  ABP_CHECK(ctx.survey != nullptr, "Grid requires survey data");
  ABP_CHECK(ctx.nominal_range > 0.0, "Grid requires the nominal range R");
  const SurveyData& survey = *ctx.survey;
  const Lattice2D& lattice = survey.lattice();
  const AABB& bounds = ctx.bounds;

  const double grid_side = grid_side_factor_ * ctx.nominal_range;
  ABP_CHECK(grid_side <= bounds.width() && grid_side <= bounds.height(),
            "gridSide = 2R exceeds the terrain — Grid is undefined");

  const double m = static_cast<double>(per_axis_);
  const double span_x = bounds.width() - grid_side;
  const double span_y = bounds.height() - grid_side;
  const double half = grid_side / 2.0;
  // Paper §3.2.3 step 3.2 (generalized to rectangle bounds), 0-based k:
  //   Xc = gridSide/2 + k(Side - gridSide)/(sqrt(NG) - 1).
  const auto center = [&](std::size_t i, std::size_t j) {
    return Vec2{
        bounds.lo.x + half + static_cast<double>(i) * span_x / (m - 1.0),
        bounds.lo.y + half + static_cast<double>(j) * span_y / (m - 1.0)};
  };

  // Box membership is separable: grid (i, j) covers the lattice points in
  // column range cols[i] × row range rows[j]. Grid (k, k) on the diagonal
  // carries both column k's and row k's range.
  std::vector<Range> cols(per_axis_);
  std::vector<Range> rows(per_axis_);
  for (std::size_t k = 0; k < per_axis_; ++k) {
    const Lattice2D::BoxRange r =
        lattice.box_range(AABB::centered(center(k, k), half, half));
    cols[k] = r.cols;
    rows[k] = r.rows;
  }

  // Each grid sums its own points in row-major order: bit for bit the
  // sums of a per-point scan of its box, added in the same order. Lattice
  // rows are the outer loop, so one pass over a row serves every grid of a
  // grid row and the grids' short add chains overlap.
  std::vector<GridScore> out(num_grids_);
  for (std::size_t j = 0; j < per_axis_; ++j) {
    GridScore* row_scores = &out[j * per_axis_];
    for (std::size_t i = 0; i < per_axis_; ++i) {
      row_scores[i].center = center(i, j);
    }
    for (std::size_t r = rows[j].begin; r < rows[j].end; ++r) {
      add_row(survey, r * lattice.nx(), cols, row_scores);
    }
  }
  return out;
}

Vec2 GridPlacement::propose(const PlacementContext& ctx, Rng&) const {
  const auto all = scores(ctx);
  ABP_CHECK(!all.empty(), "no candidate grids");
  const GridScore* best = &all.front();
  for (const auto& s : all) {
    if (s.score(normalized_) > best->score(normalized_)) best = &s;
  }
  return best->center;
}

}  // namespace abp
