/// \file grid_placement.h
/// \brief The Grid algorithm (§3.2.3): cumulative error over overlapping
/// grids.
///
/// The terrain is divided into NG partially-overlapping square grids of
/// side gridSide = 2R ("each grid encloses the radio reachability region of
/// its center"). With m = √NG grids per axis, grid (i,j) for 1 ≤ i,j ≤ m is
/// centered at
///     Xc(i,j) = gridSide/2 + (i−1)·(Side − gridSide)/(m − 1),
/// and likewise for Yc — centers span [R, Side−R] uniformly. For each grid
/// the *cumulative* measured localization error over the lattice points it
/// contains is computed; the new beacon goes to the center of the grid with
/// the maximum cumulative error. "Based on the observation that adding a
/// new beacon affects its nearby area, not just the point where it is
/// placed" — which is why Grid, unlike Max, can improve many points at
/// once.
///
/// Complexity O(NG · PG): every grid still sums each of its ~PG points.
/// Box membership is separable — grid (i, j) covers a column range fixed by
/// i times a row range fixed by j (`Lattice2D::box_range`) — so the 2·√NG
/// ranges are computed once and each grid sums flat indices in row-major
/// order: bit for bit the sums of a per-point scan, added in the same order.
#pragma once

#include <vector>

#include "placement/placement.h"

namespace abp {

class GridPlacement final : public PlacementAlgorithm {
 public:
  /// `num_grids` is the paper's NG (default 400); must be a perfect square
  /// with at least 2 grids per axis. `grid_side_factor` scales the grid
  /// side relative to R (paper: 2).
  ///
  /// `normalized` switches the grid score from the paper's *cumulative*
  /// error to the *mean* error over the grid's measured points. The
  /// cumulative form implicitly assumes uniform measurement density — a
  /// survey that concentrates measurements (e.g. the adaptive explorer)
  /// inflates the score of heavily-sampled grids regardless of how bad
  /// they are. Normalization removes that bias (see
  /// bench_ablation_explorer); the paper's algorithm is the default.
  explicit GridPlacement(std::size_t num_grids = 400,
                         double grid_side_factor = 2.0,
                         bool normalized = false);

  std::string name() const override {
    return normalized_ ? "grid-norm" : "grid";
  }
  Vec2 propose(const PlacementContext& ctx, Rng& rng) const override;

  /// One candidate grid's center and cumulative error (exposed for tests
  /// and diagnostics).
  struct GridScore {
    Vec2 center;
    double cumulative_error = 0.0;
    std::size_t points = 0;  ///< measured points in this grid (≈ paper PG)

    /// The score `propose` ranks by: cumulative (paper) or mean.
    double score(bool normalized) const {
      if (!normalized) return cumulative_error;
      return points == 0 ? 0.0
                         : cumulative_error / static_cast<double>(points);
    }
  };

  /// Scores of all NG grids, row-major in (i, j).
  std::vector<GridScore> scores(const PlacementContext& ctx) const;

  std::size_t num_grids() const { return num_grids_; }
  std::size_t grids_per_axis() const { return per_axis_; }

 private:
  std::size_t num_grids_;
  std::size_t per_axis_;
  double grid_side_factor_;
  bool normalized_;
};

}  // namespace abp
