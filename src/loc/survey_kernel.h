/// \file survey_kernel.h
/// \brief Batched point-evaluation kernel: the compute core of every survey.
///
/// The O(PT) lattice survey — per-point centroid-of-connected-beacons under
/// the (noisy) disk model — sits under every `serve/` query, every
/// `ErrorMap` recompute, and every placement decision. This header makes
/// the *batch* the unit of optimization: one `SurveyKernel` call fuses the
/// disk query, the noisy-disk connectivity test, and the centroid
/// accumulation over a SoA snapshot of the field (`BeaconSoA`) for a whole
/// `SurveyBatch` (structure-of-arrays point coordinates) or lattice
/// sub-grid.
///
/// Three paths implement the same contract, each chosen by the input's
/// type and never by a setting:
///  * `evaluate(batch)` — arbitrary point batches, through a chunked loop
///    with a per-chunk beacon prefilter, in plain C++;
///  * `evaluate_lattice` — lattice sub-grids, beacon-major: each beacon
///    visits only the lattice points in its own certain-out disk's
///    bounding box;
///  * `evaluate_point` — one point at a time, the scalar reference the
///    property suite holds the other two to.
///
/// Determinism contract (the reason the paths can be property-tested for
/// bit-equality): every path visits beacons in ascending id order and
/// accumulates each point's position sum in that order with plain IEEE
/// mul/add (no build enables an FMA ISA, so nothing contracts), and the
/// noisy-disk draws reuse `stable_hash64` exactly, with the four
/// beacon-constant words pre-absorbed per beacon (rng/hash.h). Results are
/// therefore bit-identical across paths, and bit-identical to the
/// historical scalar `connected_sum`.
///
/// The batch and lattice paths hash fewer pairs than the scalar one, with
/// the same answers: a pair is certain whenever its distance lies outside
/// the beacon's *own* band [R(1−nf), R(1+nf)] (not only the global
/// [R(1−Noise), R(1+Noise)]), and the point half of the two per-point
/// hash rounds is premixed once per point. `evaluate_point` keeps the
/// original form (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "field/beacon_soa.h"
#include "geom/lattice.h"
#include "geom/vec2.h"
#include "radio/propagation.h"

namespace abp {

/// Position sum and count of the connected set, accumulated in ascending
/// beacon-id order. The canonical order makes the floating-point sum — and
/// therefore every centroid estimate and error map — independent of spatial
/// index iteration order, so incremental updates are bit-identical to full
/// recomputation.
struct ConnectedSum {
  Vec2 sum;
  std::size_t count = 0;
};

/// A batch of survey points in structure-of-arrays form. Inputs are the
/// point coordinates; after `SurveyKernel::evaluate`, `sum_x/sum_y/counts`
/// hold each point's `ConnectedSum`. Reusable: `clear()` keeps capacity.
struct SurveyBatch {
  std::vector<double> xs, ys;           ///< inputs
  std::vector<double> sum_x, sum_y;     ///< outputs (position sums)
  std::vector<std::uint32_t> counts;    ///< outputs (connected counts)

  std::size_t size() const { return xs.size(); }
  bool empty() const { return xs.empty(); }

  void clear() {
    xs.clear();
    ys.clear();
  }
  void reserve(std::size_t n) {
    xs.reserve(n);
    ys.reserve(n);
  }
  void push(Vec2 p) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }

  Vec2 point(std::size_t i) const { return {xs[i], ys[i]}; }
  ConnectedSum result(std::size_t i) const {
    return {{sum_x[i], sum_y[i]}, counts[i]};
  }
};

/// Immutable evaluator binding a `BeaconSoA` snapshot to a propagation
/// model. For `PerBeaconNoiseModel`/`IdealDiskModel` the connectivity test
/// runs on precomputed per-beacon constants (noise factor, memoized hash
/// prefix, certain-in/out radii); any other model falls back to the
/// virtual `PropagationModel::connected` per (point, beacon) — still
/// batched, still ascending-id, still bit-identical to the scalar API.
///
/// The kernel snapshots the field at construction and does not observe
/// later mutations: after changing the field, build a new kernel. It holds
/// the model by pointer, so the model must outlive it. Immutable, so
/// concurrent const calls are safe.
class SurveyKernel {
 public:
  SurveyKernel(const BeaconField& field, const PropagationModel& model);

  /// Evaluate every point in `batch`.
  void evaluate(SurveyBatch& batch) const;

  /// Evaluate the lattice sub-grid `cols × rows` (points
  /// `Lattice2D::point(i, j)`), beacon-major. Point (i, j)'s sum and count
  /// land at the row-major offset `(j − rows.begin)·|cols| + (i − cols.begin)`
  /// of the three outputs, each at least |cols|·|rows| long. The same bits
  /// `evaluate` gives on those points.
  void evaluate_lattice(const Lattice2D& lattice, Lattice2D::IndexRange cols,
                        Lattice2D::IndexRange rows, std::span<double> sum_x,
                        std::span<double> sum_y,
                        std::span<std::uint32_t> counts) const;

  /// Single-point evaluation (the scalar reference, no allocation).
  ConnectedSum evaluate_point(Vec2 p) const;

  /// Does the beacon at SoA index `b` connect to `p`? The predicate every
  /// path applies to that pair.
  bool beacon_connected(std::size_t b, Vec2 p) const;

  /// Connected beacons at `p`, ascending id (batched `connected_beacons`).
  std::vector<Beacon> connected_list(Vec2 p) const;

  /// Hypothetical extra beacon at a position (greedy-oracle primitive):
  /// same predicate a real beacon at `pos` would have — noise draws key on
  /// position, never id — with the per-beacon constants precomputed once.
  struct Hypothetical {
    Vec2 pos;
    double nf = 0.0;             // noise factor (fast path)
    std::uint64_t prefix = 0;    // u-draw hash prefix (fast path)
  };
  Hypothetical make_hypothetical(Vec2 pos) const;
  bool hypothetical_connected(const Hypothetical& h, Vec2 p) const;

  const BeaconSoA& soa() const { return soa_; }
  const PropagationModel& model() const { return *model_; }
  /// True when the model hit the precomputed (non-virtual) fast path.
  bool fast_path() const { return fast_.has_value(); }

 private:
  struct FastPath {
    double range = 0.0;  // nominal R
    double in2 = 0.0;    // squared certain-in radius, R(1 - Noise)
    double out2 = 0.0;   // squared certain-out radius, R(1 + Noise)
    bool band = false;   // noise > 0: uncertainty band needs hash draws
    std::vector<double> nf;              // per-beacon noise factor
    std::vector<std::uint64_t> prefix;   // per-beacon u-draw hash prefix
    // Per-beacon squared certain-in/out radii, R(1 - nf) and R(1 + nf):
    // the batch and lattice paths' band is each beacon's own, inside the
    // global one.
    std::vector<double> beacon_in2;
    std::vector<double> beacon_out2;
  };

  ConnectedSum point_fast(Vec2 p) const;
  ConnectedSum point_fallback(Vec2 p) const;

  BeaconSoA soa_;
  const PropagationModel* model_;
  std::optional<FastPath> fast_;
};

}  // namespace abp
