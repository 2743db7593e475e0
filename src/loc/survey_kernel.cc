#include "loc/survey_kernel.h"

#include <algorithm>
#include <limits>

#include "common/assert.h"
#include "radio/noise_model.h"
#include "rng/hash.h"

namespace abp {

namespace {

/// Points per chunk of `evaluate`: one beacon prefilter per chunk.
constexpr std::size_t kChunk = 32;
/// Slack added to the prefilter reach so floating-point rounding of the
/// chunk bounding box can never exclude a beacon that the exact predicate
/// would accept (rounding error is ~1e-13 m at terrain scale; the slack is
/// seven orders of magnitude larger and still negligible for culling).
constexpr double kReachSlack = 1.0e-6;

/// View of the fast-path model constants and beacon SoA.
struct FastView {
  const double* bx = nullptr;           ///< beacon x, ascending id
  const double* by = nullptr;           ///< beacon y, ascending id
  const double* nf = nullptr;           ///< per-beacon noise factor
  const std::uint64_t* prefix = nullptr;///< per-beacon u-draw hash prefix
  double range = 0.0;                   ///< nominal R
  double in2 = 0.0;                     ///< squared certain-in radius
  double out2 = 0.0;                    ///< squared certain-out radius
  bool band = false;                    ///< noise > 0
  const double* beacon_in2 = nullptr;   ///< per-beacon (R(1-nf))^2
  const double* beacon_out2 = nullptr;  ///< per-beacon (R(1+nf))^2
};

/// Resume the u-draw hash from a beacon's memoized 4-word prefix with the
/// two quantized point words (rounds 5 and 6 of the 6-word hash) — equal to
/// PerBeaconNoiseModel::u_draw bit-for-bit by the sponge identity in
/// rng/hash.h.
[[gnu::always_inline]] inline double resume_u_draw(
    std::uint64_t prefix, std::uint64_t pxq, std::uint64_t pyq) {
  std::uint64_t s = stable_hash64_absorb(prefix, pxq, 5);
  s = stable_hash64_absorb(s, pyq, 6);
  return hash_to_symmetric(stable_hash64_finalize(s, 6));
}

/// Uncertainty-band connectivity test for beacon index `b`: identical op
/// sequence to PerBeaconNoiseModel::effective_range + the d2 <= r*r check.
[[gnu::always_inline]] inline bool band_connected(
    const FastView& m, std::size_t b, double d2, std::uint64_t pxq,
    std::uint64_t pyq) {
  const double u = resume_u_draw(m.prefix[b], pxq, pyq);
  const double r = m.range * (1.0 + u * m.nf[b]);
  return d2 <= r * r;
}

/// The point half of one absorb round. `stable_hash64_absorb(s, w, r)` is
/// `mix(s ^ mix(w + r·K))`, and the inner mix depends on the point word
/// and round alone, so the batch and lattice paths premix each point's two
/// quantized words (rounds 5 and 6) once instead of once per (point,
/// beacon) pair.
[[gnu::always_inline]] inline std::uint64_t premix_point_word(
    std::uint64_t word, std::uint64_t round) {
  return splitmix64_mix(word + round * kStableHashRound);
}

/// The first of the three mixes left once the point words are premixed:
/// the beacon prefix with the x word (round 5). It depends on the beacon
/// and the column alone, so the lattice path takes it once per pair.
[[gnu::always_inline]] inline std::uint64_t premix_column(
    std::uint64_t prefix, std::uint64_t pxw) {
  return splitmix64_mix(prefix ^ pxw);
}

/// `band_connected` from a beacon's `premix_column` word `s1` and the
/// premixed y word (round 6): the last two mixes, the draw and the range
/// test, in PerBeaconNoiseModel's op sequence.
[[gnu::always_inline]] inline bool band_connected_column(
    const FastView& m, std::size_t b, double d2, std::uint64_t s1,
    std::uint64_t pyw) {
  const std::uint64_t s = splitmix64_mix(s1 ^ pyw);
  const double u = hash_to_symmetric(stable_hash64_finalize(s, 6));
  const double r = m.range * (1.0 + u * m.nf[b]);
  return d2 <= r * r;
}

/// `band_connected` from premixed point words (the batch path's form):
/// three mixes instead of five, the same bits by the identity above.
[[gnu::always_inline]] inline bool band_connected_premixed(
    const FastView& m, std::size_t b, double d2, std::uint64_t pxw,
    std::uint64_t pyw) {
  return band_connected_column(m, b, d2, premix_column(m.prefix[b], pxw),
                               pyw);
}

/// One chunk of `evaluate`: accumulate every candidate beacon (indices
/// into the SoA, ascending) into the chunk's `n` points. Connectivity is
/// certain inside a beacon's own `beacon_in2` and impossible past its
/// `beacon_out2`; only pairs in between hash, from the premixed point words
/// `pxw`/`pyw`. sx/sy/cnt are the chunk-local accumulators, zeroed by the
/// caller. Plain C++: the compiler vectorizes the distance test where
/// profitable, and correctness never depends on it.
void eval_chunk(const FastView& m, const std::uint32_t* cand,
                std::size_t ncand, const double* px, const double* py,
                const std::uint64_t* pxw, const std::uint64_t* pyw,
                std::size_t n, double* sx, double* sy, std::uint64_t* cnt) {
  for (std::size_t k = 0; k < ncand; ++k) {
    const std::uint32_t b = cand[k];
    const double bx = m.bx[b];
    const double by = m.by[b];
    const double in2 = m.beacon_in2[b];
    const double out2 = m.beacon_out2[b];
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = bx - px[i];
      const double dy = by - py[i];
      const double d2 = dx * dx + dy * dy;
      bool conn = d2 <= in2;
      if (!conn && m.band && d2 <= out2) {
        conn = band_connected_premixed(m, b, d2, pxw[i], pyw[i]);
      }
      if (conn) {
        sx[i] += bx;
        sy[i] += by;
        ++cnt[i];
      }
    }
  }
}

std::uint64_t quantize_word(double v) {
  return static_cast<std::uint64_t>(quantize_cm(v));
}

using IndexRange = Lattice2D::IndexRange;

/// A lattice sub-grid being evaluated: its ordinates, exactly as
/// `Lattice2D::point(i, j)` computes them, and its row-major outputs.
struct LatticeGrid {
  IndexRange cols;         ///< lattice columns of the sub-grid
  IndexRange rows;         ///< lattice rows of the sub-grid
  std::vector<double> px;  ///< x of each column, ascending
  std::vector<double> py;  ///< y of each row, ascending
  double* sx = nullptr;
  double* sy = nullptr;
  std::uint32_t* cnt = nullptr;
};

/// Lattice range `r` clipped to the sub-grid range `sub`, as offsets into it.
IndexRange clip(IndexRange r, IndexRange sub) {
  const std::size_t begin = std::clamp(r.begin, sub.begin, sub.end);
  const std::size_t end = std::clamp(r.end, begin, sub.end);
  return {begin - sub.begin, end - sub.begin};
}

/// Fast-path lattice evaluation, beacon-major. Each beacon scans the part of
/// its certain-out disk's bounding sub-grid (`Lattice2D::disk_range` at its
/// own R(1 + nf), whose square is `out2`) that lies in the sub-grid, with
/// the batch path's per-point tests: `d² <= in2` connects, `d² > out2` does
/// not, and the band between hashes from `s1 = premix_column(prefix, pxw)`,
/// taken once per (beacon, column). A band point adds `take·b` with
/// `take = double(conn)` rather than branch on the draw: adding ±0.0 leaves
/// a sum that is never −0.0 unchanged.
void lattice_fast(const FastView& m, std::size_t nb, const Lattice2D& lattice,
                  const LatticeGrid& g) {
  const std::size_t nc = g.px.size();
  std::vector<std::uint64_t> pxw, pyw, s1;
  if (m.band) {
    pxw.resize(nc);
    s1.resize(nc);
    pyw.resize(g.py.size());
    // The point words enter the u-draw hash at rounds 5 and 6.
    for (std::size_t k = 0; k < nc; ++k) {
      pxw[k] = premix_point_word(quantize_word(g.px[k]), 5);
    }
    for (std::size_t r = 0; r < g.py.size(); ++r) {
      pyw[r] = premix_point_word(quantize_word(g.py[r]), 6);
    }
  }
  for (std::size_t b = 0; b < nb; ++b) {
    const double bx = m.bx[b];
    const double by = m.by[b];
    const double in2 = m.beacon_in2[b];
    const double out2 = m.beacon_out2[b];
    const bool band = in2 != out2;
    ABP_DCHECK(!band || m.band, "a band needs noise");
    // The constructor's R(1 + nf): `out2` is its square.
    const double reach = m.range * (1.0 + (m.band ? m.nf[b] : 0.0));
    const Lattice2D::BoxRange box = lattice.disk_range({bx, by}, reach);
    const IndexRange cols = clip(box.cols, g.cols);
    const IndexRange rows = clip(box.rows, g.rows);
    if (band) {
      for (std::size_t k = cols.begin; k < cols.end; ++k) {
        s1[k] = premix_column(m.prefix[b], pxw[k]);
      }
    }
    for (std::size_t r = rows.begin; r < rows.end; ++r) {
      const double dy = by - g.py[r];
      const double dy2 = dy * dy;
      double* sx = g.sx + r * nc;
      double* sy = g.sy + r * nc;
      std::uint32_t* cnt = g.cnt + r * nc;
      for (std::size_t k = cols.begin; k < cols.end; ++k) {
        const double dx = bx - g.px[k];
        const double d2 = dx * dx + dy2;
        if (d2 <= in2) {
          sx[k] += bx;
          sy[k] += by;
          ++cnt[k];
        } else if (band && d2 <= out2) {
          const bool conn =
              band_connected_column(m, b, d2, s1[k], pyw[r]);
          const double take = conn;
          sx[k] += take * bx;
          sy[k] += take * by;
          cnt[k] += conn;
        }
      }
    }
  }
}

}  // namespace

SurveyKernel::SurveyKernel(const BeaconField& field,
                           const PropagationModel& model)
    : soa_(BeaconSoA::snapshot(field)), model_(&model) {
  if (const auto* noisy = dynamic_cast<const PerBeaconNoiseModel*>(&model)) {
    FastPath f;
    f.range = noisy->nominal_range();
    const double noise = noisy->noise_max();
    // Same products the scalar predicate computes per call, evaluated once.
    const double cin = f.range * (1.0 - noise);
    const double cout = f.range * (1.0 + noise);
    f.in2 = cin * cin;
    f.out2 = cout * cout;
    f.band = noise > 0.0;
    if (f.band) {
      f.nf.reserve(soa_.size());
      f.prefix.reserve(soa_.size());
      f.beacon_in2.reserve(soa_.size());
      f.beacon_out2.reserve(soa_.size());
      for (std::size_t i = 0; i < soa_.size(); ++i) {
        const Beacon b = soa_.beacon(i);
        const double nf = noisy->noise_factor(b);
        f.nf.push_back(nf);
        f.prefix.push_back(noisy->u_draw_prefix(b));
        // u ∈ [-1, 1) bounds the draw's range between these two products,
        // and IEEE rounding is monotone, so the computed R(1 + u·nf) never
        // leaves [bin, bout]: outside this band the draw cannot matter.
        const double bin = f.range * (1.0 - nf);
        const double bout = f.range * (1.0 + nf);
        f.beacon_in2.push_back(bin * bin);
        f.beacon_out2.push_back(bout * bout);
      }
    }
    fast_ = std::move(f);
  } else if (const auto* ideal = dynamic_cast<const IdealDiskModel*>(&model)) {
    FastPath f;
    f.range = ideal->nominal_range();
    f.in2 = f.out2 = f.range * f.range;
    f.band = false;
    fast_ = std::move(f);
  }
  if (fast_ && !fast_->band) {
    // No band: every beacon's radii are the global ones.
    fast_->beacon_in2.assign(soa_.size(), fast_->in2);
    fast_->beacon_out2.assign(soa_.size(), fast_->out2);
  }
}

ConnectedSum SurveyKernel::point_fast(Vec2 p) const {
  const FastPath& f = *fast_;
  FastView m{soa_.xs.data(), soa_.ys.data(),  f.nf.data(), f.prefix.data(),
             f.range,        f.in2,           f.out2,      f.band};
  std::uint64_t pxq = 0;
  std::uint64_t pyq = 0;
  if (f.band) {
    pxq = quantize_word(p.x);
    pyq = quantize_word(p.y);
  }
  ConnectedSum out;
  for (std::size_t b = 0; b < soa_.size(); ++b) {
    const double dx = m.bx[b] - p.x;
    const double dy = m.by[b] - p.y;
    const double d2 = dx * dx + dy * dy;
    bool conn = d2 <= m.in2;
    if (!conn && m.band && d2 <= m.out2) {
      conn = band_connected(m, b, d2, pxq, pyq);
    }
    if (conn) {
      out.sum += Vec2{m.bx[b], m.by[b]};
      ++out.count;
    }
  }
  return out;
}

ConnectedSum SurveyKernel::point_fallback(Vec2 p) const {
  // Same cull the spatial index performed (distance <= max_range), then the
  // model's own predicate — beacons beyond max_range can never connect by
  // the PropagationModel contract.
  const double r = model_->max_range();
  const double r2 = r * r;
  ConnectedSum out;
  for (std::size_t b = 0; b < soa_.size(); ++b) {
    const double dx = soa_.xs[b] - p.x;
    const double dy = soa_.ys[b] - p.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 > r2) continue;
    if (model_->connected(soa_.beacon(b), p)) {
      out.sum += Vec2{soa_.xs[b], soa_.ys[b]};
      ++out.count;
    }
  }
  return out;
}

ConnectedSum SurveyKernel::evaluate_point(Vec2 p) const {
  return fast_ ? point_fast(p) : point_fallback(p);
}

bool SurveyKernel::beacon_connected(std::size_t b, Vec2 p) const {
  const double dx = soa_.xs[b] - p.x;
  const double dy = soa_.ys[b] - p.y;
  const double d2 = dx * dx + dy * dy;
  if (!fast_) {
    const double r = model_->max_range();
    return d2 <= r * r && model_->connected(soa_.beacon(b), p);
  }
  const FastPath& f = *fast_;
  if (d2 <= f.beacon_in2[b]) return true;
  if (d2 > f.beacon_out2[b]) return false;
  const FastView m{soa_.xs.data(), soa_.ys.data(), f.nf.data(),
                   f.prefix.data(), f.range,       f.in2,
                   f.out2,          f.band};
  return band_connected(m, b, d2, quantize_word(p.x),
                                       quantize_word(p.y));
}

std::vector<Beacon> SurveyKernel::connected_list(Vec2 p) const {
  std::vector<Beacon> out;
  for (std::size_t b = 0; b < soa_.size(); ++b) {
    if (beacon_connected(b, p)) out.push_back(soa_.beacon(b));
  }
  return out;
}

SurveyKernel::Hypothetical SurveyKernel::make_hypothetical(Vec2 pos) const {
  Hypothetical h;
  h.pos = pos;
  if (fast_ && fast_->band) {
    const auto* noisy = dynamic_cast<const PerBeaconNoiseModel*>(model_);
    const Beacon hb{std::numeric_limits<BeaconId>::max(), pos, true};
    h.nf = noisy->noise_factor(hb);
    h.prefix = noisy->u_draw_prefix(hb);
  }
  return h;
}

bool SurveyKernel::hypothetical_connected(const Hypothetical& h,
                                          Vec2 p) const {
  if (!fast_) {
    const Beacon hb{std::numeric_limits<BeaconId>::max(), h.pos, true};
    return model_->connected(hb, p);
  }
  const double dx = h.pos.x - p.x;
  const double dy = h.pos.y - p.y;
  const double d2 = dx * dx + dy * dy;
  if (d2 <= fast_->in2) return true;
  if (!fast_->band || d2 > fast_->out2) return false;
  const double u = resume_u_draw(h.prefix, quantize_word(p.x),
                                                quantize_word(p.y));
  const double r = fast_->range * (1.0 + u * h.nf);
  return d2 <= r * r;
}

void SurveyKernel::evaluate_lattice(const Lattice2D& lattice,
                                    Lattice2D::IndexRange cols,
                                    Lattice2D::IndexRange rows,
                                    std::span<double> sum_x,
                                    std::span<double> sum_y,
                                    std::span<std::uint32_t> counts) const {
  ABP_CHECK(cols.begin <= cols.end && cols.end <= lattice.nx() &&
                rows.begin <= rows.end && rows.end <= lattice.ny(),
            "lattice sub-grid out of range");
  const std::size_t n = cols.size() * rows.size();
  ABP_CHECK(sum_x.size() >= n && sum_y.size() >= n && counts.size() >= n,
            "lattice outputs smaller than the sub-grid");
  std::fill_n(sum_x.begin(), n, 0.0);
  std::fill_n(sum_y.begin(), n, 0.0);
  std::fill_n(counts.begin(), n, 0u);
  if (n == 0 || soa_.empty()) return;
  if (!fast_) {
    // No fast path: the per-point oracle, row-major.
    std::size_t o = 0;
    for (std::size_t j = rows.begin; j < rows.end; ++j) {
      for (std::size_t i = cols.begin; i < cols.end; ++i, ++o) {
        const ConnectedSum cs = point_fallback(lattice.point(i, j));
        sum_x[o] = cs.sum.x;
        sum_y[o] = cs.sum.y;
        counts[o] = static_cast<std::uint32_t>(cs.count);
      }
    }
    return;
  }

  LatticeGrid g;
  g.cols = cols;
  g.rows = rows;
  g.sx = sum_x.data();
  g.sy = sum_y.data();
  g.cnt = counts.data();
  for (std::size_t i = cols.begin; i < cols.end; ++i) {
    g.px.push_back(lattice.point(i, rows.begin).x);
  }
  for (std::size_t j = rows.begin; j < rows.end; ++j) {
    g.py.push_back(lattice.point(cols.begin, j).y);
  }
  const FastPath& f = *fast_;
  const FastView view{soa_.xs.data(),      soa_.ys.data(),
                      f.nf.data(),         f.prefix.data(),
                      f.range,             f.in2,
                      f.out2,              f.band,
                      f.beacon_in2.data(), f.beacon_out2.data()};
  lattice_fast(view, soa_.size(), lattice, g);
}

void SurveyKernel::evaluate(SurveyBatch& batch) const {
  const std::size_t n = batch.size();
  batch.sum_x.assign(n, 0.0);
  batch.sum_y.assign(n, 0.0);
  batch.counts.assign(n, 0);
  if (n == 0 || soa_.empty()) return;
  if (!fast_) {
    for (std::size_t i = 0; i < n; ++i) {
      const ConnectedSum cs = point_fallback(batch.point(i));
      batch.sum_x[i] = cs.sum.x;
      batch.sum_y[i] = cs.sum.y;
      batch.counts[i] = static_cast<std::uint32_t>(cs.count);
    }
    return;
  }

  const FastPath& f = *fast_;
  const FastView view{soa_.xs.data(),      soa_.ys.data(),
                      f.nf.data(),         f.prefix.data(),
                      f.range,             f.in2,
                      f.out2,              f.band,
                      f.beacon_in2.data(), f.beacon_out2.data()};
  const double reach = model_->max_range() + kReachSlack;

  std::vector<std::uint32_t> cand;
  cand.reserve(soa_.size());

  double px[kChunk];
  double py[kChunk];
  double sx[kChunk];
  double sy[kChunk];
  std::uint64_t pxw[kChunk];
  std::uint64_t pyw[kChunk];
  std::uint64_t cnt[kChunk];

  for (std::size_t start = 0; start < n; start += kChunk) {
    const std::size_t m = std::min(kChunk, n - start);

    double minx = std::numeric_limits<double>::infinity();
    double maxx = -minx;
    double miny = minx;
    double maxy = -minx;
    for (std::size_t i = 0; i < m; ++i) {
      px[i] = batch.xs[start + i];
      py[i] = batch.ys[start + i];
      minx = std::min(minx, px[i]);
      maxx = std::max(maxx, px[i]);
      miny = std::min(miny, py[i]);
      maxy = std::max(maxy, py[i]);
    }
    if (f.band) {
      // The point words enter the u-draw hash at rounds 5 and 6.
      for (std::size_t i = 0; i < m; ++i) {
        pxw[i] = premix_point_word(quantize_word(px[i]), 5);
        pyw[i] = premix_point_word(quantize_word(py[i]), 6);
      }
    }

    // Chunk-level disk query: beacons outside the reach-expanded bounding box
    // cannot connect to any point of the chunk (reach includes slack so
    // rounding can never drop a reachable beacon). Ascending id survives
    // because the SoA is walked front to back.
    cand.clear();
    const double lox = minx - reach;
    const double hix = maxx + reach;
    const double loy = miny - reach;
    const double hiy = maxy + reach;
    for (std::size_t b = 0; b < soa_.size(); ++b) {
      if (soa_.xs[b] >= lox && soa_.xs[b] <= hix && soa_.ys[b] >= loy &&
          soa_.ys[b] <= hiy) {
        cand.push_back(static_cast<std::uint32_t>(b));
      }
    }

    for (std::size_t i = 0; i < m; ++i) {
      sx[i] = 0.0;
      sy[i] = 0.0;
      cnt[i] = 0;
    }
    eval_chunk(view, cand.data(), cand.size(), px, py, pxw, pyw, m, sx, sy,
               cnt);

    for (std::size_t i = 0; i < m; ++i) {
      batch.sum_x[start + i] = sx[i];
      batch.sum_y[start + i] = sy[i];
      batch.counts[start + i] = static_cast<std::uint32_t>(cnt[i]);
    }
  }
}

}  // namespace abp
