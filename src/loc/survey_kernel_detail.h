/// \file survey_kernel_detail.h
/// \brief Internals shared by the survey-kernel arms. Not a public header:
/// included only by survey_kernel.cc and survey_kernel_avx2.cc.
///
/// Everything here has internal linkage (`static`) on purpose: the AVX2
/// translation unit is compiled with `-mavx2`, and letting one of its
/// inline helpers win COMDAT folding would leak VEX-encoded code into the
/// generic arms, crashing pre-AVX2 machines. Each TU gets its own copy.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rng/hash.h"

namespace abp::survey_detail {

/// Points per chunk: one beacon prefilter per chunk, padded to kLanes.
inline constexpr std::size_t kChunk = 32;
/// Doubles per AVX2 vector.
inline constexpr std::size_t kLanes = 4;
/// Padding coordinate for tail lanes: far enough that no beacon can ever
/// connect (d2 ~ 1e60 rejects in the certain-out test), finite so the
/// arithmetic stays NaN-free.
inline constexpr double kPadSentinel = 1.0e30;
/// Slack added to the prefilter reach so floating-point rounding of the
/// chunk bounding box can never exclude a beacon that the exact predicate
/// would accept (rounding error is ~1e-13 m at terrain scale; the slack is
/// seven orders of magnitude larger and still negligible for culling).
inline constexpr double kReachSlack = 1.0e-6;

/// Per-chunk view of the fast-path model constants and beacon SoA.
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
[[gnu::always_inline]] static inline double resume_u_draw(
    std::uint64_t prefix, std::uint64_t pxq, std::uint64_t pyq) {
  std::uint64_t s = stable_hash64_absorb(prefix, pxq, 5);
  s = stable_hash64_absorb(s, pyq, 6);
  return hash_to_symmetric(stable_hash64_finalize(s, 6));
}

/// Uncertainty-band connectivity test for beacon index `b`: identical op
/// sequence to PerBeaconNoiseModel::effective_range + the d2 <= r*r check.
[[gnu::always_inline]] static inline bool band_connected(
    const FastView& m, std::size_t b, double d2, std::uint64_t pxq,
    std::uint64_t pyq) {
  const double u = resume_u_draw(m.prefix[b], pxq, pyq);
  const double r = m.range * (1.0 + u * m.nf[b]);
  return d2 <= r * r;
}

/// The point half of one absorb round. `stable_hash64_absorb(s, w, r)` is
/// `mix(s ^ mix(w + r·K))`, and the inner mix depends on the point word
/// and round alone, so the chunk arms premix each point's two quantized
/// words (rounds 5 and 6) once instead of once per (point, beacon) pair.
[[gnu::always_inline]] static inline std::uint64_t premix_point_word(
    std::uint64_t word, std::uint64_t round) {
  return splitmix64_mix(word + round * kStableHashRound);
}

/// The first of the three mixes left once the point words are premixed:
/// the beacon prefix with the x word (round 5). It depends on the beacon
/// and the column alone, so the lattice path takes it once per pair.
[[gnu::always_inline]] static inline std::uint64_t premix_column(
    std::uint64_t prefix, std::uint64_t pxw) {
  return splitmix64_mix(prefix ^ pxw);
}

/// `band_connected` from a beacon's `premix_column` word `s1` and the
/// premixed y word (round 6): the last two mixes, the draw and the range
/// test, in PerBeaconNoiseModel's op sequence.
[[gnu::always_inline]] static inline bool band_connected_column(
    const FastView& m, std::size_t b, double d2, std::uint64_t s1,
    std::uint64_t pyw) {
  const std::uint64_t s = splitmix64_mix(s1 ^ pyw);
  const double u = hash_to_symmetric(stable_hash64_finalize(s, 6));
  const double r = m.range * (1.0 + u * m.nf[b]);
  return d2 <= r * r;
}

/// `band_connected` from premixed point words (the chunk arms' form): three
/// mixes instead of five, the same bits by the identity above.
[[gnu::always_inline]] static inline bool band_connected_premixed(
    const FastView& m, std::size_t b, double d2, std::uint64_t pxw,
    std::uint64_t pyw) {
  return band_connected_column(m, b, d2, premix_column(m.prefix[b], pxw),
                               pyw);
}

/// Signature of a chunk evaluator arm: accumulate every candidate beacon
/// (indices into the SoA, ascending) into `npad` padded point lanes.
/// Connectivity is certain inside a beacon's own `beacon_in2` and
/// impossible past its `beacon_out2`; only pairs in between hash, from
/// the premixed point words `pxw`/`pyw`. sx/sy/cnt are the chunk-local
/// accumulators, zeroed by `evaluate_chunked`.
using EvalChunkFn = void (*)(const FastView& m, const std::uint32_t* cand,
                             std::size_t ncand, const double* px,
                             const double* py, const std::uint64_t* pxw,
                             const std::uint64_t* pyw, std::size_t npad,
                             double* sx, double* sy, std::uint64_t* cnt);

#if defined(ABP_HAVE_AVX2_KERNEL)
/// The AVX2 arm (survey_kernel_avx2.cc, compiled with -mavx2). Only call
/// when __builtin_cpu_supports("avx2").
void eval_chunk_avx2(const FastView& m, const std::uint32_t* cand,
                     std::size_t ncand, const double* px, const double* py,
                     const std::uint64_t* pxw, const std::uint64_t* pyw,
                     std::size_t npad, double* sx, double* sy,
                     std::uint64_t* cnt);
#endif

}  // namespace abp::survey_detail
