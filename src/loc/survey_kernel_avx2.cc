/// \file survey_kernel_avx2.cc
/// \brief AVX2 arm of the survey kernel: 4 points per vector.
///
/// Compiled with `-mavx2` (never `-mfma` / `-march=native`): without the FMA
/// ISA the compiler cannot contract mul+add, so the lane arithmetic here is
/// the same plain IEEE sequence as the scalar arms — that, plus ascending-id
/// beacon order, is what makes the arms bit-identical.
#if defined(ABP_HAVE_AVX2_KERNEL) && defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "loc/survey_kernel_detail.h"

namespace abp::survey_detail {

namespace {

/// Lane-select masks indexed by a 4-bit movemask: lane i is all-ones when
/// bit i is set. Used to add a beacon's position into exactly the connected
/// lanes (adding +0.0 to the rest, which cannot flip an accumulator's sign
/// because ascending-order partial sums never produce -0.0).
alignas(32) constexpr std::uint64_t kLaneMask[16][4] = {
    {0, 0, 0, 0},    {~0ULL, 0, 0, 0},
    {0, ~0ULL, 0, 0},    {~0ULL, ~0ULL, 0, 0},
    {0, 0, ~0ULL, 0},    {~0ULL, 0, ~0ULL, 0},
    {0, ~0ULL, ~0ULL, 0},    {~0ULL, ~0ULL, ~0ULL, 0},
    {0, 0, 0, ~0ULL},    {~0ULL, 0, 0, ~0ULL},
    {0, ~0ULL, 0, ~0ULL},    {~0ULL, ~0ULL, 0, ~0ULL},
    {0, 0, ~0ULL, ~0ULL},    {~0ULL, 0, ~0ULL, ~0ULL},
    {0, ~0ULL, ~0ULL, ~0ULL},    {~0ULL, ~0ULL, ~0ULL, ~0ULL},
};

}  // namespace

void eval_chunk_avx2(const FastView& m, const std::uint32_t* cand,
                     std::size_t ncand, const double* px, const double* py,
                     const std::uint64_t* pxw, const std::uint64_t* pyw,
                     std::size_t npad, double* sx, double* sy,
                     std::uint64_t* cnt) {
  const __m256i vone = _mm256_set1_epi64x(1);
  alignas(32) double d2lane[kLanes];

  for (std::size_t k = 0; k < ncand; ++k) {
    const std::uint32_t b = cand[k];
    const __m256d vbx = _mm256_set1_pd(m.bx[b]);
    const __m256d vby = _mm256_set1_pd(m.by[b]);
    const __m256d vin2 = _mm256_set1_pd(m.beacon_in2[b]);
    const __m256d vout2 = _mm256_set1_pd(m.beacon_out2[b]);

    for (std::size_t i = 0; i < npad; i += kLanes) {
      const __m256d vpx = _mm256_load_pd(px + i);
      const __m256d vpy = _mm256_load_pd(py + i);
      const __m256d dx = _mm256_sub_pd(vbx, vpx);
      const __m256d dy = _mm256_sub_pd(vby, vpy);
      const __m256d d2 =
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));

      const __m256d min = _mm256_cmp_pd(d2, vin2, _CMP_LE_OQ);
      int conn = _mm256_movemask_pd(min);
      if (m.band) {
        // Lanes inside this beacon's uncertainty band: past its certain-in,
        // within its certain-out. Resolve each with the per-lane hash draw.
        const __m256d mout = _mm256_cmp_pd(d2, vout2, _CMP_LE_OQ);
        int bandmask = _mm256_movemask_pd(_mm256_andnot_pd(min, mout));
        if (bandmask) {
          _mm256_store_pd(d2lane, d2);
          do {
            const int lane = __builtin_ctz(static_cast<unsigned>(bandmask));
            bandmask &= bandmask - 1;
            if (band_connected_premixed(m, b, d2lane[lane], pxw[i + lane],
                                        pyw[i + lane])) {
              conn |= 1 << lane;
            }
          } while (bandmask);
        }
      }
      if (!conn) continue;

      const __m256d mask = _mm256_load_pd(
          reinterpret_cast<const double*>(kLaneMask[conn]));
      const __m256d asx = _mm256_load_pd(sx + i);
      const __m256d asy = _mm256_load_pd(sy + i);
      _mm256_store_pd(sx + i,
                      _mm256_add_pd(asx, _mm256_and_pd(mask, vbx)));
      _mm256_store_pd(sy + i,
                      _mm256_add_pd(asy, _mm256_and_pd(mask, vby)));
      const __m256i acnt = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(cnt + i));
      const __m256i inc =
          _mm256_and_si256(_mm256_castpd_si256(mask), vone);
      _mm256_store_si256(reinterpret_cast<__m256i*>(cnt + i),
                         _mm256_add_epi64(acnt, inc));
    }
  }
}

}  // namespace abp::survey_detail

#endif  // ABP_HAVE_AVX2_KERNEL && __AVX2__
