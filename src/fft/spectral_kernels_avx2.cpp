// AVX2+FMA kernel set. This TU (and only this TU plus the simd.h policy it
// instantiates) is compiled with -mavx2 -mfma on x86-64 targets; the vtable
// is plain data, so merely linking it never executes an AVX2 instruction --
// dispatch guarantees the kernels run only when cpuid reports AVX2+FMA.
#include "fft/spectral_kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "fft/spectral_kernels_impl.h"

namespace matcha {
namespace {

/// Gather-based bundle rotation: idx = (4*nat(k)+1)*c mod 2N computed in
/// int32 lanes (the mod-2^32 wrap of _mm_mullo_epi32 preserves mod 2N since
/// 2N | 2^32), then two table gathers feed a fused complex multiply-add.
void rot_scale_add_avx2(const NegacyclicPlan& plan, double* dr, double* di,
                        const double* sr, const double* si, int64_t c) {
  const int64_t two_n = 2 * static_cast<int64_t>(plan.n);
  const uint32_t mask = static_cast<uint32_t>(two_n - 1);
  const uint32_t cm = static_cast<uint32_t>((c % two_n) + two_n) & mask;
  const __m128i vcm = _mm_set1_epi32(static_cast<int32_t>(cm));
  const __m128i vmask = _mm_set1_epi32(static_cast<int32_t>(mask));
  const __m256d one = _mm256_set1_pd(1.0);
  // Masked gather with an explicit zero source: same all-lanes load as
  // _mm256_i32gather_pd, without the _mm256_undefined_pd source that trips
  // GCC's -Wmaybe-uninitialized inside the intrinsic header.
  const __m256d gsrc = _mm256_setzero_pd();
  const __m256d gall = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  int k = 0;
  for (; k + 4 <= plan.m; k += 4) {
    const __m128i ft = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(plan.ft1.data() + k));
    const __m128i idx = _mm_and_si128(_mm_mullo_epi32(ft, vcm), vmask);
    const __m256d fr = _mm256_sub_pd(
        _mm256_mask_i32gather_pd(gsrc, plan.rot_re.data(), idx, gall, 8), one);
    const __m256d fi =
        _mm256_mask_i32gather_pd(gsrc, plan.rot_im.data(), idx, gall, 8);
    const __m256d xr = _mm256_loadu_pd(sr + k);
    const __m256d xi = _mm256_loadu_pd(si + k);
    __m256d ar = _mm256_loadu_pd(dr + k);
    __m256d ai = _mm256_loadu_pd(di + k);
    ar = _mm256_fmadd_pd(fr, xr, _mm256_fnmadd_pd(fi, xi, ar));
    ai = _mm256_fmadd_pd(fr, xi, _mm256_fmadd_pd(fi, xr, ai));
    _mm256_storeu_pd(dr + k, ar);
    _mm256_storeu_pd(di + k, ai);
  }
  for (; k < plan.m; ++k) {
    const uint32_t idx = (static_cast<uint32_t>(plan.ft1[k]) * cm) & mask;
    const double fr = plan.rot_re[idx] - 1.0;
    const double fi = plan.rot_im[idx];
    dr[k] += fr * sr[k] - fi * si[k];
    di[k] += fr * si[k] + fi * sr[k];
  }
}

/// Rotation-factor materialization for the fused bundle path: the gathers of
/// rot_scale_add, run once per sample and active key subset; the bundle_mac
/// hot loop then touches only contiguous streams.
void rot_factor_avx2(const NegacyclicPlan& plan, double* fr, double* fi,
                     int64_t c) {
  const int64_t two_n = 2 * static_cast<int64_t>(plan.n);
  const uint32_t mask = static_cast<uint32_t>(two_n - 1);
  const uint32_t cm = static_cast<uint32_t>((c % two_n) + two_n) & mask;
  const __m128i vcm = _mm_set1_epi32(static_cast<int32_t>(cm));
  const __m128i vmask = _mm_set1_epi32(static_cast<int32_t>(mask));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d gsrc = _mm256_setzero_pd();
  const __m256d gall = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  int k = 0;
  for (; k + 4 <= plan.m; k += 4) {
    const __m128i ft = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(plan.ft1.data() + k));
    const __m128i idx = _mm_and_si128(_mm_mullo_epi32(ft, vcm), vmask);
    _mm256_storeu_pd(fr + k, _mm256_sub_pd(
        _mm256_mask_i32gather_pd(gsrc, plan.rot_re.data(), idx, gall, 8), one));
    _mm256_storeu_pd(fi + k,
        _mm256_mask_i32gather_pd(gsrc, plan.rot_im.data(), idx, gall, 8));
  }
  for (; k < plan.m; ++k) {
    const uint32_t idx = (static_cast<uint32_t>(plan.ft1[k]) * cm) & mask;
    fr[k] = plan.rot_re[idx] - 1.0;
    fi[k] = plan.rot_im[idx];
  }
}

/// 8-lane gadget decomposition: add offset, shift, mask, recenter.
void decompose_avx2(int l, int bg_bits, uint32_t offset, int n,
                    const uint32_t* p, int32_t* const* digits) {
  const uint32_t mask = (1u << bg_bits) - 1;
  const int32_t half = 1 << (bg_bits - 1);
  const __m256i voff = _mm256_set1_epi32(static_cast<int32_t>(offset));
  const __m256i vmask = _mm256_set1_epi32(static_cast<int32_t>(mask));
  const __m256i vhalf = _mm256_set1_epi32(half);
  for (int j = 0; j < l; ++j) {
    const int sh = 32 - (j + 1) * bg_bits;
    const __m128i vsh = _mm_cvtsi32_si128(sh);
    int32_t* dj = digits[j];
    int i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i tt = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)), voff);
      const __m256i raw = _mm256_and_si256(_mm256_srl_epi32(tt, vsh), vmask);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dj + i),
                          _mm256_sub_epi32(raw, vhalf));
    }
    for (; i < n; ++i) {
      dj[i] = static_cast<int32_t>(((p[i] + offset) >> sh) & mask) - half;
    }
  }
}

/// Gathered b-plane sum via masked hardware gather: lanes whose digit is
/// zero keep the zero source (their key row does not exist), the others
/// fetch b_plane[r*(base-1) + d[r] - 1]; eight rows per iteration.
uint32_t ks_gather_b_avx2(const uint32_t* d, const uint32_t* b_plane,
                          int rows, int base) {
  const int stride = base - 1;
  const __m256i vstride = _mm256_set1_epi32(stride);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i ramp = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  int r = 0;
  for (; r + 8 <= rows; r += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + r));
    const __m256i nz = _mm256_xor_si256(_mm256_cmpeq_epi32(v, zero),
                                        _mm256_set1_epi32(-1)); // v != 0
    const __m256i row = _mm256_add_epi32(_mm256_set1_epi32(r), ramp);
    const __m256i idx = _mm256_add_epi32(_mm256_mullo_epi32(row, vstride),
                                         _mm256_sub_epi32(v, one));
    const __m256i g = _mm256_mask_i32gather_epi32(
        zero, reinterpret_cast<const int*>(b_plane), idx, nz, 4);
    acc = _mm256_add_epi32(acc, g);
  }
  // Horizontal mod-2^32 sum of the eight lanes.
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  uint32_t out = static_cast<uint32_t>(_mm_cvtsi128_si32(s));
  for (; r < rows; ++r) {
    const uint32_t v = d[r];
    if (v != 0) out += b_plane[static_cast<size_t>(r) * stride + (v - 1)];
  }
  return out;
}

const SpectralKernels kAvx2Kernels = {
    "avx2",
    &detail::PlanarKernels<simd::Avx2>::forward,
    &detail::PlanarKernels<simd::Avx2>::inverse_torus,
    &detail::PlanarKernels<simd::Avx2>::mac,
    &rot_scale_add_avx2,
    &detail::PlanarKernels<simd::Avx2>::add_assign,
    &detail::PlanarKernels<simd::Avx2>::scale_add,
    &rot_factor_avx2,
    &detail::PlanarKernels<simd::Avx2>::bundle_mac,
    &decompose_avx2,
    &detail::u32_sub<simd::Avx2>,
    &detail::ks_digits<simd::Avx2>,
    &ks_gather_b_avx2,
};

} // namespace

const SpectralKernels* spectral_kernels_avx2() { return &kAvx2Kernels; }

} // namespace matcha

#else // !(__AVX2__ && __FMA__)

namespace matcha {
const SpectralKernels* spectral_kernels_avx2() { return nullptr; }
} // namespace matcha

#endif
