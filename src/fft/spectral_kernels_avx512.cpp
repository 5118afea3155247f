// AVX-512 (F + DQ) kernel set, the widest x86 dispatch tier. This TU is the
// only one compiled with -mavx512f -mavx512dq; the vtable is plain data, so
// linking it never executes an AVX-512 instruction -- dispatch
// (common/simd_dispatch.cpp) hands these kernels out only when cpuid reports
// both features. The FFT/MAC/add kernels are the width-generic bodies of
// spectral_kernels_impl.h instantiated over simd::Avx512 (W = 8 doubles,
// WU = 16 uint32 lanes); the index-heavy kernels below use the 512-bit
// gathers and mask registers directly.
#include "fft/spectral_kernels.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include "fft/spectral_kernels_impl.h"

namespace matcha {
namespace {

/// Gather-based bundle rotation, 8 slots per iteration: idx = ft1[k]*c mod 2N
/// in eight int32 lanes (mullo wraps mod 2^32, which preserves mod 2N), then
/// two vgatherdpd table loads feed fused complex multiply-adds.
void rot_scale_add_avx512(const NegacyclicPlan& plan, double* dr, double* di,
                          const double* sr, const double* si, int64_t c) {
  const int64_t two_n = 2 * static_cast<int64_t>(plan.n);
  const uint32_t mask = static_cast<uint32_t>(two_n - 1);
  const uint32_t cm = static_cast<uint32_t>((c % two_n) + two_n) & mask;
  const __m256i vcm = _mm256_set1_epi32(static_cast<int32_t>(cm));
  const __m256i vmask = _mm256_set1_epi32(static_cast<int32_t>(mask));
  const __m512d one = _mm512_set1_pd(1.0);
  int k = 0;
  for (; k + 8 <= plan.m; k += 8) {
    const __m256i ft = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(plan.ft1.data() + k));
    const __m256i idx = _mm256_and_si256(_mm256_mullo_epi32(ft, vcm), vmask);
    const __m512d fr =
        _mm512_sub_pd(_mm512_i32gather_pd(idx, plan.rot_re.data(), 8), one);
    const __m512d fi = _mm512_i32gather_pd(idx, plan.rot_im.data(), 8);
    const __m512d xr = _mm512_loadu_pd(sr + k);
    const __m512d xi = _mm512_loadu_pd(si + k);
    __m512d ar = _mm512_loadu_pd(dr + k);
    __m512d ai = _mm512_loadu_pd(di + k);
    ar = _mm512_fmadd_pd(fr, xr, _mm512_fnmadd_pd(fi, xi, ar));
    ai = _mm512_fmadd_pd(fr, xi, _mm512_fmadd_pd(fi, xr, ai));
    _mm512_storeu_pd(dr + k, ar);
    _mm512_storeu_pd(di + k, ai);
  }
  for (; k < plan.m; ++k) {
    const uint32_t idx = (static_cast<uint32_t>(plan.ft1[k]) * cm) & mask;
    const double fr = plan.rot_re[idx] - 1.0;
    const double fi = plan.rot_im[idx];
    dr[k] += fr * sr[k] - fi * si[k];
    di[k] += fr * si[k] + fi * sr[k];
  }
}

/// Rotation-factor materialization for the fused bundle path, 8 slots per
/// iteration: run once per sample and active key subset, so the vgatherdpd
/// table loads never appear in the bundle_mac hot loop.
void rot_factor_avx512(const NegacyclicPlan& plan, double* fr, double* fi,
                       int64_t c) {
  const int64_t two_n = 2 * static_cast<int64_t>(plan.n);
  const uint32_t mask = static_cast<uint32_t>(two_n - 1);
  const uint32_t cm = static_cast<uint32_t>((c % two_n) + two_n) & mask;
  const __m256i vcm = _mm256_set1_epi32(static_cast<int32_t>(cm));
  const __m256i vmask = _mm256_set1_epi32(static_cast<int32_t>(mask));
  const __m512d one = _mm512_set1_pd(1.0);
  int k = 0;
  for (; k + 8 <= plan.m; k += 8) {
    const __m256i ft = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(plan.ft1.data() + k));
    const __m256i idx = _mm256_and_si256(_mm256_mullo_epi32(ft, vcm), vmask);
    _mm512_storeu_pd(fr + k, _mm512_sub_pd(
        _mm512_i32gather_pd(idx, plan.rot_re.data(), 8), one));
    _mm512_storeu_pd(fi + k, _mm512_i32gather_pd(idx, plan.rot_im.data(), 8));
  }
  for (; k < plan.m; ++k) {
    const uint32_t idx = (static_cast<uint32_t>(plan.ft1[k]) * cm) & mask;
    fr[k] = plan.rot_re[idx] - 1.0;
    fi[k] = plan.rot_im[idx];
  }
}

/// 16-lane gadget decomposition: add offset, shift, mask, recenter.
void decompose_avx512(int l, int bg_bits, uint32_t offset, int n,
                      const uint32_t* p, int32_t* const* digits) {
  const uint32_t mask = (1u << bg_bits) - 1;
  const int32_t half = 1 << (bg_bits - 1);
  const __m512i voff = _mm512_set1_epi32(static_cast<int32_t>(offset));
  const __m512i vmask = _mm512_set1_epi32(static_cast<int32_t>(mask));
  const __m512i vhalf = _mm512_set1_epi32(half);
  for (int j = 0; j < l; ++j) {
    const int sh = 32 - (j + 1) * bg_bits;
    const __m128i vsh = _mm_cvtsi32_si128(sh);
    int32_t* dj = digits[j];
    int i = 0;
    for (; i + 16 <= n; i += 16) {
      const __m512i tt = _mm512_add_epi32(
          _mm512_loadu_si512(reinterpret_cast<const void*>(p + i)), voff);
      const __m512i raw = _mm512_and_si512(_mm512_srl_epi32(tt, vsh), vmask);
      _mm512_storeu_si512(reinterpret_cast<void*>(dj + i),
                          _mm512_sub_epi32(raw, vhalf));
    }
    for (; i < n; ++i) {
      dj[i] = static_cast<int32_t>(((p[i] + offset) >> sh) & mask) - half;
    }
  }
}

/// Gathered b-plane sum: a mask register carries the d[r] != 0 predicate
/// straight into the gather (masked-off lanes contribute zero), sixteen key
/// rows per iteration.
uint32_t ks_gather_b_avx512(const uint32_t* d, const uint32_t* b_plane,
                            int rows, int base) {
  const int stride = base - 1;
  const __m512i vstride = _mm512_set1_epi32(stride);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i ramp = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                         12, 13, 14, 15);
  const __m512i zero = _mm512_setzero_si512();
  __m512i acc = zero;
  int r = 0;
  for (; r + 16 <= rows; r += 16) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(d + r));
    const __mmask16 nz = _mm512_test_epi32_mask(v, v);
    const __m512i row = _mm512_add_epi32(_mm512_set1_epi32(r), ramp);
    const __m512i idx = _mm512_add_epi32(_mm512_mullo_epi32(row, vstride),
                                         _mm512_sub_epi32(v, one));
    const __m512i g = _mm512_mask_i32gather_epi32(
        zero, nz, idx, reinterpret_cast<const int*>(b_plane), 4);
    acc = _mm512_add_epi32(acc, g);
  }
  // Horizontal mod-2^32 sum of the sixteen lanes, kept in vector adds the
  // whole way down (_mm512_reduce_add_epi32 lowers to scalar signed +, which
  // is UB on wrap -- torus sums wrap by design).
  const __m256i s256 =
      _mm256_add_epi32(_mm512_castsi512_si256(acc),
                       _mm512_extracti64x4_epi64(acc, 1));
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(s256),
                            _mm256_extracti128_si256(s256, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  uint32_t out = static_cast<uint32_t>(_mm_cvtsi128_si32(s));
  for (; r < rows; ++r) {
    const uint32_t v = d[r];
    if (v != 0) out += b_plane[static_cast<size_t>(r) * stride + (v - 1)];
  }
  return out;
}

const SpectralKernels kAvx512Kernels = {
    "avx512",
    &detail::PlanarKernels<simd::Avx512>::forward,
    &detail::PlanarKernels<simd::Avx512>::inverse_torus,
    &detail::PlanarKernels<simd::Avx512>::mac,
    &rot_scale_add_avx512,
    &detail::PlanarKernels<simd::Avx512>::add_assign,
    &detail::PlanarKernels<simd::Avx512>::scale_add,
    &rot_factor_avx512,
    &detail::PlanarKernels<simd::Avx512>::bundle_mac,
    &decompose_avx512,
    &detail::u32_sub<simd::Avx512>,
    &detail::ks_digits<simd::Avx512>,
    &ks_gather_b_avx512,
};

} // namespace

const SpectralKernels* spectral_kernels_avx512() { return &kAvx512Kernels; }

} // namespace matcha

#else // !(__AVX512F__ && __AVX512DQ__)

namespace matcha {
const SpectralKernels* spectral_kernels_avx512() { return nullptr; }
} // namespace matcha

#endif
