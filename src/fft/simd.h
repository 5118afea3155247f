// Portable SIMD shim for the planar spectral kernels.
//
// Each ISA is a policy struct exposing the same tiny vocabulary of W-wide
// double-lane operations; fft/spectral_kernels_impl.h instantiates one
// kernel set per policy and the per-ISA TUs export them behind the runtime
// vtable (fft/spectral_kernels.h). The policies are deliberately minimal:
// load/store, add/sub/mul, fused multiply-add/sub, int32->double widening,
// the library's fixed rounding point, the Torus32 wrap-around store, and the
// shuffle-heavy helpers that cannot be expressed lane-wise: the adjacent-pair
// butterfly of the final radix-2 stage and, on policies wider than two
// lanes, the quarter transpose (load_q2/store_q2/bcast_q2) that runs the
// q = 2 radix-4 stage on full vectors.
//
// Alongside the double lanes every policy exposes a WU-wide *integer* lane
// vocabulary over uint32 (load/store, add/sub, shift/mask, nonzero-select).
// Torus arithmetic is exact mod 2^32, so these lanes are bit-identical
// across every ISA by construction; the keyswitch kernels (digit extraction
// and the streaming row accumulate, fft/spectral_kernels_impl.h) are built
// from them.
//
// Rounding contract: round_away(x) = trunc(x + copysign(0.5, x)) -- round
// half away from zero, the same rule std::llround applies. All policies
// compute it with this exact double sequence, so a given kernel level is
// deterministic, and every level agrees with std::llround whenever x is
// farther than one ulp from a half-integer (always true on the decrypt
// path, whose spectral error is bounded far below 0.5; see DESIGN.md).
//
// The AVX2 policy only compiles in TUs built with -mavx2 -mfma
// (spectral_kernels_avx2.cpp), the AVX-512 policy in TUs built with
// -mavx512f -mavx512dq (spectral_kernels_avx512.cpp); including this header
// elsewhere is harmless.
#pragma once

#include <cmath>
#include <cstdint>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace matcha::simd {

// ------------------------------------------------------------------ scalar
struct Scalar {
  static constexpr int W = 1;
  using vd = double;
  /// Samples per fused bundle-MAC block (spectral_kernels_impl.h): 4 subset
  /// sums per sample stay live across the key rows, so the block is sized to
  /// the register file -- 2 for the 16 SSE2 registers this tier
  /// auto-vectorizes to.
  static constexpr int kSampleBlock = 2;

  static vd load(const double* p) { return *p; }
  static void store(double* p, vd v) { *p = v; }
  static vd set1(double x) { return x; }
  static vd add(vd a, vd b) { return a + b; }
  static vd sub(vd a, vd b) { return a - b; }
  static vd mul(vd a, vd b) { return a * b; }
  static vd fmadd(vd a, vd b, vd c) { return a * b + c; }
  static vd fmsub(vd a, vd b, vd c) { return a * b - c; }
  static vd load_i32(const int32_t* p) { return static_cast<double>(*p); }
  static vd round_away(vd x) {
    // trunc via the toward-zero int64 conversion (one cvttsd2si): identical
    // to std::trunc for the contract's |x| < 2^52, without the libm call
    // that otherwise dominates the inverse transform's fused last stage.
    return static_cast<double>(static_cast<int64_t>(x + std::copysign(0.5, x)));
  }
  static void store_torus(uint32_t* p, vd x) {
    // int64 -> uint32 narrows mod 2^32, realizing the torus wrap. |x| stays
    // below 2^52 (DESIGN.md scaling bound) so the conversion is exact.
    *p = static_cast<uint32_t>(static_cast<int64_t>(x));
  }
  /// (a, b) -> (a + b, a - b) over `pairs` adjacent pairs; src may == dst.
  static void butterfly_pairs(const double* src, double* dst, int pairs) {
    for (int i = 0; i < pairs; ++i) {
      const double a = src[2 * i], b = src[2 * i + 1];
      dst[2 * i] = a + b;
      dst[2 * i + 1] = a - b;
    }
  }

  // Integer (uint32) lanes.
  static constexpr int WU = 1;
  using vu = uint32_t;
  static vu load_u32(const uint32_t* p) { return *p; }
  static void store_u32(uint32_t* p, vu v) { *p = v; }
  static vu set1_u32(uint32_t x) { return x; }
  static vu add_u32(vu a, vu b) { return a + b; }
  static vu sub_u32(vu a, vu b) { return a - b; }
  static vu and_u32(vu a, vu b) { return a & b; }
  static vu srl_u32(vu a, int count) { return a >> count; }
  /// Per-lane: cond != 0 ? a : b.
  static vu select_nz_u32(vu cond, vu a, vu b) { return cond != 0 ? a : b; }
};

// ------------------------------------------------------------- AVX2 + FMA
#if defined(__AVX2__) && defined(__FMA__)
struct Avx2 {
  static constexpr int W = 4;
  using vd = __m256d;
  static constexpr int kSampleBlock = 2; ///< 8 sums of 16 ymm registers

  static vd load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, vd v) { _mm256_storeu_pd(p, v); }
  static vd set1(double x) { return _mm256_set1_pd(x); }
  static vd add(vd a, vd b) { return _mm256_add_pd(a, b); }
  static vd sub(vd a, vd b) { return _mm256_sub_pd(a, b); }
  static vd mul(vd a, vd b) { return _mm256_mul_pd(a, b); }
  static vd fmadd(vd a, vd b, vd c) { return _mm256_fmadd_pd(a, b, c); }
  static vd fmsub(vd a, vd b, vd c) { return _mm256_fmsub_pd(a, b, c); }
  static vd load_i32(const int32_t* p) {
    return _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static vd round_away(vd x) {
    const vd sign = _mm256_and_pd(x, _mm256_set1_pd(-0.0));
    const vd half = _mm256_or_pd(_mm256_set1_pd(0.5), sign);
    return _mm256_round_pd(_mm256_add_pd(x, half),
                           _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static void store_torus(uint32_t* p, vd x) {
    // Reduce the integral value mod 2^32 into [0, 2^32), then use the 2^52
    // mantissa trick: fl(v + 2^52) carries v verbatim in its low 32 bits.
    // Every step is exact for integral |x| < 2^52.
    const vd two32 = _mm256_set1_pd(4294967296.0);
    const vd q = _mm256_floor_pd(_mm256_mul_pd(x, _mm256_set1_pd(1.0 / 4294967296.0)));
    const vd v = _mm256_fnmadd_pd(q, two32, x);
    const vd biased = _mm256_add_pd(v, _mm256_set1_pd(4503599627370496.0)); // 2^52
    const __m256i bits = _mm256_castpd_si256(biased);
    const __m256i low = _mm256_permutevar8x32_epi32(
        bits, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm256_castsi256_si128(low));
  }
  /// Quarter transpose for a q = 2 radix-4 stage. The four vectors at p span
  /// two 8-slot butterfly blocks [a b | c d] [a' b' | c' d'] (each letter one
  /// 2-slot quarter); x[r] receives quarter r of both blocks, e.g.
  /// x[0] = [a a'], so the butterfly runs lane-wise on full vectors.
  static void load_q2(const double* p, vd x[4]) {
    const vd v0 = load(p), v1 = load(p + 4), v2 = load(p + 8),
             v3 = load(p + 12);
    x[0] = _mm256_permute2f128_pd(v0, v2, 0x20);
    x[1] = _mm256_permute2f128_pd(v0, v2, 0x31);
    x[2] = _mm256_permute2f128_pd(v1, v3, 0x20);
    x[3] = _mm256_permute2f128_pd(v1, v3, 0x31);
  }
  /// Inverse of load_q2.
  static void store_q2(double* p, const vd x[4]) {
    store(p, _mm256_permute2f128_pd(x[0], x[1], 0x20));
    store(p + 4, _mm256_permute2f128_pd(x[2], x[3], 0x20));
    store(p + 8, _mm256_permute2f128_pd(x[0], x[1], 0x31));
    store(p + 12, _mm256_permute2f128_pd(x[2], x[3], 0x31));
  }
  /// The q = 2 stage's twiddle pair {w[0], w[1]} repeated across the vector.
  static vd bcast_q2(const double* w) {
    return _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(w));
  }
  static void butterfly_pairs(const double* src, double* dst, int pairs) {
    int i = 0;
    for (; i + 2 <= pairs; i += 2) {
      const vd x = _mm256_loadu_pd(src + 2 * i);        // a0 b0 a1 b1
      const vd y = _mm256_permute_pd(x, 0b0101);        // b0 a0 b1 a1
      const vd nx = _mm256_xor_pd(x, _mm256_set1_pd(-0.0));
      // addsub(y, -x) = [y0+x0, y1-x1, ...] = [a+b, a-b, ...]
      _mm256_storeu_pd(dst + 2 * i, _mm256_addsub_pd(y, nx));
    }
    for (; i < pairs; ++i) {
      const double a = src[2 * i], b = src[2 * i + 1];
      dst[2 * i] = a + b;
      dst[2 * i + 1] = a - b;
    }
  }

  // Integer (uint32) lanes.
  static constexpr int WU = 8;
  using vu = __m256i;
  static vu load_u32(const uint32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store_u32(uint32_t* p, vu v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static vu set1_u32(uint32_t x) {
    return _mm256_set1_epi32(static_cast<int32_t>(x));
  }
  static vu add_u32(vu a, vu b) { return _mm256_add_epi32(a, b); }
  static vu sub_u32(vu a, vu b) { return _mm256_sub_epi32(a, b); }
  static vu and_u32(vu a, vu b) { return _mm256_and_si256(a, b); }
  static vu srl_u32(vu a, int count) {
    return _mm256_srl_epi32(a, _mm_cvtsi32_si128(count));
  }
  static vu select_nz_u32(vu cond, vu a, vu b) {
    const vu is_zero = _mm256_cmpeq_epi32(cond, _mm256_setzero_si256());
    return _mm256_blendv_epi8(a, b, is_zero);
  }
};
#endif // __AVX2__ && __FMA__

// ----------------------------------------------------------- AVX-512 F+DQ
#if defined(__AVX512F__) && defined(__AVX512DQ__)
struct Avx512 {
  static constexpr int W = 8;
  using vd = __m512d;
  static constexpr int kSampleBlock = 4; ///< 16 sums of 32 zmm registers

  static vd load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, vd v) { _mm512_storeu_pd(p, v); }
  static vd set1(double x) { return _mm512_set1_pd(x); }
  static vd add(vd a, vd b) { return _mm512_add_pd(a, b); }
  static vd sub(vd a, vd b) { return _mm512_sub_pd(a, b); }
  static vd mul(vd a, vd b) { return _mm512_mul_pd(a, b); }
  static vd fmadd(vd a, vd b, vd c) { return _mm512_fmadd_pd(a, b, c); }
  static vd fmsub(vd a, vd b, vd c) { return _mm512_fmsub_pd(a, b, c); }
  static vd load_i32(const int32_t* p) {
    return _mm512_cvtepi32_pd(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  static vd round_away(vd x) {
    const vd sign = _mm512_and_pd(x, _mm512_set1_pd(-0.0)); // DQ: vandpd
    const vd half = _mm512_or_pd(_mm512_set1_pd(0.5), sign);
    return _mm512_roundscale_pd(_mm512_add_pd(x, half),
                                _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static void store_torus(uint32_t* p, vd x) {
    // DQ's direct double->int64 conversion (truncating; x is integral, so
    // exact), then vpmovqd narrows mod 2^32 -- the torus wrap.
    const __m512i t = _mm512_cvttpd_epi64(x);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                        _mm512_cvtepi64_epi32(t));
  }
  /// Quarter transpose for a q = 2 radix-4 stage: the four vectors at p span
  /// four 8-slot butterfly blocks, one per vector, each [a b c d] in 2-slot
  /// quarters; x[r] receives quarter r of all four blocks. A 4x4 transpose
  /// of 128-bit lanes.
  static void load_q2(const double* p, vd x[4]) {
    const vd v[4] = {load(p), load(p + 8), load(p + 16), load(p + 24)};
    lane_transpose(v, x);
  }
  /// Inverse of load_q2 (the lane transpose is its own inverse).
  static void store_q2(double* p, const vd x[4]) {
    vd v[4];
    lane_transpose(x, v);
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) store(p + 8 * r, v[r]);
  }
  /// The q = 2 stage's twiddle pair {w[0], w[1]} repeated across the vector.
  /// (The maskz forms with an all-ones mask compile to the plain
  /// instructions; GCC's unmasked intrinsics go through
  /// _mm512_undefined_pd and trip -Wmaybe-uninitialized.)
  static vd bcast_q2(const double* w) {
    return _mm512_maskz_broadcast_f64x2(0xFF, _mm_loadu_pd(w));
  }
  template <int kImm>
  static vd shuffle_lanes(vd a, vd b) {
    return _mm512_maskz_shuffle_f64x2(0xFF, a, b, kImm);
  }
  static void lane_transpose(const vd in[4], vd out[4]) {
    constexpr int kLo = _MM_SHUFFLE(1, 0, 1, 0), kHi = _MM_SHUFFLE(3, 2, 3, 2);
    constexpr int kEven = _MM_SHUFFLE(2, 0, 2, 0), kOdd = _MM_SHUFFLE(3, 1, 3, 1);
    const vd t0 = shuffle_lanes<kLo>(in[0], in[1]);
    const vd t1 = shuffle_lanes<kHi>(in[0], in[1]);
    const vd t2 = shuffle_lanes<kLo>(in[2], in[3]);
    const vd t3 = shuffle_lanes<kHi>(in[2], in[3]);
    out[0] = shuffle_lanes<kEven>(t0, t2);
    out[1] = shuffle_lanes<kOdd>(t0, t2);
    out[2] = shuffle_lanes<kEven>(t1, t3);
    out[3] = shuffle_lanes<kOdd>(t1, t3);
  }
  static void butterfly_pairs(const double* src, double* dst, int pairs) {
    int i = 0;
    for (; i + 4 <= pairs; i += 4) {
      const vd x = _mm512_loadu_pd(src + 2 * i); // a0 b0 a1 b1 ...
      // Pair swap via shuffle_pd (GCC's _mm512_permute_pd goes through
      // _mm512_undefined_pd and trips -Wmaybe-uninitialized).
      const vd y = _mm512_shuffle_pd(x, x, 0x55); // b0 a0 b1 a1 ...
      // even lanes: x=a, y=b -> a+b; odd lanes: x=b, y=a -> y-x = a-b.
      _mm512_storeu_pd(dst + 2 * i,
                       _mm512_mask_sub_pd(_mm512_add_pd(x, y),
                                          static_cast<__mmask8>(0xAA), y, x));
    }
    for (; i < pairs; ++i) {
      const double a = src[2 * i], b = src[2 * i + 1];
      dst[2 * i] = a + b;
      dst[2 * i + 1] = a - b;
    }
  }

  // Integer (uint32) lanes.
  static constexpr int WU = 16;
  using vu = __m512i;
  static vu load_u32(const uint32_t* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void store_u32(uint32_t* p, vu v) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), v);
  }
  static vu set1_u32(uint32_t x) {
    return _mm512_set1_epi32(static_cast<int32_t>(x));
  }
  static vu add_u32(vu a, vu b) { return _mm512_add_epi32(a, b); }
  static vu sub_u32(vu a, vu b) { return _mm512_sub_epi32(a, b); }
  static vu and_u32(vu a, vu b) { return _mm512_and_si512(a, b); }
  static vu srl_u32(vu a, int count) {
    return _mm512_srl_epi32(a, _mm_cvtsi32_si128(count));
  }
  static vu select_nz_u32(vu cond, vu a, vu b) {
    const __mmask16 nz =
        _mm512_test_epi32_mask(cond, cond); // lane != 0
    return _mm512_mask_blend_epi32(nz, b, a);
  }
};
#endif // __AVX512F__ && __AVX512DQ__

// ------------------------------------------------------------------- NEON
#if defined(__aarch64__)
struct Neon {
  static constexpr int W = 2;
  using vd = float64x2_t;
  static constexpr int kSampleBlock = 4; ///< 16 sums of 32 q registers

  static vd load(const double* p) { return vld1q_f64(p); }
  static void store(double* p, vd v) { vst1q_f64(p, v); }
  static vd set1(double x) { return vdupq_n_f64(x); }
  static vd add(vd a, vd b) { return vaddq_f64(a, b); }
  static vd sub(vd a, vd b) { return vsubq_f64(a, b); }
  static vd mul(vd a, vd b) { return vmulq_f64(a, b); }
  static vd fmadd(vd a, vd b, vd c) { return vfmaq_f64(c, a, b); }
  static vd fmsub(vd a, vd b, vd c) {
    return vnegq_f64(vfmsq_f64(c, a, b)); // -(c - a*b) = a*b - c
  }
  static vd load_i32(const int32_t* p) {
    return vcvtq_f64_s64(vmovl_s32(vld1_s32(p)));
  }
  static vd round_away(vd x) {
    const uint64x2_t signbit = vdupq_n_u64(0x8000000000000000ull);
    const uint64x2_t sign =
        vandq_u64(vreinterpretq_u64_f64(x), signbit);
    const vd half = vreinterpretq_f64_u64(
        vorrq_u64(vreinterpretq_u64_f64(vdupq_n_f64(0.5)), sign));
    return vrndq_f64(vaddq_f64(x, half)); // vrndq = round toward zero
  }
  static void store_torus(uint32_t* p, vd x) {
    const int64x2_t t = vcvtq_s64_f64(x); // toward zero; x already integral
    vst1_u32(p, vmovn_u64(vreinterpretq_u64_s64(t)));
  }
  static void butterfly_pairs(const double* src, double* dst, int pairs) {
    int i = 0;
    for (; i + 2 <= pairs; i += 2) {
      const float64x2x2_t ab = vld2q_f64(src + 2 * i); // deinterleave a|b
      float64x2x2_t r;
      r.val[0] = vaddq_f64(ab.val[0], ab.val[1]);
      r.val[1] = vsubq_f64(ab.val[0], ab.val[1]);
      vst2q_f64(dst + 2 * i, r);
    }
    for (; i < pairs; ++i) {
      const double a = src[2 * i], b = src[2 * i + 1];
      dst[2 * i] = a + b;
      dst[2 * i + 1] = a - b;
    }
  }

  // Integer (uint32) lanes.
  static constexpr int WU = 4;
  using vu = uint32x4_t;
  static vu load_u32(const uint32_t* p) { return vld1q_u32(p); }
  static void store_u32(uint32_t* p, vu v) { vst1q_u32(p, v); }
  static vu set1_u32(uint32_t x) { return vdupq_n_u32(x); }
  static vu add_u32(vu a, vu b) { return vaddq_u32(a, b); }
  static vu sub_u32(vu a, vu b) { return vsubq_u32(a, b); }
  static vu and_u32(vu a, vu b) { return vandq_u32(a, b); }
  static vu srl_u32(vu a, int count) {
    return vshlq_u32(a, vdupq_n_s32(-count)); // negative count = right shift
  }
  static vu select_nz_u32(vu cond, vu a, vu b) {
    const uint32x4_t nz = vtstq_u32(cond, cond); // lane != 0 -> all-ones
    return vbslq_u32(nz, a, b);
  }
};
#endif // __aarch64__

} // namespace matcha::simd
