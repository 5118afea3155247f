// Generic planar-kernel bodies, templated over a fft/simd.h policy.
//
// Included by the per-ISA translation units only
// (spectral_kernels{,_avx2,_avx512,_neon}.cpp); never include this from
// headers. Each elementwise loop runs a full-width vector body followed by a
// simd::Scalar tail. The late radix-4 stages have quarters narrower than a
// vector: q = 2 (every N = 2*4^t ring, e.g. N = 256 and 1024) runs on full
// vectors through the policy's quarter transpose (radix4_stage_q2); q = 1
// and q = 4 under AVX-512 (N = 4^t rings) keep the tail, which reuses the
// exact same butterfly core at W = 1.
//
// Index-heavy kernels that need integer lanes (rot_scale_add's table
// gathers, decompose's shift/mask pipeline) get portable scalar bodies here;
// the AVX2 TU overrides them with hand-vectorized versions.
#pragma once

#include <cstdint>

#include "fft/simd.h"
#include "fft/spectral_kernels.h"

namespace matcha::detail {

// The butterfly and bundle-MAC step helpers below are forced inline: they
// run once per vector step inside the stage and slot loops, and the
// compiler's size heuristics otherwise outline the larger instantiations,
// turning each step into a call that spills every live vector.

/// Radix-4 DIF butterfly on register values (forward, sign +1): x[0..3]
/// in, the four outputs back in x, outputs 1..3 multiplied by the stage
/// twiddles w[0..2]. Every forward stage, narrow or wide, runs this body.
template <class P>
[[gnu::always_inline]] inline void dif_core(typename P::vd xr[4], typename P::vd xi[4],
                     const typename P::vd wr[3], const typename P::vd wi[3]) {
  using v = typename P::vd;
  const v t0r = P::add(xr[0], xr[2]), t0i = P::add(xi[0], xi[2]);
  const v t1r = P::sub(xr[0], xr[2]), t1i = P::sub(xi[0], xi[2]);
  const v t2r = P::add(xr[1], xr[3]), t2i = P::add(xi[1], xi[3]);
  const v t3r = P::sub(xr[1], xr[3]), t3i = P::sub(xi[1], xi[3]);

  const v br[3] = {P::sub(t1r, t3i), P::sub(t0r, t2r),  // t1 + i*t3, t0 - t2
                   P::add(t1r, t3i)};                   // t1 - i*t3
  const v bi[3] = {P::add(t1i, t3r), P::sub(t0i, t2i), P::sub(t1i, t3r)};
  xr[0] = P::add(t0r, t2r);
  xi[0] = P::add(t0i, t2i);
#pragma GCC unroll 4
  for (int r = 0; r < 3; ++r) {
    xr[r + 1] = P::fmsub(br[r], wr[r], P::mul(bi[r], wi[r]));
    xi[r + 1] = P::fmadd(br[r], wi[r], P::mul(bi[r], wr[r]));
  }
}

/// Radix-4 DIT butterfly on register values (inverse, sign -1; the stage
/// holds conjugated twiddles): inputs 1..3 are twiddled first, the four
/// outputs come back in x.
template <class P>
[[gnu::always_inline]] inline void dit_core(typename P::vd xr[4], typename P::vd xi[4],
                     const typename P::vd wr[3], const typename P::vd wi[3]) {
  using v = typename P::vd;
  v ar[4], ai[4];
  ar[0] = xr[0];
  ai[0] = xi[0];
#pragma GCC unroll 4
  for (int r = 1; r < 4; ++r) {
    ar[r] = P::fmsub(xr[r], wr[r - 1], P::mul(xi[r], wi[r - 1]));
    ai[r] = P::fmadd(xr[r], wi[r - 1], P::mul(xi[r], wr[r - 1]));
  }
  const v s0r = P::add(ar[0], ar[2]), s0i = P::add(ai[0], ai[2]);
  const v s1r = P::sub(ar[0], ar[2]), s1i = P::sub(ai[0], ai[2]);
  const v s2r = P::add(ar[1], ar[3]), s2i = P::add(ai[1], ai[3]);
  const v s3r = P::sub(ar[1], ar[3]), s3i = P::sub(ai[1], ai[3]);
  xr[0] = P::add(s0r, s2r);
  xi[0] = P::add(s0i, s2i);
  xr[1] = P::add(s1r, s3i); // s1 - i*s3
  xi[1] = P::sub(s1i, s3r);
  xr[2] = P::sub(s0r, s2r);
  xi[2] = P::sub(s0i, s2i);
  xr[3] = P::sub(s1r, s3i); // s1 + i*s3
  xi[3] = P::add(s1i, s3r);
}

/// The stage's three twiddle pairs at quarter offset j.
template <class P>
[[gnu::always_inline]] inline void load_twiddles(const PlanStage& st, int j, typename P::vd wr[3],
                          typename P::vd wi[3]) {
  wr[0] = P::load(st.w1r() + j), wi[0] = P::load(st.w1i() + j);
  wr[1] = P::load(st.w2r() + j), wi[1] = P::load(st.w2i() + j);
  wr[2] = P::load(st.w3r() + j), wi[2] = P::load(st.w3i() + j);
}

/// Radix-4 DIF butterfly (forward) at slot `base + j`, in place on re/im.
template <class P>
[[gnu::always_inline]] inline void dif_butterfly(const PlanStage& st, double* __restrict re,
                          double* __restrict im, int base, int j) {
  using v = typename P::vd;
  const int q = st.q;
  double* r0 = re + base + j;
  double* i0 = im + base + j;
  v xr[4], xi[4], wr[3], wi[3];
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) {
    xr[r] = P::load(r0 + r * q);
    xi[r] = P::load(i0 + r * q);
  }
  load_twiddles<P>(st, j, wr, wi);
  dif_core<P>(xr, xi, wr, wi);
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) {
    P::store(r0 + r * q, xr[r]);
    P::store(i0 + r * q, xi[r]);
  }
}

/// First forward stage (size m): the negacyclic twist is fused into the
/// input loads, z[t] = (in[t] + i*in[t+m]) * twist[t].
template <class P>
[[gnu::always_inline]] inline void dif_butterfly_twist(const NegacyclicPlan& plan,
                                const PlanStage& st,
                                const int32_t* __restrict in,
                                double* __restrict re, double* __restrict im,
                                int j) {
  using v = typename P::vd;
  const int q = st.q;
  const int m = plan.m;
  v xr[4], xi[4], wr[3], wi[3];
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) {
    const int t = j + r * q;
    const v lo = P::load_i32(in + t);
    const v hi = P::load_i32(in + t + m);
    const v twr = P::load(plan.twist_re.data() + t);
    const v twi = P::load(plan.twist_im.data() + t);
    xr[r] = P::fmsub(lo, twr, P::mul(hi, twi));
    xi[r] = P::fmadd(lo, twi, P::mul(hi, twr));
  }
  load_twiddles<P>(st, j, wr, wi);
  dif_core<P>(xr, xi, wr, wi);
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) {
    P::store(re + j + r * q, xr[r]);
    P::store(im + j + r * q, xi[r]);
  }
}

/// Radix-4 DIT butterfly (inverse). Reads inr/ini, writes outr/outi at the
/// same slots (pointers may be equal for the in-place middle stages).
template <class P>
[[gnu::always_inline]] inline void dit_butterfly(const PlanStage& st, const double* inr,
                          const double* ini, double* outr, double* outi,
                          int base, int j) {
  using v = typename P::vd;
  const int q = st.q;
  v xr[4], xi[4], wr[3], wi[3];
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) {
    xr[r] = P::load(inr + base + j + r * q);
    xi[r] = P::load(ini + base + j + r * q);
  }
  load_twiddles<P>(st, j, wr, wi);
  dit_core<P>(xr, xi, wr, wi);
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) {
    P::store(outr + base + j + r * q, xr[r]);
    P::store(outi + base + j + r * q, xi[r]);
  }
}

/// Last inverse stage (size m): the four outputs are untwisted, scaled by
/// 1/m (folded into plan.itwist), rounded half-away-from-zero, and stored as
/// wrapped Torus32 coefficients out[t] (real) / out[t+m] (imag).
template <class P>
[[gnu::always_inline]] inline void dit_last_butterfly(const NegacyclicPlan& plan,
                               const PlanStage& st,
                               const double* __restrict inr,
                               const double* __restrict ini,
                               uint32_t* __restrict out, int j) {
  using v = typename P::vd;
  const int q = st.q;
  const int m = plan.m;
  v xr[4], xi[4], wr[3], wi[3];
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) {
    xr[r] = P::load(inr + j + r * q);
    xi[r] = P::load(ini + j + r * q);
  }
  load_twiddles<P>(st, j, wr, wi);
  dit_core<P>(xr, xi, wr, wi);
#pragma GCC unroll 4
  for (int r = 0; r < 4; ++r) {
    const int t = j + r * q;
    const v twr = P::load(plan.itwist_re.data() + t);
    const v twi = P::load(plan.itwist_im.data() + t);
    const v outr = P::fmsub(xr[r], twr, P::mul(xi[r], twi));
    const v outi = P::fmadd(xr[r], twi, P::mul(xi[r], twr));
    P::store_torus(out + t, P::round_away(outr));
    P::store_torus(out + t + m, P::round_away(outi));
  }
}

/// Policies wider than two lanes provide the q = 2 quarter transpose
/// (load_q2/store_q2/bcast_q2, fft/simd.h): the narrow stage then runs on
/// full vectors instead of the simd::Scalar tail.
template <class P>
concept HasQ2Transpose =
    requires(const double* p, double* o, typename P::vd* x) {
      P::load_q2(p, x);
      P::store_q2(o, x);
      P::bcast_q2(p);
    };

/// A q = 2 radix-4 stage (butterfly span 8) over all m slots, for policies
/// with W > 2. Each iteration transposes 4W contiguous slots -- W/2 whole
/// butterfly blocks -- so vector x[r] holds quarter r of every block, runs
/// the shared butterfly core lane-wise with the twiddle pair broadcast, and
/// transposes back. kInverse selects the DIT core; in/out may be equal.
/// Blocks past the last full vector group (m < 4W) take the scalar tail.
template <class P, bool kInverse>
void radix4_stage_q2(const PlanStage& st, const double* inr, const double* ini,
                     double* outr, double* outi, int m) {
  using v = typename P::vd;
  const v wr[3] = {P::bcast_q2(st.w1r()), P::bcast_q2(st.w2r()),
                   P::bcast_q2(st.w3r())};
  const v wi[3] = {P::bcast_q2(st.w1i()), P::bcast_q2(st.w2i()),
                   P::bcast_q2(st.w3i())};
  int base = 0;
  for (; base + 4 * P::W <= m; base += 4 * P::W) {
    v xr[4], xi[4];
    P::load_q2(inr + base, xr);
    P::load_q2(ini + base, xi);
    if constexpr (kInverse) {
      dit_core<P>(xr, xi, wr, wi);
    } else {
      dif_core<P>(xr, xi, wr, wi);
    }
    P::store_q2(outr + base, xr);
    P::store_q2(outi + base, xi);
  }
  for (; base < m; base += st.size) {
    for (int k = 0; k < st.q; ++k) {
      if constexpr (kInverse) {
        dit_butterfly<simd::Scalar>(st, inr, ini, outr, outi, base, k);
      } else {
        dif_butterfly<simd::Scalar>(st, outr, outi, base, k);
      }
    }
  }
}

/// Per-sample subset sums of bundle_mac: column 0 and 1, re and im.
template <class P>
struct SubsetSums {
  typename P::vd r0, i0, r1, i1;
};

/// One key row of bundle_mac_slots: the row's four planes at kb are loaded
/// once and multiplied into every sample's digit spectrum at s[b] + off;
/// kFirst sets the subset sums u, later rows add to them.
template <class P, int K, bool kFirst>
[[gnu::always_inline]] inline void bundle_mac_row(const double* __restrict kb,
                                                  double* const* s, size_t off,
                                                  size_t m, SubsetSums<P>* u) {
  using v = typename P::vd;
  const v c0r = P::load(kb), c0i = P::load(kb + m);
  const v c1r = P::load(kb + 2 * m), c1i = P::load(kb + 3 * m);
#pragma GCC unroll 8
  for (int b = 0; b < K; ++b) {
    const double* x = s[b] + off;
    const v xr = P::load(x), xi = P::load(x + m);
    const v p0r = P::fmsub(xr, c0r, P::mul(xi, c0i));
    const v p0i = P::fmadd(xr, c0i, P::mul(xi, c0r));
    const v p1r = P::fmsub(xr, c1r, P::mul(xi, c1i));
    const v p1i = P::fmadd(xr, c1i, P::mul(xi, c1r));
    if constexpr (kFirst) {
      u[b] = {p0r, p0i, p1r, p1i};
    } else {
      u[b].r0 = P::add(u[b].r0, p0r);
      u[b].i0 = P::add(u[b].i0, p0i);
      u[b].r1 = P::add(u[b].r1, p1r);
      u[b].i1 = P::add(u[b].i1, p1i);
    }
  }
}

/// One P::W-slot step of the fused bundle-MAC (SpectralKernels::bundle_mac)
/// at slot k for a block of K samples s[0..K). Each key row is loaded once
/// for the whole block; the per-sample subset sums u = sum_r d_r (*) BK_r
/// (first row set, the rest added in row order) stay in registers, and the
/// rotation factor then adds f (*) u into the sample's accumulator planes.
/// A sample's arithmetic never depends on K or on its place in the block.
/// The row loop stays rolled: fully unrolled, GCC hoists every row's
/// products ahead of the sums and spills them (seen at K = 4 on AVX-512,
/// 56 spill slots in the hot loop), while the rolled loop carries the 4K
/// sums in registers.
template <class P, int M, int NR, int K>
[[gnu::always_inline]] inline void bundle_mac_slots(
    int m_rt, int rows_rt, const double* __restrict key, double* const* s,
    int k) {
  using v = typename P::vd;
  const size_t m = static_cast<size_t>(M > 0 ? M : m_rt);
  const int rows = NR > 0 ? NR : rows_rt;
  const size_t kk = static_cast<size_t>(k);
  SubsetSums<P> u[K];
  bundle_mac_row<P, K, true>(key + kk, s, kk, m, u);
#pragma GCC unroll 1
  for (int r = 1; r < rows; ++r) {
    bundle_mac_row<P, K, false>(key + static_cast<size_t>(r) * 4 * m + kk, s,
                                static_cast<size_t>(r) * 2 * m + kk, m, u);
  }
#pragma GCC unroll 8
  for (int b = 0; b < K; ++b) {
    double* acc = s[b] + static_cast<size_t>(rows) * 2 * m + kk;
    const double* f = acc + 4 * m; // rotation factor planes follow the acc
    const v fr = P::load(f), fi = P::load(f + m);
    const v sums[4] = {u[b].r0, u[b].i0, u[b].r1, u[b].i1};
#pragma GCC unroll 2
    for (int c = 0; c < 2; ++c) { // column c: acc planes 2c (re), 2c+1 (im)
      const v ur = sums[2 * c], ui = sums[2 * c + 1];
      double* ar = acc + 2 * c * m;
      double* ai = ar + m;
      P::store(ar, P::add(P::load(ar), P::fmsub(fr, ur, P::mul(fi, ui))));
      P::store(ai, P::add(P::load(ai), P::fmadd(fr, ui, P::mul(fi, ur))));
    }
  }
}

template <class V>
struct PlanarKernels {
  // The #pragma GCC ivdep below assert what the butterfly index algebra
  // guarantees: iterations j != j' (both < q) touch disjoint slots of every
  // stream, so the loops carry no dependence. With them (plus the
  // __restrict butterfly parameters) the simd::Scalar instantiation
  // auto-vectorizes to the baseline ISA; without them the alias-versioning
  // budget overflows and the scalar tier stays serial.
  static void forward(const NegacyclicPlan& plan, const int32_t* __restrict in,
                      double* __restrict re, double* __restrict im) {
    const int m = plan.m;
    const PlanStage& st0 = plan.fwd.front();
    int j = 0;
#pragma GCC ivdep
    for (; j + V::W <= st0.q; j += V::W) {
      dif_butterfly_twist<V>(plan, st0, in, re, im, j);
    }
    for (; j < st0.q; ++j) {
      dif_butterfly_twist<simd::Scalar>(plan, st0, in, re, im, j);
    }
    for (size_t s = 1; s < plan.fwd.size(); ++s) {
      const PlanStage& st = plan.fwd[s];
      if constexpr (HasQ2Transpose<V>) {
        if (st.q == 2) {
          radix4_stage_q2<V, false>(st, re, im, re, im, m);
          continue;
        }
      }
      for (int base = 0; base < m; base += st.size) {
        int k = 0;
#pragma GCC ivdep
        for (; k + V::W <= st.q; k += V::W) dif_butterfly<V>(st, re, im, base, k);
        for (; k < st.q; ++k) dif_butterfly<simd::Scalar>(st, re, im, base, k);
      }
    }
    if (plan.pair_stage) {
      V::butterfly_pairs(re, re, m / 2);
      V::butterfly_pairs(im, im, m / 2);
    }
  }

  static void inverse_torus(const NegacyclicPlan& plan, const double* sre,
                            const double* sim, double* wre, double* wim,
                            uint32_t* out) {
    const int m = plan.m;
    const double* cr = sre;
    const double* ci = sim;
    if (plan.pair_stage) {
      V::butterfly_pairs(sre, wre, m / 2);
      V::butterfly_pairs(sim, wim, m / 2);
      cr = wre;
      ci = wim;
    }
    for (size_t s = 0; s + 1 < plan.inv.size(); ++s) {
      const PlanStage& st = plan.inv[s];
      if constexpr (HasQ2Transpose<V>) {
        if (st.q == 2) {
          radix4_stage_q2<V, true>(st, cr, ci, wre, wim, m);
          cr = wre;
          ci = wim;
          continue;
        }
      }
      for (int base = 0; base < m; base += st.size) {
        int k = 0;
        // Same disjoint-slot argument as forward (dit_butterfly keeps plain
        // pointers because the middle stages run it in-place, cr == wre).
#pragma GCC ivdep
        for (; k + V::W <= st.q; k += V::W) {
          dit_butterfly<V>(st, cr, ci, wre, wim, base, k);
        }
        for (; k < st.q; ++k) {
          dit_butterfly<simd::Scalar>(st, cr, ci, wre, wim, base, k);
        }
      }
      cr = wre;
      ci = wim;
    }
    const PlanStage& last = plan.inv.back();
    int j = 0;
#pragma GCC ivdep
    for (; j + V::W <= last.q; j += V::W) {
      dit_last_butterfly<V>(plan, last, cr, ci, out, j);
    }
    for (; j < last.q; ++j) {
      dit_last_butterfly<simd::Scalar>(plan, last, cr, ci, out, j);
    }
  }

  static void mac(int m, const double* ar, const double* ai, const double* br,
                  const double* bi, double* accr, double* acci) {
    using v = typename V::vd;
    int k = 0;
    for (; k + V::W <= m; k += V::W) {
      const v xr = V::load(ar + k), xi = V::load(ai + k);
      const v yr = V::load(br + k), yi = V::load(bi + k);
      const v rr = V::fmsub(xr, yr, V::mul(xi, yi));
      const v ri = V::fmadd(xr, yi, V::mul(xi, yr));
      V::store(accr + k, V::add(V::load(accr + k), rr));
      V::store(acci + k, V::add(V::load(acci + k), ri));
    }
    for (; k < m; ++k) {
      accr[k] += ar[k] * br[k] - ai[k] * bi[k];
      acci[k] += ar[k] * bi[k] + ai[k] * br[k];
    }
  }

  static void add_assign(int m, double* dr, double* di, const double* sr,
                         const double* si) {
    int k = 0;
    for (; k + V::W <= m; k += V::W) {
      V::store(dr + k, V::add(V::load(dr + k), V::load(sr + k)));
      V::store(di + k, V::add(V::load(di + k), V::load(si + k)));
    }
    for (; k < m; ++k) {
      dr[k] += sr[k];
      di[k] += si[k];
    }
  }

  static void scale_add(int m, double* dr, double* di, const double* sr,
                        const double* si, double c) {
    using v = typename V::vd;
    const v vc = V::set1(c);
    int k = 0;
    for (; k + V::W <= m; k += V::W) {
      V::store(dr + k, V::fmadd(vc, V::load(sr + k), V::load(dr + k)));
      V::store(di + k, V::fmadd(vc, V::load(si + k), V::load(di + k)));
    }
    for (; k < m; ++k) {
      dr[k] += c * sr[k];
      di[k] += c * si[k];
    }
  }

  /// bundle_mac over one block of K samples (K <= V::kSampleBlock, fixed at
  /// compile time so the 4K subset sums stay in vector registers). M > 0
  /// pins the spectral size, so every plane and row offset is a constant
  /// displacement or stride off one base register per sample plus one for
  /// the key; NR > 0 pins the row count, without which the scalar tier's
  /// auto-vectorized loop runs about 2x slower. 0 takes the runtime value.
  template <int M, int NR, int K>
  static void bundle_mac_block(int m_rt, int rows, const double* key,
                               double* const* samples) {
    const int m = M > 0 ? M : m_rt;
    double* s[K];
#pragma GCC unroll 8
    for (int b = 0; b < K; ++b) s[b] = samples[b];
    int k = 0;
    // Iterations touch disjoint slots k of every stream (the samples' blocks
    // and the key are distinct buffers by contract), as in the FFT loops.
#pragma GCC ivdep
    for (; k + V::W <= m; k += V::W) {
      bundle_mac_slots<V, M, NR, K>(m_rt, rows, key, s, k);
    }
    for (; k < m; ++k) {
      bundle_mac_slots<simd::Scalar, M, NR, K>(m_rt, rows, key, s, k);
    }
  }

  /// The last count % kSampleBlock samples, as one block of that size.
  template <int M, int NR, int K>
  static void bundle_mac_rest(int m, int rows, const double* key, int rest,
                              double* const* samples) {
    if constexpr (K > 0) {
      if (rest == K) return bundle_mac_block<M, NR, K>(m, rows, key, samples);
      bundle_mac_rest<M, NR, K - 1>(m, rows, key, rest, samples);
    }
  }

  template <int M, int NR>
  static void bundle_mac_mr(int m, int rows, const double* key, int count,
                            double* const* samples) {
    constexpr int kBlock = V::kSampleBlock;
    int b = 0;
    for (; b + kBlock <= count; b += kBlock) {
      bundle_mac_block<M, NR, kBlock>(m, rows, key, samples + b);
    }
    bundle_mac_rest<M, NR, kBlock - 1>(m, rows, key, count - b, samples + b);
  }

  template <int M>
  static void bundle_mac_m(int m, int rows, const double* key, int count,
                           double* const* samples) {
    switch (rows) { // 2l and l (pristine samples) at the shipped l = 3
      case 6:
        return bundle_mac_mr<M, 6>(m, rows, key, count, samples);
      case 3:
        return bundle_mac_mr<M, 3>(m, rows, key, count, samples);
      default:
        return bundle_mac_mr<0, 0>(m, rows, key, count, samples);
    }
  }

  static void bundle_mac(int m, int rows, const double* key, int count,
                         double* const* samples) {
    // Specialize the common spectral sizes (N = 256/1024/2048 rings);
    // anything else takes the runtime-m path.
    switch (m) {
      case 128:
        return bundle_mac_m<128>(m, rows, key, count, samples);
      case 512:
        return bundle_mac_m<512>(m, rows, key, count, samples);
      case 1024:
        return bundle_mac_m<1024>(m, rows, key, count, samples);
      default:
        return bundle_mac_mr<0, 0>(m, rows, key, count, samples);
    }
  }
};

/// Portable rot_scale_add: per slot, two table lookups replace the serial
/// f *= step recurrence (mod 2N is a mask -- N is a power of two).
inline void generic_rot_scale_add(const NegacyclicPlan& plan, double* dr,
                                  double* di, const double* sr,
                                  const double* si, int64_t c) {
  const int64_t two_n = 2 * static_cast<int64_t>(plan.n);
  const uint32_t mask = static_cast<uint32_t>(two_n - 1);
  const uint32_t cm = static_cast<uint32_t>((c % two_n) + two_n) & mask;
  for (int k = 0; k < plan.m; ++k) {
    const uint32_t idx =
        (static_cast<uint32_t>(plan.ft1[k]) * cm) & mask;
    const double fr = plan.rot_re[idx] - 1.0;
    const double fi = plan.rot_im[idx];
    dr[k] += fr * sr[k] - fi * si[k];
    di[k] += fr * si[k] + fi * sr[k];
  }
}

/// Portable rotation-factor materialization: fr/fi receive the pointwise
/// X^{-c} - 1 factor in storage order (same ft1 gathers as rot_scale_add).
/// The fused bundle path calls this once per sample and active key subset,
/// hoisting the table gathers out of the bundle_mac hot loop -- the factor
/// is identical for all 2l decomposition rows of a subset.
inline void generic_rot_factor(const NegacyclicPlan& plan,
                               double* __restrict fr, double* __restrict fi,
                               int64_t c) {
  const int64_t two_n = 2 * static_cast<int64_t>(plan.n);
  const uint32_t mask = static_cast<uint32_t>(two_n - 1);
  const uint32_t cm = static_cast<uint32_t>((c % two_n) + two_n) & mask;
  for (int k = 0; k < plan.m; ++k) {
    const uint32_t idx =
        (static_cast<uint32_t>(plan.ft1[k]) * cm) & mask;
    fr[k] = plan.rot_re[idx] - 1.0;
    fi[k] = plan.rot_im[idx];
  }
}

/// Portable signed gadget decomposition; one contiguous pass per digit.
inline void generic_decompose(int l, int bg_bits, uint32_t offset, int n,
                              const uint32_t* p, int32_t* const* digits) {
  const uint32_t mask = (1u << bg_bits) - 1;
  const int32_t half = 1 << (bg_bits - 1);
  for (int j = 0; j < l; ++j) {
    const int sh = 32 - (j + 1) * bg_bits;
    int32_t* dj = digits[j];
    for (int i = 0; i < n; ++i) {
      dj[i] = static_cast<int32_t>(((p[i] + offset) >> sh) & mask) - half;
    }
  }
}

// ---------------------------------------------------- keyswitch kernels
// Pure uint32 arithmetic (exact mod 2^32): every policy's lanes compute the
// same bits, so the vector body + scalar tail split never changes results.

/// Streaming row accumulate: dst[k] -= src[k] over n uint32 lanes.
template <class V>
void u32_sub(uint32_t* dst, const uint32_t* src, int n) {
  int k = 0;
  for (; k + V::WU <= n; k += V::WU) {
    V::store_u32(dst + k, V::sub_u32(V::load_u32(dst + k), V::load_u32(src + k)));
  }
  for (; k < n; ++k) dst[k] -= src[k];
}

/// Digit extraction for one input sample, j-major (out[j*n_in + i]) so the
/// batch accumulate walks the SoA key rows and the digit array in lockstep.
template <class V>
void ks_digits(const uint32_t* a, int n_in, int t, int basebit, uint32_t off,
               uint32_t* out) {
  const uint32_t mask = (1u << basebit) - 1;
  const auto voff = V::set1_u32(off);
  const auto vmask = V::set1_u32(mask);
  for (int j = 0; j < t; ++j) {
    const int sh = 32 - (j + 1) * basebit;
    uint32_t* oj = out + static_cast<size_t>(j) * n_in;
    int i = 0;
    for (; i + V::WU <= n_in; i += V::WU) {
      const auto biased = V::add_u32(V::load_u32(a + i), voff);
      V::store_u32(oj + i, V::and_u32(V::srl_u32(biased, sh), vmask));
    }
    for (; i < n_in; ++i) oj[i] = ((a[i] + off) >> sh) & mask;
  }
}

/// Gathered b-plane sum. Scalar body -- the b plane is `rows` words against
/// the a planes' `rows*n_out`, so this is off the roofline; the AVX2/AVX-512
/// TUs override it with masked hardware gathers.
inline uint32_t generic_ks_gather_b(const uint32_t* d, const uint32_t* b_plane,
                                    int rows, int base) {
  const int stride = base - 1;
  uint32_t acc = 0;
  for (int r = 0; r < rows; ++r) {
    const uint32_t v = d[r];
    if (v != 0) acc += b_plane[static_cast<size_t>(r) * stride + (v - 1)];
  }
  return acc;
}

} // namespace matcha::detail
