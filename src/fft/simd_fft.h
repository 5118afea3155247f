// SIMD-vectorized split-format spectral engine -- the fast software path.
//
// Drop-in engine (same concept as DoubleFftEngine/LiftFftEngine: Spectral
// typedefs + to/from_spectral + mac/rot_scale_add/add_*) built for speed on
// commodity CPUs:
//
//   * planar SpectralP operands (aligned re[]/im[] planes, spectral.h) so
//     every kernel is contiguous full-width vector arithmetic;
//   * iterative radix-4 negacyclic FFT with the twist fused into the first
//     forward stage and untwist+scale+round fused into the last inverse
//     stage; the spectrum stays in digit-reversed storage order, so the
//     MAC-only external-product path never runs a bit-reverse pass
//     (fft/spectral_kernels.h documents the dataflow);
//   * kernels hand-vectorized for AVX2+FMA and NEON behind the fft/simd.h
//     policy shim, selected at runtime (common/simd_dispatch.h; the scalar
//     set is the always-available fallback and the MATCHA_SIMD=off CI leg).
//
// Exactness: like the double engine, results are decrypt-path bit-identical
// to the schoolbook reference -- all paths round at the same fixed
// half-away-from-zero point (simd.h rounding contract) and the spectral
// error stays far below half a torus LSB. Scalar and SIMD levels may differ
// in the last float ulps (FMA contraction), which is orders of magnitude
// below the noise a decryption tolerates; tests/test_simd_spectral.cpp pins
// the decrypted-output bit-identity across levels.
//
// Thread safety: engines carry mutable scratch + counters; one engine per
// thread (the BatchExecutor already provisions per-worker engines). The
// DoubleFftEngine remains the exactness/dataflow reference for the paper
// study; this engine is what the software gate path runs.
#pragma once

#include "common/simd_dispatch.h"
#include "fft/engine_counters.h"
#include "fft/spectral.h"
#include "fft/spectral_kernels.h"
#include "math/polynomial.h"
#include "tfhe/tgsw.h"

namespace matcha {

class SimdFftEngine {
 public:
  using Spectral = SpectralP;
  using SpectralAcc = SpectralP;

  explicit SimdFftEngine(int n_ring, SimdLevel level = active_simd_level());

  int ring_n() const { return n_; }
  int spectral_size() const { return m_; }
  SimdLevel level() const { return level_; }
  const char* level_name() const { return kernels_->name; }

  /// Coefficients -> spectral (the paper's "IFFT"), digit-reversed order.
  void to_spectral_int(const IntPolynomial& p, Spectral& out) const;
  void to_spectral_torus(const TorusPolynomial& p, Spectral& out) const;

  /// Spectral -> torus coefficients, wrapped mod 2^32 (the paper's "FFT").
  void from_spectral_torus(const Spectral& s, TorusPolynomial& out) const;

  /// Accumulator interface used by external products: acc += a (*) b.
  void acc_init(SpectralAcc& acc) const;
  void mac(SpectralAcc& acc, const Spectral& a, const Spectral& b) const;
  void from_spectral_acc(const SpectralAcc& acc, TorusPolynomial& out) const {
    from_spectral_torus(acc, out);
  }

  /// Bundle construction primitives (spectral-domain TGSW scale units):
  /// dst += (X^{-c} - 1) * src, c mod 2N. dst must not alias src.
  void rot_scale_add(Spectral& dst, const Spectral& src, int64_t c) const;
  /// dst += g (a constant polynomial has constant spectrum, order-agnostic).
  void add_constant(Spectral& dst, Torus32 g) const;
  /// dst += src.
  void add_assign(Spectral& dst, const Spectral& src) const;

  /// Raw planar entry points for the fused external product below. Each call
  /// is one timed to_spectral / from_spectral kernel invocation (the counter
  /// scope contract of engine_counters.h).
  void forward_raw(const int32_t* in, double* re, double* im) const;
  void inverse_raw(const double* re, const double* im, Torus32* out) const;

  const NegacyclicPlan& plan() const { return plan_; }
  const SpectralKernels& kernels() const { return *kernels_; }
  EngineCounters& counters() const { return counters_; }

 private:
  void ensure_sized(Spectral& s) const;

  int n_, m_;
  SimdLevel level_;
  const SpectralKernels* kernels_;
  NegacyclicPlan plan_;
  mutable AlignedVector<double> work_re_, work_im_;
  mutable EngineCounters counters_;
};

/// Fused external-product workspace: the 2l digit polynomials and their 2l
/// spectral planes live in two contiguous aligned buffers, preallocated once
/// (per BootstrapWorkspace / per worker thread) so the hot path never
/// allocates, and the back-to-back digit FFTs stream through one arena.
template <>
struct ExternalProductWorkspace<SimdFftEngine> {
  int l = 0, n = 0, m = 0;
  AlignedVector<int32_t> digits; ///< 2l planes of n int32 digits
  AlignedVector<double> spec;    ///< 2l planes of re[m] then im[m]
  SimdFftEngine::SpectralAcc acc_a, acc_b;

  ExternalProductWorkspace(const SimdFftEngine& eng, const GadgetParams& g)
      : l(g.l),
        n(eng.ring_n()),
        m(eng.spectral_size()),
        digits(static_cast<size_t>(2 * g.l) * static_cast<size_t>(eng.ring_n()),
               0),
        spec(static_cast<size_t>(2 * g.l) * 2 *
                 static_cast<size_t>(eng.spectral_size()),
             0.0),
        acc_a(eng.spectral_size()),
        acc_b(eng.spectral_size()) {}

  int32_t* digit_plane(int r) { return digits.data() + static_cast<size_t>(r) * n; }
  double* spec_re(int r) { return spec.data() + static_cast<size_t>(r) * 2 * m; }
  double* spec_im(int r) { return spec_re(r) + m; }
};

/// Batched external product for the SIMD engine (preferred over the generic
/// template by overload resolution): vectorized gadget decomposition into
/// the contiguous digit arena, all 2l forward FFTs back-to-back through one
/// workspace, accumulation kept in spectral form, two fused inverse
/// transforms out. Counter scopes: the FFT work lands in
/// to_spectral/from_spectral, decompose+MAC in neither (the breakdown's
/// "other"), with no overlap. `a_is_zero` has the generic template's
/// contract (tfhe/tgsw.h): acc.a is identically zero, so the l a-digit
/// transforms and row MACs are elided and counted as zero_fft_skips.
void external_product(const SimdFftEngine& eng, const GadgetParams& g,
                      const TGswSpectral<SimdFftEngine>& tgsw, TLweSample& acc,
                      ExternalProductWorkspace<SimdFftEngine>& ws,
                      bool a_is_zero = false);

} // namespace matcha
