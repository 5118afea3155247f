// TGSW: the matrix extension of TLWE (each row is a TLWE sample), and the
// external product TGSW (x) TLWE -> TLWE that powers blind rotation.
//
// With k = 1 and gadget length l, a TGSW sample has 2l rows and 2 columns of
// torus polynomials: rows [0, l) carry mu * Bg^{-(j+1)} in column a, rows
// [l, 2l) in column b, on top of fresh zero encryptions. The external product
// decomposes the TLWE operand into 2l digit polynomials ("IFFT" x 2l in the
// paper's accounting), multiply-accumulates against the TGSW rows in the
// spectral domain, and transforms the two result columns back ("FFT" x 2).
#pragma once

#include <array>
#include <cassert>
#include <vector>

#include "math/decompose.h"
#include "tfhe/tlwe.h"

namespace matcha {

/// Coefficient-domain TGSW sample (what keygen produces / what is stored
/// off-chip; the accelerator loads the spectral form below).
struct TGswSample {
  std::vector<TLweSample> rows; ///< 2l rows

  int rows_count() const { return static_cast<int>(rows.size()); }
};

/// Spectral-domain TGSW: rows x 2 columns of engine spectra. This is the
/// in-register form MATCHA's EP cores consume.
template <class Engine>
struct TGswSpectral {
  std::vector<std::array<typename Engine::Spectral, 2>> rows;

  int rows_count() const { return static_cast<int>(rows.size()); }
};

/// Encrypt the small integer message (0/1 products of secret bits for
/// bootstrapping keys) as a TGSW sample.
template <class Engine>
TGswSample tgsw_encrypt(const Engine& eng, const TLweKey& key,
                        const typename Engine::Spectral& key_spectral,
                        const GadgetParams& g, int32_t message, double sigma,
                        Rng& rng) {
  const int n = key.params.n_ring;
  TorusPolynomial zero(n);
  TGswSample out;
  out.rows.resize(2 * g.l);
  for (int r = 0; r < 2 * g.l; ++r) {
    out.rows[r] = tlwe_encrypt(eng, key, key_spectral, zero, sigma, rng);
  }
  // Add mu * H: gadget constants Bg^{-(j+1)} on the diagonal blocks.
  for (int j = 0; j < g.l; ++j) {
    const Torus32 gj = static_cast<Torus32>(message) *
                       (1u << (32 - (j + 1) * g.bg_bits));
    out.rows[j].a.coeffs[0] += gj;
    out.rows[g.l + j].b.coeffs[0] += gj;
  }
  return out;
}

/// Convert a coefficient-domain TGSW to the engine's spectral form
/// ("loading the bootstrapping key into the accelerator").
template <class Engine>
TGswSpectral<Engine> tgsw_to_spectral(const Engine& eng, const TGswSample& s) {
  TGswSpectral<Engine> out;
  out.rows.resize(s.rows.size());
  for (size_t r = 0; r < s.rows.size(); ++r) {
    eng.to_spectral_torus(s.rows[r].a, out.rows[r][0]);
    eng.to_spectral_torus(s.rows[r].b, out.rows[r][1]);
  }
  return out;
}

/// Scratch buffers for external products (allocated once per pipeline).
/// Every buffer -- including each digit spectrum -- is sized up front so the
/// hot path never allocates; the engines' to_spectral resize guards then
/// always no-op. Specialized for the SIMD engine (fft/simd_fft.h) with one
/// contiguous planar arena.
template <class Engine>
struct ExternalProductWorkspace {
  std::vector<IntPolynomial> digits;                ///< 2l digit polynomials
  std::vector<typename Engine::Spectral> digit_spec;
  typename Engine::SpectralAcc acc_a, acc_b;

  ExternalProductWorkspace(const Engine& eng, const GadgetParams& g) {
    const int n = eng.ring_n();
    digits.assign(2 * g.l, IntPolynomial(n));
    digit_spec.assign(2 * g.l,
                      typename Engine::Spectral(eng.spectral_size()));
    eng.acc_init(acc_a);
    eng.acc_init(acc_b);
  }
};

/// acc <- tgsw (x) acc  (the paper's EP operation; Algorithm 1 line 7 inner
/// step). Performs 2l to-spectral ("IFFT") and 2 from-spectral ("FFT") calls.
///
/// `a_is_zero` asserts that acc.a is identically zero (true for the first
/// active step of every blind rotation, where ACC is still the trivial
/// (0, testv * X^{-barb})): the decomposition of 0 is all-zero digits (each
/// digit of the rounding offset is exactly Bg/2, cancelling the recentering
/// half), so the l a-digit transforms and their MACs contribute nothing and
/// are skipped, counted in EngineCounters::zero_fft_skips.
template <class Engine>
void external_product(const Engine& eng, const GadgetParams& g,
                      const TGswSpectral<Engine>& tgsw, TLweSample& acc,
                      ExternalProductWorkspace<Engine>& ws,
                      bool a_is_zero = false) {
#ifndef NDEBUG
  if (a_is_zero) {
    for (const Torus32 cc : acc.a.coeffs) assert(cc == 0);
  }
#endif
  const int r0 = a_is_zero ? g.l : 0;
  // Decompose a into digits [0,l) and b into digits [l,2l).
  if (!a_is_zero) decompose_polynomial(g, acc.a, ws.digits.data());
  decompose_polynomial(g, acc.b, ws.digits.data() + g.l);
  for (int r = r0; r < 2 * g.l; ++r) {
    eng.to_spectral_int(ws.digits[r], ws.digit_spec[r]);
  }
  if (a_is_zero) eng.counters().zero_fft_skips += g.l;
  eng.acc_init(ws.acc_a);
  eng.acc_init(ws.acc_b);
  for (int r = r0; r < 2 * g.l; ++r) {
    eng.mac(ws.acc_a, ws.digit_spec[r], tgsw.rows[r][0]);
    eng.mac(ws.acc_b, ws.digit_spec[r], tgsw.rows[r][1]);
  }
  eng.from_spectral_acc(ws.acc_a, acc.a);
  eng.from_spectral_acc(ws.acc_b, acc.b);
}

} // namespace matcha
