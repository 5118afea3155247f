// Bootstrapping-key-bundle construction (paper Fig. 5 / Fig. 6 step 1).
//
// For one group of m secret bits with mod-switched mask values a_i, the
// bundle is the spectral-domain TGSW
//     BKB = H + sum_{S != 0} (X^{c_S} - 1) * BK_S,
// where c_S = ModSwitch(sum_{i in S} a_i) is rounded ONCE per subset -- this
// is why the rounding noise scales as RO/m in Table 3 (one rounding per
// group on the active pattern instead of m independent roundings).
//
// In MATCHA this is the TGSW cluster's job: each TGSW scale unit computes one
// (X^{c_S} - 1) * BK_S term with plain integer multipliers, and the adder
// tree sums the terms. An EP core then computes ACC <- BKB (x) ACC.
#pragma once

#include <cstdint>
#include <vector>

#include "bku/unrolled_key.h"
#include "common/aligned.h"
#include "fft/simd_fft.h"
#include "math/decompose.h"

namespace matcha {

/// Per-sample blind-rotation progress, one per sample of blind_rotate_batch
/// (tfhe/bootstrap.h). `pristine` stays true until the first
/// external product actually executes, i.e. while ACC is still exactly the
/// trivial (0, testv * X^{-barb}); that is what licenses the first-group
/// fast paths (zero a-digit spectra, cached test-vector spectra).
struct BlindRotateState {
  int32_t barb = 0;     ///< ModSwitch_{2N}(x.b) for this sample
  bool pristine = true; ///< no external product has touched ACC yet
  /// ACC started from the constant gate test vector the flush's
  /// GateTestvSpectra describes, so its pristine step may synthesize the
  /// b-digit spectra from the cache.
  bool gate_testv = false;
};

/// Spectral cache of the constant gate test vector (the ROADMAP residual
/// "spectral-domain caching of the rotated test vector"). For the gate
/// bootstrap, testv is the all-mu polynomial, so the rotated accumulator
/// b-part testv * X^{-barb} has coefficients +-mu and its gadget digit j
/// takes one of two values per coefficient: d+ = digit_j(mu) where the sign
/// survived, d- = digit_j(-mu) where the negacyclic wrap flipped it. With
/// alpha_j = d+ and beta_j = (d+ - d-)/2 (exact half-integers in double),
///     DigitPoly_j = d+ * ones + beta_j * ((X^{-barb} - 1) * ones),
/// so every b-digit spectrum synthesizes pointwise from ONE cached forward
/// transform F(ones) plus one rot_scale_add per sample -- no per-group digit
/// FFTs on the pristine step. Only the fused SIMD bundle path consumes this
/// (the integer lift engine's exactness contract does not admit the
/// half-integer beta); generic engines still get the zero-a skip.
struct GateTestvSpectra {
  bool mu_valid = false; ///< dplus/beta below match `mu`
  Torus32 mu = 0;
  std::vector<double> dplus, beta; ///< per digit j in [0, l)

  bool ones_valid = false;    ///< `ones` holds F(all-ones) for this plan
  AlignedVector<double> ones; ///< re[m] then im[m] of F(ones)
  AlignedVector<double> rot;  ///< scratch: (X^{-barb} - 1) (*) F(ones)
};

/// Fill the per-digit constants of `tc` for gate amplitude `mu` (engine
/// independent; the spectral planes are populated lazily by the fused path).
void set_gate_testv_digits(GateTestvSpectra& tc, Torus32 mu,
                           const GadgetParams& g);

/// Subset exponents for one group: out[mask-1] = ModSwitch_{2N}(sum_{i in
/// mask} a_i), mask in [1, 2^mg). Single rounding per subset.
void group_subset_exponents(const Torus32* a_group, int mg, int n_ring,
                            std::vector<int32_t>& out);

/// Build the bundle for group `g` given the subset exponents. `bundle` must
/// be pre-sized (2l rows x 2 cols of engine spectra). Returns false when all
/// exponents are zero (bundle would be the identity H; caller can skip the
/// external product entirely, as the TFHE library does for barai == 0).
template <class Engine>
bool build_bundle(const Engine& eng, const DeviceBootstrapKey<Engine>& key,
                  int g, const std::vector<int32_t>& exponents,
                  TGswSpectral<Engine>& bundle) {
  const auto& gadget = key.gadget;
  const int rows = 2 * gadget.l;
  bool any = false;
  for (int r = 0; r < rows; ++r) {
    bundle.rows[r][0].clear();
    bundle.rows[r][1].clear();
  }
  for (size_t idx = 0; idx < exponents.size(); ++idx) {
    const int32_t c = exponents[idx];
    if (c == 0) continue; // (X^0 - 1) = 0
    any = true;
    const auto& bk = key.groups[g][idx];
    for (int r = 0; r < rows; ++r) {
      // Blind rotation multiplies ACC by X^{+c}; rot_scale_add applies
      // (X^{-c} - 1), hence the negated exponent.
      eng.rot_scale_add(bundle.rows[r][0], bk.rows[r][0], -static_cast<int64_t>(c));
      eng.rot_scale_add(bundle.rows[r][1], bk.rows[r][1], -static_cast<int64_t>(c));
    }
  }
  if (!any) return false;
  // Add the gadget identity H (constant polynomials Bg^{-(j+1)}).
  for (int j = 0; j < gadget.l; ++j) {
    const Torus32 gj = 1u << (32 - (j + 1) * gadget.bg_bits);
    eng.add_constant(bundle.rows[j][0], gj);
    eng.add_constant(bundle.rows[gadget.l + j][1], gj);
  }
  return true;
}

/// Grow-only per-flush arena of the SIMD engine's fused group step
/// (BootstrapWorkspace::batch_flush; generic engines leave it empty). Each
/// live sample -- one whose subset exponents are not all zero -- owns one
/// block of (4l + 6) * m doubles: its 2l digit spectra, its four
/// accumulator planes, and the rotation factor of the subset being applied
/// (the SpectralKernels::bundle_mac sample layout).
struct BundleFlushArena {
  AlignedVector<double> blocks;
  std::vector<int> live;          ///< flush index of each live sample
  std::vector<int32_t> exponents; ///< live sample i's subset exponents
  std::vector<double*> macs;      ///< one bundle_mac call's sample blocks
};

/// One bundle-mode blind-rotation group step over a flush of B samples:
/// ACC_b <- BKB_{g,b} (x) ACC_b for every sample b, skipped for a sample
/// whose subset exponents are all zero (its BKB is the identity H). A
/// sample's result never depends on the flush around it, which is what
/// makes the batched blind rotation bit-identical to B = 1 calls. Generic
/// engines materialize each sample's bundle (build_bundle +
/// external_product, with the pristine zero-a skip); the SimdFftEngine
/// overload below fuses the subset rotations into the MAC and never
/// materializes a bundle. `tc` may be null; when set it must describe the
/// initial constant test vector of every sample whose state has
/// `gate_testv` set (the other samples ignore it).
template <class Engine>
void bundle_group_step(const Engine& eng, const DeviceBootstrapKey<Engine>& key,
                       int g, const LweSample* const* xs, int batch,
                       TLweSample* accs, BlindRotateState* sts,
                       std::vector<int32_t>& exponents,
                       TGswSpectral<Engine>& bundle,
                       ExternalProductWorkspace<Engine>& ws,
                       BundleFlushArena& /*arena*/, GateTestvSpectra* /*tc*/) {
  // Spectral test-vector reuse is a fused-path (SIMD) optimization.
  for (int b = 0; b < batch; ++b) {
    group_subset_exponents(xs[b]->a.data() + g * key.unroll_m, key.members(g),
                           eng.ring_n(), exponents);
    if (!build_bundle(eng, key, g, exponents, bundle)) continue;
    external_product(eng, key.gadget, bundle, accs[b], ws,
                     /*a_is_zero=*/sts[b].pristine);
    sts[b].pristine = false;
  }
}

/// Fused bundle-MAC group step for the SIMD engine (bku/bundle.cpp), in
/// three phases over the flush's live samples. (1) Per sample: the digit
/// spectra of ACC and the gadget identity H (real scale_adds of the digit
/// spectra) into the sample's arena block. On the pristine step the a-half
/// vanishes (zero_fft_skips) and, for a sample that started from the
/// constant gate test vector `tc` carries, the b-digit spectra synthesize
/// from the cached F(ones) instead of running forward FFTs
/// (testv_fft_reuses). (2) Per key subset: each
/// sample's rotation factor X^{-c} - 1 (rot_factor), then ONE bundle_mac
/// call that streams the subset's key block once per block of samples and
/// adds f (*) sum_r d_r (*) BK_r into every sample's accumulator. (3) Per
/// sample: the two inverse transforms. Requires the key's SoA arena
/// (load_bootstrap_key packs it).
void bundle_group_step(const SimdFftEngine& eng,
                       const DeviceBootstrapKey<SimdFftEngine>& key, int g,
                       const LweSample* const* xs, int batch, TLweSample* accs,
                       BlindRotateState* sts, std::vector<int32_t>& exponents,
                       TGswSpectral<SimdFftEngine>& bundle,
                       ExternalProductWorkspace<SimdFftEngine>& ws,
                       BundleFlushArena& arena, GateTestvSpectra* tc);

/// Allocate a bundle with the right shape for `key` under `eng`.
template <class Engine>
TGswSpectral<Engine> make_bundle_storage(const Engine& eng,
                                         const GadgetParams& gadget) {
  TGswSpectral<Engine> b;
  b.rows.resize(2 * gadget.l);
  for (auto& row : b.rows) {
    row[0] = typename Engine::Spectral(eng.spectral_size());
    row[1] = typename Engine::Spectral(eng.spectral_size());
  }
  return b;
}

} // namespace matcha
