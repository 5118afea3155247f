#include "bku/bundle.h"

#include <algorithm>
#include <cassert>

#include "fft/double_fft.h"
#include "fft/lift_fft.h"
#include "fft/simd_fft.h"

namespace matcha {

void group_subset_exponents(const Torus32* a_group, int mg, int n_ring,
                            std::vector<int32_t>& out) {
  const uint32_t count = 1u << mg;
  out.resize(count - 1);
  // subset_sum[mask] built incrementally: strip the lowest bit.
  std::vector<Torus32> sums(count, 0);
  for (uint32_t mask = 1; mask < count; ++mask) {
    const uint32_t low = mask & (~mask + 1);
    const int j = __builtin_ctz(mask);
    sums[mask] = sums[mask ^ low] + a_group[j];
    out[mask - 1] = mod_switch_to_2n(sums[mask], n_ring);
  }
}

void set_gate_testv_digits(GateTestvSpectra& tc, Torus32 mu,
                           const GadgetParams& g) {
  tc.mu = mu;
  tc.dplus.resize(static_cast<size_t>(g.l));
  tc.beta.resize(static_cast<size_t>(g.l));
  const uint32_t off = g.rounding_offset();
  const uint32_t mask = (1u << g.bg_bits) - 1;
  const int32_t half = 1 << (g.bg_bits - 1);
  const Torus32 neg_mu = static_cast<Torus32>(0u - mu);
  for (int j = 0; j < g.l; ++j) {
    const int sh = 32 - (j + 1) * g.bg_bits;
    const int32_t dp =
        static_cast<int32_t>(((mu + off) >> sh) & mask) - half;
    const int32_t dm =
        static_cast<int32_t>(((neg_mu + off) >> sh) & mask) - half;
    tc.dplus[static_cast<size_t>(j)] = static_cast<double>(dp);
    // Exact in double: dp - dm is an int, so beta is a half-integer.
    tc.beta[static_cast<size_t>(j)] = static_cast<double>(dp - dm) * 0.5;
  }
  tc.mu_valid = true;
}

namespace {

/// Write the digit spectra of the pristine accumulator's b-part
/// testv * X^{-barb} into spectra l..2l-1 of `spec` (spectrum r at
/// spec + r*2m) by pointwise synthesis from the cached F(ones):
/// spec_j = dplus_j * F(ones) + beta_j * R, where R = (X^{-barb} - 1) (*)
/// F(ones) is one rot_scale_add per sample. The one-time F(ones) transform
/// goes through the kernel directly (not forward_raw) so it lands in no
/// counter: it is workspace-lifetime setup, and counting it would make
/// per-thread counter totals depend on how a batch was sharded across
/// workers.
void synth_testv_spectra(const SimdFftEngine& eng, GateTestvSpectra& tc,
                         int barb, ExternalProductWorkspace<SimdFftEngine>& ws,
                         double* spec) {
  const int m = eng.spectral_size();
  const int l = ws.l;
  const SpectralKernels& k = eng.kernels();
  const NegacyclicPlan& plan = eng.plan();
  if (!tc.ones_valid || static_cast<int>(tc.ones.size()) != 2 * m) {
    tc.ones.assign(static_cast<size_t>(2 * m), 0.0);
    tc.rot.assign(static_cast<size_t>(2 * m), 0.0);
    // Borrow a digit plane (scratch between samples) for the all-ones
    // integer polynomial; no allocation on any path.
    int32_t* one_poly = ws.digit_plane(l);
    std::fill(one_poly, one_poly + ws.n, 1);
    k.forward(plan, one_poly, tc.ones.data(), tc.ones.data() + m);
    tc.ones_valid = true;
  }
  std::fill(tc.rot.begin(), tc.rot.end(), 0.0);
  // acc.b = testv * X^{-barb}; rot_scale_add applies (X^{-c} - 1) for c
  // positive, so the exponent is +barb here.
  k.rot_scale_add(plan, tc.rot.data(), tc.rot.data() + m, tc.ones.data(),
                  tc.ones.data() + m, static_cast<int64_t>(barb));
  for (int j = 0; j < l; ++j) {
    double* dr = spec + static_cast<size_t>(l + j) * 2 * m;
    double* di = dr + m;
    std::fill(dr, dr + m, 0.0);
    std::fill(di, di + m, 0.0);
    k.scale_add(m, dr, di, tc.ones.data(), tc.ones.data() + m,
                tc.dplus[static_cast<size_t>(j)]);
    k.scale_add(m, dr, di, tc.rot.data(), tc.rot.data() + m,
                tc.beta[static_cast<size_t>(j)]);
  }
}

/// Group-step phase 1 for one live sample: the 2l digit spectra of ACC
/// into the block's spectra and the gadget identity H into its four
/// (cleared) accumulator planes. On the pristine step acc.a == 0, so its
/// digits and spectra vanish (zero_fft_skips), and when the sample's initial
/// test vector is the cached constant, the b-digit spectra synthesize from
/// F(ones) instead of running l forward FFTs (testv_fft_reuses).
void sample_spectra(const SimdFftEngine& eng, const GadgetParams& gd,
                    const TLweSample& acc, const BlindRotateState& st,
                    GateTestvSpectra* tc,
                    ExternalProductWorkspace<SimdFftEngine>& ws,
                    double* block) {
  const int l = gd.l;
  const int rows = 2 * l;
  const size_t m = static_cast<size_t>(eng.spectral_size());
  const SpectralKernels& k = eng.kernels();
  const auto spec = [&](int r) { return block + static_cast<size_t>(r) * 2 * m; };
  int32_t* planes[64];
  assert(rows <= 64);
  for (int r = 0; r < rows; ++r) planes[r] = ws.digit_plane(r);

  const bool skip_a = st.pristine;
  if (!skip_a) {
    k.decompose(l, gd.bg_bits, gd.rounding_offset(), eng.ring_n(),
                acc.a.coeffs.data(), planes);
    for (int r = 0; r < l; ++r) {
      eng.forward_raw(planes[r], spec(r), spec(r) + m);
    }
  } else {
#ifndef NDEBUG
    for (const Torus32 cc : acc.a.coeffs) assert(cc == 0);
#endif
    eng.counters().zero_fft_skips += l;
  }
  if (st.pristine && st.gate_testv) {
    assert(tc != nullptr && tc->mu_valid);
    synth_testv_spectra(eng, *tc, st.barb, ws, block);
    eng.counters().testv_fft_reuses += l;
  } else {
    k.decompose(l, gd.bg_bits, gd.rounding_offset(), eng.ring_n(),
                acc.b.coeffs.data(), planes + l);
    for (int r = l; r < rows; ++r) {
      eng.forward_raw(planes[r], spec(r), spec(r) + m);
    }
  }

  // Gadget identity H: row j of column a (resp. l+j of column b) carries the
  // real constant Bg^{-(j+1)}, whose spectrum is flat -- its MAC against the
  // digit spectrum is a real scale-accumulate, no bundle row needed. Same
  // int32 lift as SimdFftEngine::add_constant, so the fused and materialized
  // paths agree on the constant's value.
  double* acc_planes = spec(rows);
  std::fill(acc_planes, acc_planes + 4 * m, 0.0);
  const int mi = static_cast<int>(m);
  for (int j = 0; j < l; ++j) {
    const Torus32 gj = 1u << (32 - (j + 1) * gd.bg_bits);
    const double gjd = static_cast<double>(static_cast<int32_t>(gj));
    if (!skip_a) {
      k.scale_add(mi, acc_planes, acc_planes + m, spec(j), spec(j) + m, gjd);
    }
    k.scale_add(mi, acc_planes + 2 * m, acc_planes + 3 * m, spec(l + j),
                spec(l + j) + m, gjd);
  }
}

} // namespace

void pack_bootstrap_key_soa(const SimdFftEngine& eng,
                            DeviceBootstrapKey<SimdFftEngine>& dev) {
  const int m = eng.spectral_size();
  const int rows = 2 * dev.gadget.l;
  const size_t mm = static_cast<size_t>(m);
  size_t members = 0;
  dev.soa_group_base.resize(dev.groups.size());
  for (size_t g = 0; g < dev.groups.size(); ++g) {
    dev.soa_group_base[g] = members;
    members += dev.groups[g].size();
  }
  dev.soa_block_doubles = static_cast<size_t>(rows) * 4 * mm;
  dev.soa.assign(members * dev.soa_block_doubles, 0.0);
  for (size_t g = 0; g < dev.groups.size(); ++g) {
    for (size_t idx = 0; idx < dev.groups[g].size(); ++idx) {
      double* block = dev.soa.data() +
                      (dev.soa_group_base[g] + idx) * dev.soa_block_doubles;
      for (int r = 0; r < rows; ++r) {
        double* row = block + static_cast<size_t>(r) * 4 * mm;
        const auto& src = dev.groups[g][idx].rows[static_cast<size_t>(r)];
        std::copy_n(src[0].re.data(), mm, row);
        std::copy_n(src[0].im.data(), mm, row + mm);
        std::copy_n(src[1].re.data(), mm, row + 2 * mm);
        std::copy_n(src[1].im.data(), mm, row + 3 * mm);
      }
    }
  }
  dev.soa_m = m;
}

void bundle_group_step(const SimdFftEngine& eng,
                       const DeviceBootstrapKey<SimdFftEngine>& key, int g,
                       const LweSample* const* xs, int batch, TLweSample* accs,
                       BlindRotateState* sts, std::vector<int32_t>& exponents,
                       TGswSpectral<SimdFftEngine>& /*bundle*/,
                       ExternalProductWorkspace<SimdFftEngine>& ws,
                       BundleFlushArena& arena, GateTestvSpectra* tc) {
  const GadgetParams& gd = key.gadget;
  const int l = gd.l;
  const int rows = 2 * l;
  const int m = eng.spectral_size();
  assert(ws.l == l && ws.n == eng.ring_n() && ws.m == m);
  assert(key.soa_m == m);
  const SpectralKernels& k = eng.kernels();
  const NegacyclicPlan& plan = eng.plan();

  // Live samples and their subset exponents. A sample whose exponents are
  // all zero has the identity bundle: ACC unchanged, still pristine.
  const int mg = key.members(g);
  const size_t subsets = (size_t{1} << mg) - 1;
  arena.live.clear();
  if (arena.exponents.size() < static_cast<size_t>(batch) * subsets) {
    arena.exponents.resize(static_cast<size_t>(batch) * subsets);
  }
  for (int b = 0; b < batch; ++b) {
    group_subset_exponents(xs[b]->a.data() + g * key.unroll_m, mg,
                           eng.ring_n(), exponents);
    bool any = false;
    for (const int32_t c : exponents) any = any || (c != 0);
    if (!any) continue;
    std::copy(exponents.begin(), exponents.end(),
              arena.exponents.begin() +
                  static_cast<std::ptrdiff_t>(arena.live.size() * subsets));
    arena.live.push_back(b);
  }
  const size_t live = arena.live.size();
  if (live == 0) return;
  const size_t mm = static_cast<size_t>(m);
  const size_t stride = static_cast<size_t>(2 * rows + 6) * mm;
  if (arena.blocks.size() < live * stride) arena.blocks.resize(live * stride);
  const auto block = [&](size_t i) { return arena.blocks.data() + i * stride; };

  for (size_t i = 0; i < live; ++i) {
    const int b = arena.live[i];
    sample_spectra(eng, gd, accs[b], sts[b], tc, ws, block(i));
  }

  // Subset terms, fused: each subset's contribution is
  // f_S (*) sum_r d_r (*) BK_{S,r} per column (associativity of the
  // pointwise product), so bundle_mac runs the 2l digit rows against the
  // stored key rows and rotates the subset sum into the accumulator once
  // -- versus 2l x 2 rotations per subset in the materialized build_bundle
  // path, whose bundle buffer is never written or re-read here. Pristine
  // samples (zero a-half) start at row l, so they form their own call.
  // Blind rotation multiplies ACC by X^{+c}; the factor applies
  // (X^{-c} - 1), hence the negated exponent (same as build_bundle).
  for (size_t idx = 0; idx < subsets; ++idx) {
    for (const bool pristine : {false, true}) {
      const size_t r0 = pristine ? static_cast<size_t>(l) : 0;
      arena.macs.clear();
      for (size_t i = 0; i < live; ++i) {
        const int32_t c = arena.exponents[i * subsets + idx];
        if (c == 0 || sts[arena.live[i]].pristine != pristine) continue;
        double* f = block(i) + static_cast<size_t>(2 * rows + 4) * mm;
        k.rot_factor(plan, f, f + mm, -static_cast<int64_t>(c));
        arena.macs.push_back(block(i) + r0 * 2 * mm);
      }
      if (arena.macs.empty()) continue;
      k.bundle_mac(m, rows - static_cast<int>(r0),
                   key.soa_block(g, idx) + r0 * 4 * mm,
                   static_cast<int>(arena.macs.size()), arena.macs.data());
    }
  }

  for (size_t i = 0; i < live; ++i) {
    const int b = arena.live[i];
    const double* acc = block(i) + static_cast<size_t>(2 * rows) * mm;
    eng.inverse_raw(acc, acc + mm, accs[b].a.coeffs.data());
    eng.inverse_raw(acc + 2 * mm, acc + 3 * mm, accs[b].b.coeffs.data());
    sts[b].pristine = false;
  }
}

template bool build_bundle<DoubleFftEngine>(const DoubleFftEngine&,
                                            const DeviceBootstrapKey<DoubleFftEngine>&,
                                            int, const std::vector<int32_t>&,
                                            TGswSpectral<DoubleFftEngine>&);
template bool build_bundle<LiftFftEngine>(const LiftFftEngine&,
                                          const DeviceBootstrapKey<LiftFftEngine>&,
                                          int, const std::vector<int32_t>&,
                                          TGswSpectral<LiftFftEngine>&);
template bool build_bundle<SimdFftEngine>(const SimdFftEngine&,
                                          const DeviceBootstrapKey<SimdFftEngine>&,
                                          int, const std::vector<int32_t>&,
                                          TGswSpectral<SimdFftEngine>&);

} // namespace matcha
