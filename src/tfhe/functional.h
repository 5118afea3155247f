// Programmable (functional) bootstrapping: the gate bootstrap generalized to
// evaluate an arbitrary lookup table during noise refresh -- the mechanism
// behind TFHE-based encrypted neural inference (the paper's reference [4])
// and multi-valued logic. The test vector's coefficients hold the LUT; blind
// rotation lands the coefficient indexed by the (mod-switched) phase in slot
// zero, so extraction yields f(m) with *fresh* noise.
//
// Message encoding: `slots` values are placed at phases (2i+1)/(4*slots),
// all inside (0, 1/2) -- the half-torus restriction sidesteps the negacyclic
// antisymmetry (testv[j + N] = -testv[j]) that would otherwise constrain f.
#pragma once

#include <algorithm>
#include <span>

#include "tfhe/bootstrap.h"
#include "tfhe/lut.h"

namespace matcha {

/// Canonical slot encoding on the half-torus.
inline Torus32 encode_message(int value, int slots) {
  return torus_fraction(2 * value + 1, 4 * slots);
}

/// Outcome of one audited decode: the decoded value plus how close the noisy
/// phase came to the decision boundary (the runtime noise-margin signal --
/// DESIGN.md "Failure model and fault-injection contract").
struct DecodeAudit {
  int value = 0;
  double distance = 0;       ///< circular torus distance to the chosen center
  double cell_halfwidth = 0; ///< distance at which the decode would flip
  bool suspect = false;      ///< decode landed inside the guard band

  /// Normalized safety margin in (-inf, 1]: 1 = phase dead on its center,
  /// 0 = on the decision boundary (beyond 0 the decode already flipped).
  double margin() const {
    return cell_halfwidth > 0 ? 1.0 - distance / cell_halfwidth : 0.0;
  }
};

/// Fraction of the decode cell treated as the guard band: a decode whose
/// distance exceeds (1 - kDecodeGuardFraction) * cell_halfwidth is flagged
/// suspect -- it decoded correctly but with so little margin that the noise
/// budget is clearly not holding.
inline constexpr double kDecodeGuardFraction = 0.25;

/// Nearest-slot decode of a (noisy) phase, by CIRCULAR distance: the phase
/// lives on the torus, so a top-slot phase whose noise carries it past 1/2
/// (or a slot-0 phase dipping below 0) wraps around numerically but is still
/// nearest its own slot going the short way round. fabs alone would hand it
/// to the slot on the far end of the number line. The audited variant
/// surfaces that distance and flags guard-band decodes.
inline DecodeAudit decode_message_audited(
    Torus32 phase, int slots, double guard_fraction = kDecodeGuardFraction) {
  DecodeAudit a;
  a.cell_halfwidth = 1.0 / (4.0 * slots); // centers are 1/(2*slots) apart
  a.distance = 1.0;
  for (int i = 0; i < slots; ++i) {
    const double d = torus_distance(phase, encode_message(i, slots));
    if (d < a.distance) {
      a.distance = d;
      a.value = i;
    }
  }
  a.suspect = a.distance > (1.0 - guard_fraction) * a.cell_halfwidth;
  return a;
}

inline int decode_message(Torus32 phase, int slots) {
  return decode_message_audited(phase, slots).value;
}

/// Audited sign decode of a gate-level phase (message +-mu). The decision
/// boundaries are 0 and 1/2, so the margin cell is min(mu, 1/2 - mu) wide --
/// 1/8 for the standard gate amplitude.
inline DecodeAudit decode_bit_audited(
    Torus32 phase, Torus32 mu, double guard_fraction = kDecodeGuardFraction) {
  DecodeAudit a;
  a.value = static_cast<int32_t>(phase) > 0 ? 1 : 0;
  const Torus32 center = a.value ? mu : static_cast<Torus32>(-mu);
  a.distance = torus_distance(phase, center);
  const double m = std::fabs(torus32_to_double(mu));
  a.cell_halfwidth = std::min(m, 0.5 - m);
  a.suspect = a.distance > (1.0 - guard_fraction) * a.cell_halfwidth;
  return a;
}

/// Build the LUT test vector: slot i of the half-torus maps to `values[i]`.
/// values[i] is the *output* torus encoding (use encode_message to keep the
/// result chainable).
TorusPolynomial make_lut_testvector(int n_ring, std::span<const Torus32> values);

/// Batched functional bootstrap without the key switch: one group-major
/// blind rotation over all B samples against a shared test vector, then
/// n_out sample extractions per sample. Output j of sample b lands in
/// outs[j * batch + b]; coeff_offsets[j] is the ring coefficient to extract
/// (slot_shift * N / slots, see tfhe/lut.h -- offset 0 is the primary
/// output, so n_out = 1 at offset 0 is the plain single-output LUT).
/// Extractions may not alias xs (the accumulator is read n_out times).
template <class Engine>
void functional_bootstrap_multi_wo_keyswitch_batch(
    const Engine& eng, const DeviceBootstrapKey<Engine>& key,
    const TorusPolynomial& testv, const LweSample* const* xs,
    LweSample* const* outs, const int* coeff_offsets, int n_out, int batch,
    BootstrapWorkspace<Engine>& ws,
    BlindRotateMode mode = BlindRotateMode::kBundle) {
  blind_rotate_batch(eng, key, xs, batch, shared_testvs(ws, testv, batch), ws,
                     mode);
  for (int b = 0; b < batch; ++b) {
    const TLweSample& acc = ws.batch_acc[static_cast<size_t>(b)];
    for (int j = 0; j < n_out; ++j) {
      sample_extract_at(acc, coeff_offsets[j],
                        *outs[j * batch + b]);
    }
  }
}

/// Bootstrap one sample through the LUT, by value: LWE(f(m)) with fresh
/// noise, under the gate key (key switch included). A B = 1, single-output
/// call of the batched path, for examples and tests.
template <class Engine>
LweSample functional_bootstrap(const Engine& eng,
                               const DeviceBootstrapKey<Engine>& key,
                               const KeySwitchKey& ks,
                               const TorusPolynomial& testv,
                               const LweSample& x,
                               BootstrapWorkspace<Engine>& ws,
                               BlindRotateMode mode = BlindRotateMode::kBundle) {
  LweSample u;
  const LweSample* in = &x;
  LweSample* up = &u;
  const int offset = 0;
  functional_bootstrap_multi_wo_keyswitch_batch(eng, key, testv, &in, &up,
                                                &offset, 1, 1, ws, mode);
  return key_switch(ks, u);
}

/// Pre-bootstrap linear combination of a fused Boolean LUT cone
/// (tfhe/lut.h): sum_i w_i * x_i + (0, 1/2^(grid+1)) places each input
/// combination's phase at the center of its grid cell, ready for one
/// functional_bootstrap through make_lut_testvector(lut_slot_values(...)).
/// Each input must carry the amplitude spec.in_amp_log[i] promises (the
/// encoding-aware optimizer guarantees it); the grid-3 all-1/8 case is the
/// classic combo sum_i w_i * x_i + (0, 1/16).
inline LweSample lut_cone_input(const LutSpec& spec,
                                std::span<const LweSample* const> ins,
                                int n_lwe) {
  LweSample combo = LweSample::trivial(
      n_lwe, torus_fraction(1, int64_t{1} << (spec.grid_log + 1)));
  for (int i = 0; i < spec.k; ++i) {
    LweSample t = *ins[static_cast<size_t>(i)];
    if (spec.w[static_cast<size_t>(i)] != 1) t.scale(spec.w[static_cast<size_t>(i)]);
    combo += t;
  }
  return combo;
}

/// Convenience: encrypt/decrypt multi-valued messages at the gate LWE layer.
/// (decrypt_message decodes through decode_message, so it inherits the
/// circular-distance wraparound handling above.)
LweSample encrypt_message(const LweKey& key, int value, int slots, double sigma,
                          Rng& rng);
int decrypt_message(const LweKey& key, const LweSample& c, int slots);
/// Decode with the noise margin surfaced (and recorded when the process-wide
/// margin audit -- noise/audit.h -- is enabled; decrypt_message records too).
DecodeAudit decrypt_message_audited(const LweKey& key, const LweSample& c,
                                    int slots);

} // namespace matcha
