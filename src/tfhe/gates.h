// Homomorphic Boolean gates (paper section 2, "Logic"): each binary gate is
// a linear combination of the input ciphertexts followed by a gate
// bootstrapping. Message convention follows the TFHE library: true = +1/8,
// false = -1/8, decryption tests the sign of the phase.
//
// The evaluator keeps a wall-clock breakdown {gate linear part, IFFT, FFT,
// other} per gate type -- exactly the Fig. 1 decomposition.
#pragma once

#include <array>
#include <chrono>

#include "tfhe/bootstrap.h"
#include "tfhe/gate_kind.h"
#include "tfhe/gate_ops.h"

namespace matcha {

/// Cumulative per-kind latency decomposition (nanoseconds).
struct GateBreakdown {
  int64_t gates = 0;
  int64_t linear_ns = 0; ///< ciphertext additions ("gate" slice of Fig. 1)
  int64_t ifft_ns = 0;   ///< to-spectral kernels
  int64_t fft_ns = 0;    ///< from-spectral kernels
  int64_t other_ns = 0;  ///< everything else in the bootstrapping
  int64_t total_ns = 0;

  void clear() { *this = {}; }
};

template <class Engine>
class GateEvaluator {
 public:
  /// The ciphertext type gate methods consume/produce; circuits templated on
  /// a gate backend (circuits/word.h, exec/circuit_builder.h) use this.
  using Bit = LweSample;

  GateEvaluator(const Engine& eng, const DeviceBootstrapKey<Engine>& bk,
                const KeySwitchKey& ks, Torus32 mu,
                BlindRotateMode mode = BlindRotateMode::kBundle)
      : eng_(eng), bk_(bk), ks_(ks), mu_(mu), mode_(mode), ws_(eng, bk.gadget) {}

  /// Any two-input gate: linear combination (tfhe/gate_ops.h) + bootstrap.
  LweSample gate_binary(GateKind kind, const LweSample& a, const LweSample& b) {
    const auto t0 = clock_now();
    LweSample combo = binary_gate_input(kind, a, b, mu_, bk_.n_lwe);
    return binary_gate(kind, std::move(combo), ns_since(t0));
  }
  LweSample gate_nand(const LweSample& a, const LweSample& b) {
    return gate_binary(GateKind::kNand, a, b);
  }
  LweSample gate_and(const LweSample& a, const LweSample& b) {
    return gate_binary(GateKind::kAnd, a, b);
  }
  LweSample gate_or(const LweSample& a, const LweSample& b) {
    return gate_binary(GateKind::kOr, a, b);
  }
  LweSample gate_nor(const LweSample& a, const LweSample& b) {
    return gate_binary(GateKind::kNor, a, b);
  }
  LweSample gate_xor(const LweSample& a, const LweSample& b) {
    return gate_binary(GateKind::kXor, a, b);
  }
  LweSample gate_xnor(const LweSample& a, const LweSample& b) {
    return gate_binary(GateKind::kXnor, a, b);
  }
  /// A known plaintext bit as a trivial (noiseless) ciphertext -- the TFHE
  /// library's CONSTANT gate. No bootstrapping; valid as any gate input.
  LweSample constant(bool value) const {
    return constant_bit(bk_.n_lwe, mu_, value);
  }
  /// NOT is a ciphertext negation -- no bootstrapping (Fig. 1's outlier).
  LweSample gate_not(const LweSample& a) {
    const auto t0 = clock_now();
    LweSample r = a;
    r.negate();
    auto& bd = breakdown_[static_cast<int>(GateKind::kNot)];
    bd.gates += 1;
    const int64_t dt = ns_since(t0);
    bd.linear_ns += dt;
    bd.total_ns += dt;
    return r;
  }
  /// MUX(sel, c1, c0) = sel ? c1 : c0 -- two bootstraps (one B = 2 flush)
  /// + one key switch (the TFHE library's construction, tfhe/gate_ops.h).
  LweSample gate_mux(const LweSample& sel, const LweSample& c1, const LweSample& c0);

  const GateBreakdown& breakdown(GateKind kind) const {
    return breakdown_[static_cast<int>(kind)];
  }
  void reset_breakdowns() {
    for (auto& b : breakdown_) b.clear();
  }

 private:
  using Clock = std::chrono::steady_clock;
  static Clock::time_point clock_now() { return Clock::now(); }
  static int64_t ns_since(Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
        .count();
  }

  LweSample binary_gate(GateKind kind, LweSample combo, int64_t linear_ns) {
    auto& bd = breakdown_[static_cast<int>(kind)];
    bd.gates += 1;
    bd.linear_ns += linear_ns;
    auto& ctr = eng_.counters();
    const int64_t to0 = ctr.to_spectral_ns;
    const int64_t from0 = ctr.from_spectral_ns;
    const auto t0 = clock_now();
    const LweSample* in = &combo;
    LweSample* out = &combo;
    bootstrap_batch(eng_, bk_, ks_, mu_, &in, &out, 1, ws_, ks_ws_, mode_);
    const int64_t boot = ns_since(t0);
    const int64_t ifft = ctr.to_spectral_ns - to0;
    const int64_t fft = ctr.from_spectral_ns - from0;
    bd.total_ns += linear_ns + boot;
    bd.ifft_ns += ifft;
    bd.fft_ns += fft;
    bd.other_ns += boot - ifft - fft;
    return combo;
  }

  const Engine& eng_;
  const DeviceBootstrapKey<Engine>& bk_;
  const KeySwitchKey& ks_;
  Torus32 mu_;
  BlindRotateMode mode_;
  // Immediate mode is the batched path at B = 1 (B = 2 for MUX's two
  // branch bootstraps). These workspaces and the MUX scratch are grow-only,
  // so a warm evaluator's bootstraps allocate nothing.
  BootstrapWorkspace<Engine> ws_;
  KeySwitchWorkspace ks_ws_;
  std::array<LweSample, 2> mux_in_; ///< MUX branch bootstrap inputs
  std::array<LweSample, 2> mux_u_;  ///< their N-LWE outputs u1, u2
  std::array<GateBreakdown, 8> breakdown_{};
};

template <class Engine>
LweSample GateEvaluator<Engine>::gate_mux(const LweSample& sel,
                                          const LweSample& c1,
                                          const LweSample& c0) {
  auto& bd = breakdown_[static_cast<int>(GateKind::kMux)];
  bd.gates += 1;
  auto& ctr = eng_.counters();
  const int64_t to0 = ctr.to_spectral_ns;
  const int64_t from0 = ctr.from_spectral_ns;
  const auto t0 = clock_now();
  mux_branch_inputs(sel, c1, c0, mu_, mux_in_[0], mux_in_[1]);
  const LweSample* ins[2] = {&mux_in_[0], &mux_in_[1]};
  LweSample* us[2] = {&mux_u_[0], &mux_u_[1]};
  bootstrap_wo_keyswitch_batch(eng_, bk_, mu_, ins, us, 2, ws_, mode_);
  mux_combine(mux_u_[0], mux_u_[1], mu_);
  LweSample out;
  const LweSample* ks_in = &mux_u_[0];
  LweSample* ks_out = &out;
  key_switch_batch(ks_, &ks_in, &ks_out, 1, ks_ws_);
  const int64_t total = ns_since(t0);
  const int64_t ifft = ctr.to_spectral_ns - to0;
  const int64_t fft = ctr.from_spectral_ns - from0;
  bd.total_ns += total;
  bd.ifft_ns += ifft;
  bd.fft_ns += fft;
  bd.other_ns += total - ifft - fft;
  return out;
}

} // namespace matcha
