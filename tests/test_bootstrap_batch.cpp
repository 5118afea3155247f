// Batched blind rotation: group-major BSK streaming is the only blind
// rotation, and a single-sample bootstrap is a B = 1 call of it. A sample's
// output must not depend on what it is batched with, so every batch size
// must match B independent B = 1 calls bit for bit, on every engine, in
// every mode. Also covers the batched functional bootstrap, flushes that
// mix gate and LUT test vectors, and the BatchExecutor's coalesced
// bootstrap flush across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "circuits/word.h"
#include "exec/batch_executor.h"
#include "exec/circuit_builder.h"
#include "fft/simd_fft.h"
#include "tfhe/functional.h"
#include "test_util.h"

namespace matcha {
namespace {

using circuits::EncWord;
using exec::BatchExecutor;
using exec::BatchResult;
using exec::CircuitBuilder;
using exec::SymWord;
using exec::SymWordCircuits;
using exec::Wire;
using test::shared_keys;

bool same_sample(const LweSample& x, const LweSample& y) {
  return x.a == y.a && x.b == y.b;
}

std::vector<SimdLevel> testable_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  for (const SimdLevel lvl :
       {SimdLevel::kAvx2, SimdLevel::kAvx512, SimdLevel::kNeon}) {
    if (simd_level_available(lvl)) levels.push_back(lvl);
  }
  return levels;
}

/// Encrypt `count` gate inputs at alternating decryptable phases.
std::vector<LweSample> make_inputs(int count, uint64_t seed) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(seed);
  std::vector<LweSample> xs;
  xs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double ph = (i % 2 == 0 ? 1.0 : -1.0) * (0.05 + 0.4 * (i % 5) / 5.0);
    xs.push_back(
        lwe_encrypt(K.sk.lwe, double_to_torus32(ph), K.params.lwe.sigma, rng));
  }
  return xs;
}

/// bootstrap_batch at batch size B vs B independent B = 1 calls, bitwise,
/// on one engine / cloud keyset / mode. Each B = 1 call gets a fresh
/// workspace, so neither side can lean on the other's cached state.
template <class Engine>
void expect_batch_matches_single(const Engine& eng, const CloudKeyset& ck,
                                 BlindRotateMode mode, int batch,
                                 uint64_t seed) {
  const auto& K = shared_keys();
  const auto bk = load_bootstrap_key(eng, ck.bk);
  BootstrapWorkspace<Engine> ws_bat(eng, K.params.gadget);
  KeySwitchWorkspace ks_ws;

  const std::vector<LweSample> xs = make_inputs(batch, seed);
  std::vector<LweSample> want(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    BootstrapWorkspace<Engine> ws_one(eng, K.params.gadget);
    KeySwitchWorkspace ks_one;
    const LweSample* in = &xs[static_cast<size_t>(b)];
    LweSample* out = &want[static_cast<size_t>(b)];
    bootstrap_batch(eng, bk, ck.ks, K.params.mu(), &in, &out, 1, ws_one,
                    ks_one, mode);
  }

  std::vector<LweSample> got(static_cast<size_t>(batch));
  std::vector<const LweSample*> in_ptrs(static_cast<size_t>(batch));
  std::vector<LweSample*> out_ptrs(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    in_ptrs[static_cast<size_t>(b)] = &xs[static_cast<size_t>(b)];
    out_ptrs[static_cast<size_t>(b)] = &got[static_cast<size_t>(b)];
  }
  bootstrap_batch(eng, bk, ck.ks, K.params.mu(), in_ptrs.data(),
                  out_ptrs.data(), batch, ws_bat, ks_ws, mode);

  for (int b = 0; b < batch; ++b) {
    ASSERT_TRUE(same_sample(want[static_cast<size_t>(b)],
                            got[static_cast<size_t>(b)]))
        << "batch=" << batch << " sample " << b;
    const double ph = torus32_to_double(
        lwe_phase(K.sk.lwe, got[static_cast<size_t>(b)]));
    EXPECT_EQ(ph > 0 ? 1 : 0, b % 2 == 0 ? 1 : 0) << "sample " << b;
  }
}

TEST(BootstrapBatch, DoubleEngineBundleAllUnrolls) {
  const auto& K = shared_keys();
  for (const int batch : {1, 2, 7, 32}) {
    expect_batch_matches_single(K.deng, K.ck1, BlindRotateMode::kBundle,
                                    batch, 11);
    if (batch <= 7) { // keep the m sweep off the largest batch for runtime
      expect_batch_matches_single(K.deng, K.ck2, BlindRotateMode::kBundle,
                                      batch, 12);
      expect_batch_matches_single(K.deng, K.ck3, BlindRotateMode::kBundle,
                                      batch, 13);
    }
  }
}

TEST(BootstrapBatch, DoubleEngineClassicCMux) {
  const auto& K = shared_keys();
  for (const int batch : {1, 2, 7}) {
    expect_batch_matches_single(K.deng, K.ck1,
                                    BlindRotateMode::kClassicCMux, batch, 21);
  }
}

TEST(BootstrapBatch, LiftEngineBothModes) {
  const auto& K = shared_keys();
  for (const int batch : {1, 3}) {
    expect_batch_matches_single(K.leng, K.ck2, BlindRotateMode::kBundle, batch,
                                25);
    expect_batch_matches_single(K.leng, K.ck1, BlindRotateMode::kClassicCMux,
                                batch, 26);
  }
}

TEST(BootstrapBatch, SimdEngineAllLevels) {
  const auto& K = shared_keys();
  const int n_ring = K.params.ring.n_ring;
  for (const SimdLevel level : testable_levels()) {
    SimdFftEngine eng(n_ring, level);
    for (const int batch : {1, 7, 32}) {
      expect_batch_matches_single(eng, K.ck2, BlindRotateMode::kBundle,
                                      batch, 31);
    }
    expect_batch_matches_single(eng, K.ck1, BlindRotateMode::kClassicCMux,
                                    2, 32);
    expect_batch_matches_single(eng, K.ck3, BlindRotateMode::kBundle, 2,
                                    33);
  }
}

TEST(BootstrapBatch, OutputsMayAliasInputs) {
  const auto& K = shared_keys();
  const int batch = 5;
  const auto bk = load_bootstrap_key(K.deng, K.ck2.bk);
  BootstrapWorkspace<DoubleFftEngine> ws_a(K.deng, K.params.gadget);
  BootstrapWorkspace<DoubleFftEngine> ws_b(K.deng, K.params.gadget);
  KeySwitchWorkspace ks_ws_a, ks_ws_b;

  std::vector<LweSample> fresh = make_inputs(batch, 41);
  std::vector<LweSample> inplace = fresh; // same ciphertexts
  std::vector<LweSample> out(static_cast<size_t>(batch));
  std::vector<const LweSample*> in_ptrs(static_cast<size_t>(batch));
  std::vector<LweSample*> out_ptrs(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    in_ptrs[static_cast<size_t>(b)] = &fresh[static_cast<size_t>(b)];
    out_ptrs[static_cast<size_t>(b)] = &out[static_cast<size_t>(b)];
  }
  bootstrap_batch(K.deng, bk, K.ck2.ks, K.params.mu(), in_ptrs.data(),
                  out_ptrs.data(), batch, ws_a, ks_ws_a);

  for (int b = 0; b < batch; ++b) {
    in_ptrs[static_cast<size_t>(b)] = &inplace[static_cast<size_t>(b)];
    out_ptrs[static_cast<size_t>(b)] = &inplace[static_cast<size_t>(b)];
  }
  bootstrap_batch(K.deng, bk, K.ck2.ks, K.params.mu(), in_ptrs.data(),
                  out_ptrs.data(), batch, ws_b, ks_ws_b);

  for (int b = 0; b < batch; ++b) {
    EXPECT_TRUE(same_sample(out[static_cast<size_t>(b)],
                            inplace[static_cast<size_t>(b)]))
        << "sample " << b;
  }
}

/// The batched functional bootstrap (two outputs per rotation: the primary
/// at offset 0 and one shifted slot band) at batch size B vs B independent
/// B = 1 calls on fresh workspaces, bitwise.
template <class Engine>
void expect_functional_batch_matches_single(const Engine& eng,
                                            const CloudKeyset& ck,
                                            BlindRotateMode mode,
                                            uint64_t seed) {
  const auto& K = shared_keys();
  const int slots = 4;
  Rng rng = test::test_rng(seed);
  std::vector<Torus32> vals(slots);
  for (int i = 0; i < slots; ++i) {
    vals[static_cast<size_t>(i)] = encode_message((i * 3 + 1) % slots, slots);
  }
  const int n_ring = K.params.ring.n_ring;
  const TorusPolynomial tv = make_lut_testvector(n_ring, vals);
  const auto bk = load_bootstrap_key(eng, ck.bk);
  const int offsets[2] = {0, n_ring / slots};

  const int batch = 8;
  std::vector<LweSample> xs;
  for (int b = 0; b < batch; ++b) {
    xs.push_back(encrypt_message(K.sk.lwe, b % slots, slots,
                                 K.params.lwe.sigma, rng));
  }
  // Output j of sample b lives at [j * batch + b] on both sides.
  std::vector<LweSample> want(static_cast<size_t>(2 * batch));
  for (int b = 0; b < batch; ++b) {
    BootstrapWorkspace<Engine> ws_one(eng, K.params.gadget);
    const LweSample* in = &xs[static_cast<size_t>(b)];
    LweSample* outs[2] = {&want[static_cast<size_t>(b)],
                          &want[static_cast<size_t>(batch + b)]};
    functional_bootstrap_multi_wo_keyswitch_batch(eng, bk, tv, &in, outs,
                                                  offsets, 2, 1, ws_one, mode);
  }

  BootstrapWorkspace<Engine> ws_bat(eng, K.params.gadget);
  std::vector<LweSample> got(static_cast<size_t>(2 * batch));
  std::vector<const LweSample*> in_ptrs(static_cast<size_t>(batch));
  std::vector<LweSample*> out_ptrs(static_cast<size_t>(2 * batch));
  for (int b = 0; b < batch; ++b) {
    in_ptrs[static_cast<size_t>(b)] = &xs[static_cast<size_t>(b)];
  }
  for (int k = 0; k < 2 * batch; ++k) {
    out_ptrs[static_cast<size_t>(k)] = &got[static_cast<size_t>(k)];
  }
  functional_bootstrap_multi_wo_keyswitch_batch(eng, bk, tv, in_ptrs.data(),
                                                out_ptrs.data(), offsets, 2,
                                                batch, ws_bat, mode);
  for (int k = 0; k < 2 * batch; ++k) {
    EXPECT_TRUE(same_sample(want[static_cast<size_t>(k)],
                            got[static_cast<size_t>(k)]))
        << "output " << k / batch << " of sample " << k % batch;
  }
  // The primary output decodes through the LUT under the extracted key.
  for (int b = 0; b < batch; ++b) {
    EXPECT_EQ(decode_message(lwe_phase(K.sk.extracted,
                                       got[static_cast<size_t>(b)]),
                             slots),
              ((b % slots) * 3 + 1) % slots)
        << "sample " << b;
  }
}

TEST(BootstrapBatch, FunctionalBatchMatchesSequential) {
  const auto& K = shared_keys();
  expect_functional_batch_matches_single(K.deng, K.ck2,
                                         BlindRotateMode::kBundle, 51);
  expect_functional_batch_matches_single(K.deng, K.ck1,
                                         BlindRotateMode::kClassicCMux, 52);
  expect_functional_batch_matches_single(K.leng, K.ck2,
                                         BlindRotateMode::kBundle, 53);
  expect_functional_batch_matches_single(K.leng, K.ck1,
                                         BlindRotateMode::kClassicCMux, 54);
  for (const SimdLevel level : testable_levels()) {
    SimdFftEngine eng(K.params.ring.n_ring, level);
    expect_functional_batch_matches_single(eng, K.ck2,
                                           BlindRotateMode::kBundle, 55);
    expect_functional_batch_matches_single(eng, K.ck1,
                                           BlindRotateMode::kClassicCMux, 56);
  }
}

/// Moves c's phase under `key` to `target` (noise-free), keeping its mask.
void set_phase(const LweKey& key, LweSample& c, Torus32 target) {
  c.b += target - lwe_phase(key, c);
}

/// Security110 inputs for the batch-identity sweep, `phase(i)` giving
/// sample i's plaintext phase. Sample 1 has a = 0: every group's exponents
/// are zero, so it never rotates and stays pristine throughout. Sample 2
/// has the first half of its mask zeroed: it stays pristine past group 0,
/// and its first live group is flushed together with samples that are
/// already past their first step (one pristine and one steady-state
/// bundle_mac call for the same key subset).
template <class PhaseFn>
std::vector<LweSample> security110_inputs(const SecretKeyset& sk, int count,
                                          PhaseFn phase, Rng& rng) {
  std::vector<LweSample> xs;
  for (int i = 0; i < count; ++i) {
    xs.push_back(lwe_encrypt(sk.lwe, phase(i), sk.params.lwe.sigma, rng));
  }
  std::fill(xs[1].a.begin(), xs[1].a.end(), 0u);
  std::fill(xs[2].a.begin(), xs[2].a.begin() + sk.params.lwe.n / 2, 0u);
  set_phase(sk.lwe, xs[1], phase(1));
  set_phase(sk.lwe, xs[2], phase(2));
  return xs;
}

/// The SIMD engine's sample-blocked bundle-MAC at the paper's ring
/// (N = 1024): gate and two-output functional bootstraps at
/// B in {2, 3, 4, 5, 8} -- full and partial sample blocks of every tier --
/// must match fresh-workspace B = 1 calls bit for bit, at m = 1, 2, 3.
TEST(BootstrapBatch, Security110SimdBatchMatchesSingle) {
  const TfheParams p = TfheParams::security110();
  Rng rng = test::test_rng(81);
  const SecretKeyset sk = SecretKeyset::generate(p, rng);
  SimdFftEngine eng(p.ring.n_ring);
  const int n_ring = p.ring.n_ring;
  constexpr int kMax = 8;

  const std::vector<LweSample> gate_in = security110_inputs(
      sk, kMax,
      [](int i) {
        return double_to_torus32((i % 2 == 0 ? 1.0 : -1.0) * 0.125);
      },
      rng);
  const int slots = 4;
  const std::vector<LweSample> lut_in = security110_inputs(
      sk, kMax, [&](int i) { return encode_message(i % slots, slots); }, rng);
  std::vector<Torus32> vals(slots);
  for (int i = 0; i < slots; ++i) {
    vals[static_cast<size_t>(i)] = encode_message((i * 3 + 1) % slots, slots);
  }
  const TorusPolynomial tv = make_lut_testvector(n_ring, vals);
  const int offsets[2] = {0, n_ring / slots};

  for (int m = 1; m <= 3; ++m) {
    const auto bk = load_bootstrap_key(
        eng, make_unrolled_bootstrap_key(sk.lwe, sk.tlwe, p.gadget, m, rng));
    // B = 1 references; functional output j of sample b at [2 * b + j].
    std::vector<LweSample> gate_one(kMax), lut_one(2 * kMax);
    for (int b = 0; b < kMax; ++b) {
      const size_t i = static_cast<size_t>(b);
      BootstrapWorkspace<SimdFftEngine> ws_gate(eng, p.gadget);
      BootstrapWorkspace<SimdFftEngine> ws_lut(eng, p.gadget);
      const LweSample* g_in = &gate_in[i];
      LweSample* g_out = &gate_one[i];
      bootstrap_wo_keyswitch_batch(eng, bk, p.mu(), &g_in, &g_out, 1, ws_gate);
      const LweSample* l_in = &lut_in[i];
      LweSample* l_out[2] = {&lut_one[2 * i], &lut_one[2 * i + 1]};
      functional_bootstrap_multi_wo_keyswitch_batch(eng, bk, tv, &l_in, l_out,
                                                    offsets, 2, 1, ws_lut);
      EXPECT_EQ(lwe_phase(sk.extracted, gate_one[i]) < 0x80000000u ? 1 : 0,
                b % 2 == 0 ? 1 : 0)
          << "m=" << m << " sample " << b;
      EXPECT_EQ(decode_message(lwe_phase(sk.extracted, lut_one[2 * i]), slots),
                ((b % slots) * 3 + 1) % slots)
          << "m=" << m << " sample " << b;
    }

    // One batched workspace per kind, reused across batch sizes as a
    // worker's is.
    BootstrapWorkspace<SimdFftEngine> ws_gate(eng, p.gadget);
    BootstrapWorkspace<SimdFftEngine> ws_lut(eng, p.gadget);
    for (const int batch : {2, 3, 4, 5, 8}) {
      std::vector<const LweSample*> g_in, l_in;
      std::vector<LweSample> g_got(static_cast<size_t>(batch)),
          l_got(static_cast<size_t>(2 * batch));
      std::vector<LweSample*> g_out, l_out(static_cast<size_t>(2 * batch));
      for (int b = 0; b < batch; ++b) {
        const size_t i = static_cast<size_t>(b);
        g_in.push_back(&gate_in[i]);
        l_in.push_back(&lut_in[i]);
        g_out.push_back(&g_got[i]);
        l_out[i] = &l_got[i];                       // output 0 at [b]
        l_out[static_cast<size_t>(batch) + i] =     // output 1 at [B + b]
            &l_got[static_cast<size_t>(batch) + i];
      }
      bootstrap_wo_keyswitch_batch(eng, bk, p.mu(), g_in.data(), g_out.data(),
                                   batch, ws_gate);
      functional_bootstrap_multi_wo_keyswitch_batch(
          eng, bk, tv, l_in.data(), l_out.data(), offsets, 2, batch, ws_lut);
      for (int b = 0; b < batch; ++b) {
        const size_t i = static_cast<size_t>(b);
        EXPECT_TRUE(same_sample(g_got[i], gate_one[i]))
            << "gate m=" << m << " batch=" << batch << " sample " << b;
        for (int j = 0; j < 2; ++j) {
          EXPECT_TRUE(same_sample(
              l_got[static_cast<size_t>(j * batch + b)],
              lut_one[2 * i + static_cast<size_t>(j)]))
              << "lut output " << j << " m=" << m << " batch=" << batch
              << " sample " << b;
        }
      }
    }
  }
}

/// One flush with a test vector per sample, as BatchExecutor coalesces it:
/// sample i rotates the constant gate vector (i % 3 == 0) or one of two LUT
/// vectors. A single blind_rotate_batch over the first B samples must
/// extract bit for bit what B = 1 calls of the public drivers do on fresh
/// workspaces: bootstrap_wo_keyswitch_batch for a gate sample (offset 0,
/// through the cached gate spectra), the two-output functional driver for a
/// LUT sample (offsets 0 and N/4, through plain FFTs).
template <class Engine>
void expect_mixed_flush_matches_single(const Engine& eng,
                                       const DeviceBootstrapKey<Engine>& bk,
                                       const GadgetParams& gadget, Torus32 mu,
                                       const std::vector<LweSample>& xs,
                                       const TorusPolynomial (&luts)[2],
                                       std::initializer_list<int> batches,
                                       const std::string& what) {
  const int n_ring = eng.ring_n();
  const int offsets[2] = {0, n_ring / 4};
  const auto is_gate = [](int i) { return i % 3 == 0; };
  const auto lut_of = [&](int i) -> const TorusPolynomial& {
    return luts[i % 3 - 1];
  };
  // B = 1 references; output j of sample i at [2 * i + j].
  const int count = static_cast<int>(xs.size());
  std::vector<LweSample> one(static_cast<size_t>(2 * count));
  eng.counters().reset();
  for (int i = 0; i < count; ++i) {
    BootstrapWorkspace<Engine> ws(eng, gadget);
    const LweSample* in = &xs[static_cast<size_t>(i)];
    LweSample* out[2] = {&one[static_cast<size_t>(2 * i)],
                         &one[static_cast<size_t>(2 * i + 1)]};
    if (is_gate(i)) {
      bootstrap_wo_keyswitch_batch(eng, bk, mu, &in, out, 1, ws);
    } else {
      functional_bootstrap_multi_wo_keyswitch_batch(eng, bk, lut_of(i), &in,
                                                    out, offsets, 2, 1, ws);
    }
  }

  // The pristine-step elisions are per sample too: a full-size flush skips
  // and reuses exactly as many forward FFTs as its B = 1 calls did.
  const EngineCounters want = eng.counters();
  if constexpr (std::is_same_v<Engine, SimdFftEngine>) {
    EXPECT_GT(want.testv_fft_reuses, 0) << what << ": gate samples synthesize";
  }

  // One workspace reused across flushes, as a worker's is.
  BootstrapWorkspace<Engine> ws(eng, gadget);
  set_gate_testv(ws, mu, gadget);
  for (const int batch : batches) {
    eng.counters().reset();
    std::vector<const LweSample*> in;
    std::vector<const TorusPolynomial*> tv;
    for (int i = 0; i < batch; ++i) {
      in.push_back(&xs[static_cast<size_t>(i)]);
      tv.push_back(is_gate(i) ? &ws.testv : &lut_of(i));
    }
    blind_rotate_batch(eng, bk, in.data(), batch, tv.data(), ws);
    if (batch == count) {
      EXPECT_EQ(eng.counters().testv_fft_reuses, want.testv_fft_reuses) << what;
      EXPECT_EQ(eng.counters().zero_fft_skips, want.zero_fft_skips) << what;
      EXPECT_EQ(eng.counters().to_spectral_calls, want.to_spectral_calls)
          << what;
    }
    for (int i = 0; i < batch; ++i) {
      for (int j = 0; j < (is_gate(i) ? 1 : 2); ++j) {
        LweSample got;
        sample_extract_at(ws.batch_acc[static_cast<size_t>(i)], offsets[j],
                          got);
        EXPECT_TRUE(same_sample(got, one[static_cast<size_t>(2 * i + j)]))
            << what << " batch=" << batch << " sample " << i << " ("
            << (is_gate(i) ? "gate" : "lut") << ") output " << j;
      }
    }
  }
}

/// Two distinct 4-slot LUT test vectors.
void make_two_luts(int n_ring, TorusPolynomial (&luts)[2]) {
  const int slots = 4;
  for (int t = 0; t < 2; ++t) {
    std::vector<Torus32> vals(slots);
    for (int i = 0; i < slots; ++i) {
      vals[static_cast<size_t>(i)] =
          encode_message((i * (2 * t + 1) + t + 1) % slots, slots);
    }
    luts[t] = make_lut_testvector(n_ring, vals);
  }
}

TEST(BootstrapBatch, Security110MixedTestVectorFlushMatchesSingle) {
  const TfheParams p = TfheParams::security110();
  Rng rng = test::test_rng(91);
  const SecretKeyset sk = SecretKeyset::generate(p, rng);
  SimdFftEngine eng(p.ring.n_ring);
  constexpr int kMax = 16;
  TorusPolynomial luts[2];
  make_two_luts(p.ring.n_ring, luts);
  // Sample 1 (a LUT sample) has a = 0 and never rotates; samples 2 and 3
  // (a LUT and a gate sample) take their first, pristine step halfway
  // through the key, in a flush of already-rotated samples.
  std::vector<LweSample> xs = security110_inputs(
      sk, kMax,
      [](int i) {
        return i % 3 == 0 ? double_to_torus32((i % 2 == 0 ? 1 : -1) * 0.125)
                          : encode_message(i % 4, 4);
      },
      rng);
  const Torus32 ph3 = lwe_phase(sk.lwe, xs[3]);
  std::fill(xs[3].a.begin(), xs[3].a.begin() + p.lwe.n / 2, 0u);
  set_phase(sk.lwe, xs[3], ph3);
  for (const int m : {1, 3}) {
    const auto bk = load_bootstrap_key(
        eng, make_unrolled_bootstrap_key(sk.lwe, sk.tlwe, p.gadget, m, rng));
    expect_mixed_flush_matches_single(eng, bk, p.gadget, p.mu(), xs, luts,
                                      {1, 5, kMax},
                                      "security110 m=" + std::to_string(m));
  }
}

TEST(BootstrapBatch, MixedTestVectorFlushMatchesSingleOnReferenceEngines) {
  const auto& K = shared_keys();
  TorusPolynomial luts[2];
  make_two_luts(K.params.ring.n_ring, luts);
  std::vector<LweSample> xs = make_inputs(7, 95);
  std::fill(xs[1].a.begin(), xs[1].a.end(), 0u); // never rotates
  const auto check = [&](const auto& eng, const CloudKeyset& ck,
                         const std::string& what) {
    const auto bk = load_bootstrap_key(eng, ck.bk);
    expect_mixed_flush_matches_single(eng, bk, K.params.gadget, K.params.mu(),
                                      xs, luts, {7}, what);
  };
  check(K.deng, K.ck1, "double m=1");
  check(K.deng, K.ck3, "double m=3");
  check(K.leng, K.ck2, "lift m=2");
}

/// The executor's deferred bootstrap flush: a MUX-heavy circuit (both branch
/// bootstraps ride one flush) run at several thread counts must match the
/// single-thread run bitwise and decrypt to the plaintext evaluation.
struct MuxTreeCircuit {
  CircuitBuilder b;
  std::vector<Wire> ins;
  std::vector<Wire> outs;

  explicit MuxTreeCircuit(int width) {
    for (int i = 0; i < 3 * width; ++i) ins.push_back(b.input());
    for (int i = 0; i < width; ++i) {
      const Wire s = ins[static_cast<size_t>(3 * i)];
      const Wire t = ins[static_cast<size_t>(3 * i + 1)];
      const Wire u = ins[static_cast<size_t>(3 * i + 2)];
      const Wire m = b.gate_mux(s, t, u);
      const Wire x = b.gate_xor(m, b.gate_and(t, u));
      const Wire o = b.gate_mux(x, m, b.gate_not(s));
      outs.push_back(o);
      b.mark_output(o);
    }
  }

  static int eval_plain(int s, int t, int u) {
    const int m = s ? t : u;
    const int x = m ^ (t & u);
    return x ? m : (s ? 0 : 1);
  }
};

TEST(BootstrapBatch, ExecutorThreadCountsBitIdenticalAndCorrect) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const int width = 4;
  MuxTreeCircuit c(width);

  Rng bit_rng = test::test_rng(61);
  std::vector<int> plain;
  for (size_t i = 0; i < c.ins.size(); ++i) {
    plain.push_back(static_cast<int>(bit_rng.uniform_below(2)));
  }
  const auto encrypt_inputs = [&](Rng& rng) {
    std::vector<LweSample> in;
    for (const int p : plain) in.push_back(K.sk.encrypt_bit(p, rng));
    return in;
  };

  auto make_engine = [&] {
    return std::make_unique<DoubleFftEngine>(K.params.ring.n_ring);
  };
  BatchResult ref;
  for (const int threads : {1, 2, 4}) {
    BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks,
                                      K.params.mu(), threads);
    Rng rng_run = test::test_rng(62); // identical ciphertext inputs
    BatchResult r = ex.run(c.b.graph(), encrypt_inputs(rng_run));
    if (threads == 1) {
      ref = std::move(r);
      for (int i = 0; i < width; ++i) {
        EXPECT_EQ(K.sk.decrypt_bit(ref.at(c.outs[static_cast<size_t>(i)])),
                  MuxTreeCircuit::eval_plain(plain[static_cast<size_t>(3 * i)],
                                             plain[static_cast<size_t>(3 * i + 1)],
                                             plain[static_cast<size_t>(3 * i + 2)]))
            << "lane " << i;
      }
      continue;
    }
    ASSERT_EQ(r.values.size(), ref.values.size()) << threads << " threads";
    for (size_t w = 0; w < r.values.size(); ++w) {
      ASSERT_TRUE(same_sample(r.values[w], ref.values[w]))
          << threads << " threads, wire " << w;
    }
  }
}

/// Randomized circuits through the executor: batched wavefront evaluation
/// (adder + comparator word circuits, which mix binary gates, MUX and NOT)
/// must decrypt to the plaintext arithmetic at every thread count.
TEST(BootstrapBatch, ExecutorRandomWordCircuitsDecryptCorrectly) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  constexpr int kWidth = 3;

  CircuitBuilder b;
  SymWord x = b.input_word(kWidth);
  SymWord y = b.input_word(kWidth);
  SymWordCircuits wc(b);
  SymWord sum = wc.add(x, y, nullptr, /*with_carry_out=*/true);
  Wire gt = wc.greater_than(x, y);
  for (const Wire w : sum.bits) b.mark_output(w);
  b.mark_output(gt);

  auto make_engine = [&] {
    return std::make_unique<DoubleFftEngine>(K.params.ring.n_ring);
  };
  Rng val_rng = test::test_rng(71);
  for (const int threads : {1, 4}) {
    BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks,
                                      K.params.mu(), threads);
    const uint64_t vx = val_rng.uniform_below(1u << kWidth);
    const uint64_t vy = val_rng.uniform_below(1u << kWidth);
    Rng rng = test::test_rng(72 + static_cast<uint64_t>(threads));
    std::vector<LweSample> in;
    const EncWord ex_w = circuits::encrypt_word(K.sk, vx, kWidth, rng);
    const EncWord ey_w = circuits::encrypt_word(K.sk, vy, kWidth, rng);
    in.insert(in.end(), ex_w.bits.begin(), ex_w.bits.end());
    in.insert(in.end(), ey_w.bits.begin(), ey_w.bits.end());
    const BatchResult r = ex.run(b.graph(), std::move(in));
    EncWord w;
    for (const Wire s : sum.bits) w.bits.push_back(r.at(s));
    EXPECT_EQ(circuits::decrypt_word(K.sk, w), vx + vy)
        << vx << "+" << vy << " @" << threads << " threads";
    EXPECT_EQ(K.sk.decrypt_bit(r.at(gt)), vx > vy ? 1 : 0);
  }
}

} // namespace
} // namespace matcha
