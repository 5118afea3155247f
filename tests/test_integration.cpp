// End-to-end integration: full-size 110-bit parameters through the whole
// stack (keygen -> cloud keys -> device load -> gates -> decrypt), plus a
// multi-gate circuit and a cross-engine consistency sweep at test parameters.
#include <gtest/gtest.h>

#include "fft/simd_fft.h"
#include "noise/measure.h"
#include "test_util.h"

namespace matcha {
namespace {

using test::shared_keys;

TEST(Integration, FullSizeParamsEndToEnd) {
  Rng rng(101);
  const TfheParams p = TfheParams::security110();
  const SecretKeyset sk = SecretKeyset::generate(p, rng);
  const CloudKeyset ck = make_cloud_keyset(sk, 2, rng);

  DoubleFftEngine deng(p.ring.n_ring);
  const auto dkd = load_device_keyset(deng, ck);
  auto evd = dkd.make_evaluator(deng, p.mu());

  LiftFftEngine leng(p.ring.n_ring, 64);
  const auto dkl = load_device_keyset(leng, ck);
  auto evl = dkl.make_evaluator(leng, p.mu());

  // The production engine (runtime-dispatched SIMD kernels, fused bundle
  // path).
  SimdFftEngine seng(p.ring.n_ring);
  const auto dks = load_device_keyset(seng, ck);
  auto evs = dks.make_evaluator(seng, p.mu());

  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      const LweSample ca = sk.encrypt_bit(a, rng);
      const LweSample cb = sk.encrypt_bit(b, rng);
      EXPECT_EQ(sk.decrypt_bit(evd.gate_nand(ca, cb)), !(a && b))
          << "double " << a << b;
      EXPECT_EQ(sk.decrypt_bit(evl.gate_nand(ca, cb)), !(a && b))
          << "lift " << a << b;
      EXPECT_EQ(sk.decrypt_bit(evs.gate_nand(ca, cb)), !(a && b))
          << "simd " << a << b;
    }
  }
  // sel = 0 picks c0, which differs from both sel and c1.
  const LweSample sel = sk.encrypt_bit(0, rng);
  const LweSample c1 = sk.encrypt_bit(0, rng);
  const LweSample c0 = sk.encrypt_bit(1, rng);
  EXPECT_EQ(sk.decrypt_bit(evs.gate_mux(sel, c1, c0)), 1) << "simd mux";
}

TEST(Integration, FullAdderCircuitTestParams) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(7);
  const auto dk = load_device_keyset(K.deng, K.ck2);
  auto ev = dk.make_evaluator(K.deng, K.params.mu());

  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      for (int cin = 0; cin <= 1; ++cin) {
        const LweSample ca = K.sk.encrypt_bit(a, rng);
        const LweSample cb = K.sk.encrypt_bit(b, rng);
        const LweSample cc = K.sk.encrypt_bit(cin, rng);
        const LweSample axb = ev.gate_xor(ca, cb);
        const LweSample sum = ev.gate_xor(axb, cc);
        const LweSample carry =
            ev.gate_or(ev.gate_and(ca, cb), ev.gate_and(cc, axb));
        EXPECT_EQ(K.sk.decrypt_bit(sum), a ^ b ^ cin);
        EXPECT_EQ(K.sk.decrypt_bit(carry), (a + b + cin) >= 2);
      }
    }
  }
}

TEST(Integration, DecryptionFailureSweepAcrossTwiddleBits) {
  // Scaled-down version of the paper's 10^8-gate failure test: at adequate
  // DVQTF widths there must be zero failures; at pathologically low widths
  // the gates break (showing the test has teeth).
  const auto& K = shared_keys();
  Rng rng = test::test_rng(8);
  for (int bits : {28, 40}) {
    LiftFftEngine eng(K.params.ring.n_ring, bits);
    const auto dk = load_device_keyset(eng, K.ck2);
    auto ev = dk.make_evaluator(eng, K.params.mu());
    const auto st = noise::measure_gate_noise(K.sk, ev, 60, rng);
    EXPECT_EQ(st.failures, 0) << bits;
  }
  {
    LiftFftEngine eng(K.params.ring.n_ring, 7);
    const auto dk = load_device_keyset(eng, K.ck2);
    auto ev = dk.make_evaluator(eng, K.params.mu());
    const auto st = noise::measure_gate_noise(K.sk, ev, 30, rng);
    EXPECT_GT(st.failures, 0);
  }
}

TEST(Integration, HigherUnrollNeedsMorePrecision) {
  // Table 3's punchline: larger m leaves less budget for FFT error. At a
  // borderline twiddle width, m=3 must show more phase noise than m=1.
  const auto& K = shared_keys();
  Rng rng = test::test_rng(9);
  LiftFftEngine eng(K.params.ring.n_ring, 18);
  const auto dk1 = load_device_keyset(eng, K.ck1);
  auto ev1 = dk1.make_evaluator(eng, K.params.mu());
  const auto s1 = noise::measure_gate_noise(K.sk, ev1, 40, rng);
  const auto dk3 = load_device_keyset(eng, K.ck3);
  auto ev3 = dk3.make_evaluator(eng, K.params.mu());
  const auto s3 = noise::measure_gate_noise(K.sk, ev3, 40, rng);
  EXPECT_GT(s3.stddev, s1.stddev * 0.8); // bundle has more key material
}

TEST(Integration, AggressiveUnrollM5WithWideTwiddles) {
  // The paper's most aggressive point: m = 5 needs 64-bit DVQTFs. Verify the
  // whole stack handles m = 5 (31 TGSW per group) and that gates decrypt
  // correctly with the wide twiddles.
  const auto& K = shared_keys();
  Rng rng = test::test_rng(10);
  const CloudKeyset ck5 = make_cloud_keyset(K.sk, 5, rng);
  EXPECT_EQ(ck5.bk.groups[0].size(), 31u);
  LiftFftEngine eng(K.params.ring.n_ring, 64);
  const auto dk = load_device_keyset(eng, ck5);
  auto ev = dk.make_evaluator(eng, K.params.mu());
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      const LweSample ca = K.sk.encrypt_bit(a, rng);
      const LweSample cb = K.sk.encrypt_bit(b, rng);
      EXPECT_EQ(K.sk.decrypt_bit(ev.gate_nand(ca, cb)), !(a && b)) << a << b;
      EXPECT_EQ(K.sk.decrypt_bit(ev.gate_xor(ca, cb)), a ^ b) << a << b;
    }
  }
}

TEST(Integration, SharedKeysConsistency) {
  const auto& K = shared_keys();
  EXPECT_EQ(K.ck1.bk.unroll_m, 1);
  EXPECT_EQ(K.ck2.bk.unroll_m, 2);
  EXPECT_EQ(K.ck3.bk.unroll_m, 3);
  EXPECT_EQ(K.deng.ring_n(), K.params.ring.n_ring);
  EXPECT_EQ(K.leng.twiddle_bits(), 40);
}

} // namespace
} // namespace matcha
