#include <gtest/gtest.h>

#include <cmath>

#include "test_util.h"

namespace matcha {
namespace {

using test::shared_keys;

// Bootstrap maps phase in (0, 1/2) -> +mu and (-1/2, 0) -> -mu.
template <class Engine>
int bootstrapped_sign(const Engine& eng, const DeviceBootstrapKey<Engine>& bk,
                      const KeySwitchKey& ks, double phase_in, Rng& rng,
                      BlindRotateMode mode) {
  const auto& K = shared_keys();
  const LweSample in = lwe_encrypt(K.sk.lwe, double_to_torus32(phase_in),
                                   K.params.lwe.sigma, rng);
  BootstrapWorkspace<Engine> ws(eng, K.params.gadget);
  const LweSample out = bootstrap(eng, bk, ks, K.params.mu(), in, ws, mode);
  return lwe_decrypt_bit(K.sk.lwe, out);
}

class SignSweep : public ::testing::TestWithParam<double> {};

TEST_P(SignSweep, BundleDoubleM1) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(1);
  const auto bk = load_bootstrap_key(K.deng, K.ck1.bk);
  const double ph = GetParam();
  EXPECT_EQ(bootstrapped_sign(K.deng, bk, K.ck1.ks, ph, rng,
                              BlindRotateMode::kBundle),
            ph > 0 ? 1 : 0)
      << ph;
}

TEST_P(SignSweep, ClassicDoubleM1) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(2);
  const auto bk = load_bootstrap_key(K.deng, K.ck1.bk);
  const double ph = GetParam();
  EXPECT_EQ(bootstrapped_sign(K.deng, bk, K.ck1.ks, ph, rng,
                              BlindRotateMode::kClassicCMux),
            ph > 0 ? 1 : 0)
      << ph;
}

TEST_P(SignSweep, BundleDoubleM2) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(3);
  const auto bk = load_bootstrap_key(K.deng, K.ck2.bk);
  const double ph = GetParam();
  EXPECT_EQ(bootstrapped_sign(K.deng, bk, K.ck2.ks, ph, rng,
                              BlindRotateMode::kBundle),
            ph > 0 ? 1 : 0)
      << ph;
}

TEST_P(SignSweep, BundleLift40M3) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(4);
  const auto bk = load_bootstrap_key(K.leng, K.ck3.bk);
  const double ph = GetParam();
  EXPECT_EQ(bootstrapped_sign(K.leng, bk, K.ck3.ks, ph, rng,
                              BlindRotateMode::kBundle),
            ph > 0 ? 1 : 0)
      << ph;
}

INSTANTIATE_TEST_SUITE_P(Phases, SignSweep,
                         ::testing::Values(0.02, 0.125, 0.25, 0.375, 0.48,
                                           -0.02, -0.125, -0.25, -0.375,
                                           -0.48));

TEST(Bootstrap, OutputNoiseSmall) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(5);
  const auto bk = load_bootstrap_key(K.deng, K.ck1.bk);
  BootstrapWorkspace<DoubleFftEngine> ws(K.deng, K.params.gadget);
  double max_err = 0;
  for (int i = 0; i < 20; ++i) {
    const LweSample in = lwe_encrypt(K.sk.lwe, torus_fraction(1, 8),
                                     K.params.lwe.sigma, rng);
    const LweSample out =
        bootstrap(K.deng, bk, K.ck1.ks, K.params.mu(), in, ws);
    const double err = torus_distance(lwe_phase(K.sk.lwe, out), K.params.mu());
    max_err = std::max(max_err, err);
  }
  EXPECT_LT(max_err, 1.0 / 16);
}

TEST(Bootstrap, ResetsAccumulatedNoise) {
  // Feed a very noisy (but decryptable) sample; output noise must be the
  // fresh bootstrap noise, not the input noise.
  const auto& K = shared_keys();
  Rng rng = test::test_rng(6);
  const auto bk = load_bootstrap_key(K.deng, K.ck1.bk);
  BootstrapWorkspace<DoubleFftEngine> ws(K.deng, K.params.gadget);
  const LweSample in =
      lwe_encrypt(K.sk.lwe, torus_fraction(1, 8), 0.02, rng); // huge noise
  const LweSample out = bootstrap(K.deng, bk, K.ck1.ks, K.params.mu(), in, ws);
  EXPECT_LT(torus_distance(lwe_phase(K.sk.lwe, out), K.params.mu()), 0.02);
}

TEST(Bootstrap, WoKeySwitchOutputUnderExtractedKey) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(7);
  const auto bk = load_bootstrap_key(K.deng, K.ck1.bk);
  BootstrapWorkspace<DoubleFftEngine> ws(K.deng, K.params.gadget);
  const LweSample in = lwe_encrypt(K.sk.lwe, torus_fraction(1, 8),
                                   K.params.lwe.sigma, rng);
  LweSample u;
  const LweSample* inp = &in;
  LweSample* up = &u;
  bootstrap_wo_keyswitch_batch(K.deng, bk, K.params.mu(), &inp, &up, 1, ws);
  EXPECT_EQ(u.n(), K.params.ring.n_ring);
  EXPECT_LT(torus_distance(lwe_phase(K.sk.extracted, u), K.params.mu()),
            1.0 / 16);
}

TEST(Bootstrap, ClassicAndBundleAgreeOnDecryption) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(8);
  const auto bk = load_bootstrap_key(K.deng, K.ck1.bk);
  BootstrapWorkspace<DoubleFftEngine> ws(K.deng, K.params.gadget);
  for (int i = 0; i < 10; ++i) {
    const double ph = (rng.uniform_double() - 0.5) * 0.9;
    if (std::abs(ph) < 0.02) continue;
    const LweSample in =
        lwe_encrypt(K.sk.lwe, double_to_torus32(ph), K.params.lwe.sigma, rng);
    const LweSample o1 = bootstrap(K.deng, bk, K.ck1.ks, K.params.mu(), in, ws,
                                   BlindRotateMode::kClassicCMux);
    const LweSample o2 = bootstrap(K.deng, bk, K.ck1.ks, K.params.mu(), in, ws,
                                   BlindRotateMode::kBundle);
    EXPECT_EQ(lwe_decrypt_bit(K.sk.lwe, o1), lwe_decrypt_bit(K.sk.lwe, o2))
        << ph;
  }
}

TEST(Bootstrap, UnrollFactorsAgreeOnDecryption) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(9);
  const auto bk1 = load_bootstrap_key(K.deng, K.ck1.bk);
  const auto bk2 = load_bootstrap_key(K.deng, K.ck2.bk);
  const auto bk3 = load_bootstrap_key(K.deng, K.ck3.bk);
  BootstrapWorkspace<DoubleFftEngine> ws(K.deng, K.params.gadget);
  for (int i = 0; i < 8; ++i) {
    const double ph = (rng.uniform_double() - 0.5) * 0.9;
    if (std::abs(ph) < 0.03) continue;
    const LweSample in =
        lwe_encrypt(K.sk.lwe, double_to_torus32(ph), K.params.lwe.sigma, rng);
    const int b1 = lwe_decrypt_bit(
        K.sk.lwe, bootstrap(K.deng, bk1, K.ck1.ks, K.params.mu(), in, ws));
    const int b2 = lwe_decrypt_bit(
        K.sk.lwe, bootstrap(K.deng, bk2, K.ck2.ks, K.params.mu(), in, ws));
    const int b3 = lwe_decrypt_bit(
        K.sk.lwe, bootstrap(K.deng, bk3, K.ck3.ks, K.params.mu(), in, ws));
    EXPECT_EQ(b1, b2) << ph;
    EXPECT_EQ(b1, b3) << ph;
  }
}

TEST(Bootstrap, KernelCountsMatchPaperAccounting) {
  // Per bundle-mode blind-rotate group: 2l "IFFT" + 2 "FFT" kernels.
  const auto& K = shared_keys();
  Rng rng = test::test_rng(10);
  const auto bk = load_bootstrap_key(K.deng, K.ck2.bk);
  BootstrapWorkspace<DoubleFftEngine> ws(K.deng, K.params.gadget);
  K.deng.counters().reset();
  const LweSample in = lwe_encrypt(K.sk.lwe, torus_fraction(1, 8),
                                   K.params.lwe.sigma, rng);
  (void)bootstrap(K.deng, bk, K.ck2.ks, K.params.mu(), in, ws);
  const auto& c = K.deng.counters();
  const int groups = K.ck2.bk.num_groups();
  const int l = K.params.gadget.l;
  // The first active group's acc.a is identically zero, so its l forward
  // FFTs are skipped and show up in zero_fft_skips instead; the paper's
  // 2l : 2 per-group ratio holds once the skips are added back in.
  EXPECT_EQ(c.zero_fft_skips, static_cast<int64_t>(l));
  const int64_t fwd = c.to_spectral_calls + c.zero_fft_skips;
  // Almost every group runs (a rare all-zero-exponent group is skipped).
  EXPECT_LE(fwd, static_cast<int64_t>(groups) * 6);
  EXPECT_GE(fwd, static_cast<int64_t>(groups - 3) * 6);
  EXPECT_EQ(fwd / 3, c.from_spectral_calls); // 6 : 2 ratio
}

} // namespace
} // namespace matcha
