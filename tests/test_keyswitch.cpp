// Key switch: message preservation and noise across the parameter space,
// plus the PR-6 bandwidth-engineering contracts -- SoA arena shape (no
// placeholder rows), batched-vs-sequential bit-identity, reference-loop
// equivalence of the streaming accumulate, and dispatch-level agreement for
// the integer keyswitch kernels (scalar / AVX2 / AVX-512 / NEON).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "test_util.h"

namespace matcha {
namespace {

using test::shared_keys;

TEST(KeySwitch, PreservesMessage) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(1);
  for (double m : {0.125, -0.125, 0.25, 0.0, 0.375}) {
    const Torus32 mu = double_to_torus32(m);
    const LweSample in =
        lwe_encrypt(K.sk.extracted, mu, K.params.ring.sigma, rng);
    const LweSample out = key_switch(K.ck1.ks, in);
    EXPECT_EQ(out.n(), K.params.lwe.n);
    EXPECT_LE(torus_distance(lwe_phase(K.sk.lwe, out), mu), 5e-3) << m;
  }
}

TEST(KeySwitch, NoiseWithinAnalyticBound) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(2);
  const int trials = 100;
  double sum2 = 0;
  for (int i = 0; i < trials; ++i) {
    const LweSample in = lwe_encrypt(K.sk.extracted, 0, 1e-9, rng);
    const LweSample out = key_switch(K.ck1.ks, in);
    const double e = torus32_to_double(lwe_phase(K.sk.lwe, out));
    sum2 += e * e;
  }
  const double std_meas = std::sqrt(sum2 / trials);
  // sigma_ks * sqrt(N * t) plus truncation.
  const double bound = K.params.ks.sigma *
                           std::sqrt(static_cast<double>(K.params.ring.n_ring) *
                                     K.params.ks.t) * 2.0 +
                       1e-4;
  EXPECT_LE(std_meas, bound);
  EXPECT_GT(std_meas, 0.0);
}

TEST(KeySwitch, LinearOverAddition) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(3);
  const Torus32 m1 = double_to_torus32(0.0625), m2 = double_to_torus32(0.125);
  const LweSample c1 = lwe_encrypt(K.sk.extracted, m1, K.params.ring.sigma, rng);
  const LweSample c2 = lwe_encrypt(K.sk.extracted, m2, K.params.ring.sigma, rng);
  const LweSample sum_then_switch = key_switch(K.ck1.ks, c1 + c2);
  EXPECT_LE(torus_distance(lwe_phase(K.sk.lwe, sum_then_switch), m1 + m2), 5e-3);
}

TEST(KeySwitch, ArenaShapeHasNoPlaceholderRows) {
  const auto& K = shared_keys();
  const auto& ks = K.ck1.ks;
  EXPECT_EQ(ks.n_in, K.params.ring.n_ring);
  EXPECT_EQ(ks.n_out, K.params.lwe.n);
  EXPECT_EQ(ks.t_used, std::min(ks.params.t, 32 / ks.params.basebit));
  // Only the base-1 real digit values of the live digits are materialized:
  // no v == 0 rows, no rows past the torus LSB.
  const size_t rows = static_cast<size_t>(ks.n_in) * ks.t_used *
                      (ks.params.base() - 1);
  EXPECT_EQ(ks.b_plane.size(), rows);
  EXPECT_EQ(ks.a_plane.size(), rows * static_cast<size_t>(ks.n_out));
  EXPECT_EQ(ks.rows(), static_cast<int>(rows));
  EXPECT_EQ(ks.key_bytes(),
            (ks.a_plane.size() + ks.b_plane.size()) * sizeof(Torus32));
  // The arenas feed the SIMD streaming subtract; they must be 64B-aligned.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ks.a_plane.data()) % kSpectralAlign,
            0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ks.b_plane.data()) % kSpectralAlign,
            0u);
}

class KsParamSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {}; // basebit, t

TEST_P(KsParamSweep, MessagePreservedAcrossParameterSpace) {
  const auto [basebit, t] = GetParam();
  const auto& K = shared_keys();
  Rng rng = test::test_rng(100 + basebit * 16 + t);
  const KeySwitchParams p{.basebit = basebit, .t = t, .sigma = 3.05e-5};
  const KeySwitchKey ks = make_keyswitch_key(K.sk.extracted, K.sk.lwe, p, rng);
  // Decompositions deeper than the torus truncate to t_used live digits
  // (the dead ones carry no information); precision is what t_used covers.
  const int prec_bits = std::min(32, ks.t_used * basebit);
  const double trunc_noise = std::pow(2.0, -prec_bits);
  for (double m : {0.125, -0.125, 0.25}) {
    const Torus32 mu = double_to_torus32(m);
    const LweSample in =
        lwe_encrypt(K.sk.extracted, mu, K.params.ring.sigma, rng);
    const LweSample out = key_switch(ks, in);
    const double err = torus_distance(lwe_phase(K.sk.lwe, out), mu);
    EXPECT_LE(err, 0.01 + trunc_noise * K.params.ring.n_ring) << m;
  }
}

// basebit=4, t=8 is the exact-32-bit case (PR 4 regression: round_offset
// must not shift by a negative amount); basebit=3, t=12 and basebit=4, t=10
// overrun the torus and exercise the t_used truncation.
INSTANTIATE_TEST_SUITE_P(Params, KsParamSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(4, 6, 8, 10, 12)));

TEST(KeySwitch, RowSamplesEncryptScaledKeyBits) {
  const auto& K = shared_keys();
  const auto& ks = K.ck1.ks;
  for (int i : {0, 17, 100}) {
    for (int j : {0, 3}) {
      for (uint32_t v : {1u, 3u}) {
        const Torus32 expect =
            v * static_cast<Torus32>(K.sk.extracted.s[i]) *
            (1u << (32 - (j + 1) * ks.params.basebit));
        EXPECT_LE(
            torus_distance(lwe_phase(K.sk.lwe, ks.row_sample(i, j, v)), expect),
            1e-3);
      }
    }
  }
}

/// Digit of c.a[i] selected for level j, mirroring the library's rounding
/// contract (offset from the *configured* t, window from t_used).
uint32_t ref_digit(const KeySwitchKey& ks, const LweSample& c, int i, int j) {
  const int prec_bits = ks.params.t * ks.params.basebit;
  const Torus32 off = prec_bits >= 32 ? 0 : 1u << (32 - prec_bits - 1);
  const int shift = 32 - (j + 1) * ks.params.basebit;
  const uint32_t mask = static_cast<uint32_t>(ks.params.base()) - 1;
  return ((c.a[static_cast<size_t>(i)] + off) >> shift) & mask;
}

/// Schoolbook key switch through the row_sample() accessor -- no arenas, no
/// kernels. The streaming/batched paths must match this bit for bit (torus
/// arithmetic is exact mod 2^32).
LweSample reference_key_switch(const KeySwitchKey& ks, const LweSample& c) {
  LweSample out(ks.n_out);
  for (auto& a : out.a) a = 0;
  out.b = c.b;
  for (int j = 0; j < ks.t_used; ++j) {
    for (int i = 0; i < ks.n_in; ++i) {
      const uint32_t v = ref_digit(ks, c, i, j);
      if (v == 0) continue;
      const LweSample row = ks.row_sample(i, j, v);
      for (int k = 0; k < ks.n_out; ++k) {
        out.a[static_cast<size_t>(k)] -= row.a[static_cast<size_t>(k)];
      }
      out.b -= row.b;
    }
  }
  return out;
}

TEST(KeySwitch, StreamingAccumulateMatchesReferenceBitExactly) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(20);
  for (int trial = 0; trial < 4; ++trial) {
    LweSample in(K.ck1.ks.n_in);
    for (auto& a : in.a) a = rng.uniform_torus();
    in.b = rng.uniform_torus();
    const LweSample want = reference_key_switch(K.ck1.ks, in);
    const LweSample got = key_switch(K.ck1.ks, in);
    EXPECT_EQ(got.a, want.a) << "trial " << trial;
    EXPECT_EQ(got.b, want.b) << "trial " << trial;
  }
}

TEST(KeySwitch, BatchedMatchesSequentialBitExactly) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(21);
  KeySwitchWorkspace ws; // reused across batch sizes: must grow, never stale
  for (const int batch : {1, 3, 8, 17}) {
    std::vector<LweSample> in(static_cast<size_t>(batch),
                              LweSample(K.ck1.ks.n_in));
    std::vector<LweSample> want, got(static_cast<size_t>(batch));
    for (auto& c : in) {
      for (auto& a : c.a) a = rng.uniform_torus();
      c.b = rng.uniform_torus();
    }
    for (const auto& c : in) want.push_back(key_switch(K.ck1.ks, c));

    std::vector<const LweSample*> inp;
    std::vector<LweSample*> outp;
    for (int k = 0; k < batch; ++k) {
      inp.push_back(&in[static_cast<size_t>(k)]);
      outp.push_back(&got[static_cast<size_t>(k)]);
    }
    key_switch_batch(K.ck1.ks, inp.data(), outp.data(), batch, ws);
    for (int k = 0; k < batch; ++k) {
      EXPECT_EQ(got[static_cast<size_t>(k)].a, want[static_cast<size_t>(k)].a)
          << "batch " << batch << " sample " << k;
      EXPECT_EQ(got[static_cast<size_t>(k)].b, want[static_cast<size_t>(k)].b)
          << "batch " << batch << " sample " << k;
    }
  }
}

TEST(KeySwitch, DispatchLevelsBitIdentical) {
  const auto& K = shared_keys();
  Rng rng = test::test_rng(22);
  const int batch = 5;
  std::vector<LweSample> in(batch, LweSample(K.ck1.ks.n_in));
  for (auto& c : in) {
    for (auto& a : c.a) a = rng.uniform_torus();
    c.b = rng.uniform_torus();
  }
  std::vector<const LweSample*> inp;
  for (const auto& c : in) inp.push_back(&c);

  // The schoolbook reference is the oracle; every level the host can
  // execute must agree with it, one sample at a time (B = 1) and batched.
  std::vector<LweSample> want;
  for (const auto& c : in) want.push_back(reference_key_switch(K.ck1.ks, c));
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2,
                                SimdLevel::kAvx512, SimdLevel::kNeon}) {
    if (!simd_level_available(level)) {
      GTEST_LOG_(INFO) << "skipping " << simd_level_name(level)
                       << ": host cannot execute it";
      continue;
    }
    KeySwitchWorkspace ws;
    for (int k = 0; k < batch; ++k) {
      LweSample one(0);
      LweSample* onep = &one;
      key_switch_batch(K.ck1.ks, &inp[static_cast<size_t>(k)], &onep, 1, ws,
                       level);
      EXPECT_EQ(one.a, want[static_cast<size_t>(k)].a)
          << simd_level_name(level) << " sample " << k;
      EXPECT_EQ(one.b, want[static_cast<size_t>(k)].b)
          << simd_level_name(level) << " sample " << k;
    }
    std::vector<LweSample> got(batch, LweSample(0));
    std::vector<LweSample*> outp;
    for (auto& c : got) outp.push_back(&c);
    key_switch_batch(K.ck1.ks, inp.data(), outp.data(), batch, ws, level);
    for (int k = 0; k < batch; ++k) {
      EXPECT_EQ(got[static_cast<size_t>(k)].a, want[static_cast<size_t>(k)].a)
          << simd_level_name(level) << " batched sample " << k;
      EXPECT_EQ(got[static_cast<size_t>(k)].b, want[static_cast<size_t>(k)].b)
          << simd_level_name(level) << " batched sample " << k;
    }
  }
}

} // namespace
} // namespace matcha
