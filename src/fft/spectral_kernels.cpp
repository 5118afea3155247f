// Plan construction + runtime kernel dispatch. The scalar kernel set is
// instantiated here; the AVX2/AVX-512/NEON sets live in their own TUs so
// they can be compiled with the matching ISA flags.
#include "fft/spectral_kernels.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "common/bits.h"
#include "fft/spectral_kernels_impl.h"

namespace matcha {

namespace {

/// Storage permutation of the iterative radix-4 DIF flow: slot k of the
/// spectral buffer holds frequency nat(k). Recursion mirrors the stage
/// structure: quarter r of a size-s block collects frequencies == r (mod 4),
/// sub-ordered by the size-s/4 permutation; a size-2 block is natural.
std::vector<int32_t> nat_perm(int size) {
  std::vector<int32_t> out(static_cast<size_t>(size));
  if (size <= 2) {
    for (int i = 0; i < size; ++i) out[static_cast<size_t>(i)] = i;
    return out;
  }
  const int q = size / 4;
  const std::vector<int32_t> sub = nat_perm(q);
  for (int r = 0; r < 4; ++r) {
    for (int j = 0; j < q; ++j) {
      out[static_cast<size_t>(r * q + j)] = 4 * sub[static_cast<size_t>(j)] + r;
    }
  }
  return out;
}

constexpr int round_up8(int x) { return (x + 7) & ~7; }

/// Twiddles for one radix-4 stage: w_r[j] = exp(sign * 2*pi*i * r*j / size).
PlanStage make_stage(int size, int sign) {
  PlanStage st;
  st.size = size;
  st.q = size / 4;
  st.seg = round_up8(st.q);
  st.tw.assign(static_cast<size_t>(6 * st.seg), 0.0);
  double* planes = st.tw.data();
  for (int r = 1; r <= 3; ++r) {
    double* wr = planes + (2 * r - 2) * st.seg;
    double* wi = planes + (2 * r - 1) * st.seg;
    for (int j = 0; j < st.q; ++j) {
      const double theta =
          sign * 2.0 * std::numbers::pi * static_cast<double>(r) * j / size;
      wr[j] = std::cos(theta);
      wi[j] = std::sin(theta);
    }
  }
  return st;
}

} // namespace

NegacyclicPlan::NegacyclicPlan(int n_ring) : n(n_ring), m(n_ring / 2) {
  assert(is_pow2(static_cast<uint64_t>(n_ring)) && n_ring >= 8);
  int size = m;
  while (size >= 4) {
    fwd.push_back(make_stage(size, +1));
    size /= 4;
  }
  pair_stage = (size == 2);
  for (auto it = fwd.rbegin(); it != fwd.rend(); ++it) {
    inv.push_back(make_stage(it->size, -1));
  }

  twist_re.resize(static_cast<size_t>(m));
  twist_im.resize(static_cast<size_t>(m));
  itwist_re.resize(static_cast<size_t>(m));
  itwist_im.resize(static_cast<size_t>(m));
  const double inv_m = 1.0 / m;
  for (int j = 0; j < m; ++j) {
    const double theta = std::numbers::pi * j / n;
    twist_re[static_cast<size_t>(j)] = std::cos(theta);
    twist_im[static_cast<size_t>(j)] = std::sin(theta);
    itwist_re[static_cast<size_t>(j)] = std::cos(theta) * inv_m;
    itwist_im[static_cast<size_t>(j)] = -std::sin(theta) * inv_m;
  }

  rot_re.resize(static_cast<size_t>(2 * n));
  rot_im.resize(static_cast<size_t>(2 * n));
  for (int j = 0; j < 2 * n; ++j) {
    const double theta = -std::numbers::pi * j / n;
    rot_re[static_cast<size_t>(j)] = std::cos(theta);
    rot_im[static_cast<size_t>(j)] = std::sin(theta);
  }

  nat = nat_perm(m);
  ft1.resize(static_cast<size_t>(m));
  for (int k = 0; k < m; ++k) {
    ft1[static_cast<size_t>(k)] = 4 * nat[static_cast<size_t>(k)] + 1;
  }
}

namespace {

const SpectralKernels kScalarKernels = {
    "scalar",
    &detail::PlanarKernels<simd::Scalar>::forward,
    &detail::PlanarKernels<simd::Scalar>::inverse_torus,
    &detail::PlanarKernels<simd::Scalar>::mac,
    &detail::generic_rot_scale_add,
    &detail::PlanarKernels<simd::Scalar>::add_assign,
    &detail::PlanarKernels<simd::Scalar>::scale_add,
    &detail::generic_rot_factor,
    &detail::PlanarKernels<simd::Scalar>::bundle_mac,
    &detail::generic_decompose,
    &detail::u32_sub<simd::Scalar>,
    &detail::ks_digits<simd::Scalar>,
    &detail::generic_ks_gather_b,
};

} // namespace

// Defined in the per-ISA TUs; null when the binary lacks that backend.
const SpectralKernels* spectral_kernels_avx2();
const SpectralKernels* spectral_kernels_avx512();
const SpectralKernels* spectral_kernels_neon();

const SpectralKernels& spectral_kernels(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      // Degrade within the x86 family: a binary built without the AVX-512 TU
      // (non-GCC/Clang, non-x86) still gets the widest set it does have.
      if (const SpectralKernels* k = spectral_kernels_avx512()) return *k;
      [[fallthrough]];
    case SimdLevel::kAvx2:
      if (const SpectralKernels* k = spectral_kernels_avx2()) return *k;
      break;
    case SimdLevel::kNeon:
      if (const SpectralKernels* k = spectral_kernels_neon()) return *k;
      break;
    case SimdLevel::kScalar:
      break;
  }
  return kScalarKernels;
}

} // namespace matcha
