// NEON (aarch64 Advanced SIMD) kernel set. NEON is baseline on aarch64, so
// no special compile flags are needed; the TU compiles to the null getter on
// every other target. The index-heavy kernels (rot_scale_add, decompose)
// keep mostly portable bodies -- aarch64 has no double-precision gather, so
// the table lookups stay scalar while the arithmetic around them and the
// decompose shift/mask pipeline use vector lanes.
#include "fft/spectral_kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "fft/spectral_kernels_impl.h"

namespace matcha {
namespace {

/// 4-lane gadget decomposition (vshlq with a negative count = right shift).
void decompose_neon(int l, int bg_bits, uint32_t offset, int n,
                    const uint32_t* p, int32_t* const* digits) {
  const uint32_t mask = (1u << bg_bits) - 1;
  const int32_t half = 1 << (bg_bits - 1);
  const uint32x4_t voff = vdupq_n_u32(offset);
  const uint32x4_t vmask = vdupq_n_u32(mask);
  const int32x4_t vhalf = vdupq_n_s32(half);
  for (int j = 0; j < l; ++j) {
    const int sh = 32 - (j + 1) * bg_bits;
    const int32x4_t vsh = vdupq_n_s32(-sh);
    int32_t* dj = digits[j];
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      const uint32x4_t tt = vaddq_u32(vld1q_u32(p + i), voff);
      const uint32x4_t raw = vandq_u32(vshlq_u32(tt, vsh), vmask);
      vst1q_s32(dj + i, vsubq_s32(vreinterpretq_s32_u32(raw), vhalf));
    }
    for (; i < n; ++i) {
      dj[i] = static_cast<int32_t>(((p[i] + offset) >> sh) & mask) - half;
    }
  }
}

const SpectralKernels kNeonKernels = {
    "neon",
    &detail::PlanarKernels<simd::Neon>::forward,
    &detail::PlanarKernels<simd::Neon>::inverse_torus,
    &detail::PlanarKernels<simd::Neon>::mac,
    &detail::generic_rot_scale_add,
    &detail::PlanarKernels<simd::Neon>::add_assign,
    &detail::PlanarKernels<simd::Neon>::scale_add,
    // No FP gather on aarch64; the portable rotation-factor loop runs once
    // per sample and subset, and the gather-free bundle_mac hot loop
    // vectorizes fine.
    &detail::generic_rot_factor,
    &detail::PlanarKernels<simd::Neon>::bundle_mac,
    &decompose_neon,
    &detail::u32_sub<simd::Neon>,
    &detail::ks_digits<simd::Neon>,
    // No integer gather on aarch64; the portable row-skipping loop stays.
    &detail::generic_ks_gather_b,
};

} // namespace

const SpectralKernels* spectral_kernels_neon() { return &kNeonKernels; }

} // namespace matcha

#else // !__aarch64__

namespace matcha {
const SpectralKernels* spectral_kernels_neon() { return nullptr; }
} // namespace matcha

#endif
