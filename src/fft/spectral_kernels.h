// Planar negacyclic FFT plan + runtime-dispatched kernel vtable.
//
// The SIMD spectral engine (fft/simd_fft.h) evaluates the folded negacyclic
// transform of spectral.h on planar split-format buffers with an *iterative*
// radix-4 flow and a fixed digit-reversed storage order:
//
//   forward ("IFFT"): fused twist + radix-4 decimation-in-frequency stages
//     (sizes m, m/4, ..., plus one final radix-2 pair stage when m = 2*4^t).
//     The output stays in base-4 digit-reversed order -- no bit-reverse pass.
//   inverse ("FFT"): the mirrored radix-4 decimation-in-time stages consume
//     that storage order directly and emit natural-order coefficients, with
//     the untwist, the 1/m normalization, and the Torus32 rounding fused
//     into the last stage's stores. The MAC-only external-product path
//     therefore never permutes data.
//   A q = 2 stage (quarters narrower than an AVX2/AVX-512 vector) runs on
//   full vectors through an in-register quarter transpose (fft/simd.h
//   load_q2/store_q2); the plan and storage order do not change.
//
// Pointwise kernels (mac, add_assign, add_constant) are order-agnostic. The
// one index-dependent kernel, rot_scale_add (bundle construction, multiplies
// by X^{-c} - 1), resolves the storage permutation through the precomputed
// `ft1` table: slot k holds frequency nat(k), whose rotation factor is
// root2n[(4*nat(k)+1)*c mod 2N] -- two table gathers per slot instead of the
// reference engine's serial f *= step recurrence.
//
// Twiddle tables are interleaved per stage: one aligned buffer holding the
// six planes {w1.re, w1.im, w2.re, w2.im, w3.re, w3.im}, each padded to a
// vector boundary, so a stage touches one contiguous table block.
//
// Kernel implementations live in per-ISA translation units
// (spectral_kernels.cpp scalar, spectral_kernels_{avx2,avx512,neon}.cpp)
// instantiating
// spectral_kernels_impl.h over the fft/simd.h policies; spectral_kernels()
// picks the vtable for a SimdLevel at runtime.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/simd_dispatch.h"

namespace matcha {

/// Twiddles for one radix-4 stage (butterfly span `size`, quarter q=size/4).
struct PlanStage {
  int size = 0;
  int q = 0;
  int seg = 0;              ///< padded plane length (multiple of 8)
  AlignedVector<double> tw; ///< 6 planes: w1r w1i w2r w2i w3r w3i

  const double* w1r() const { return tw.data(); }
  const double* w1i() const { return tw.data() + seg; }
  const double* w2r() const { return tw.data() + 2 * seg; }
  const double* w2i() const { return tw.data() + 3 * seg; }
  const double* w3r() const { return tw.data() + 4 * seg; }
  const double* w3i() const { return tw.data() + 5 * seg; }
};

/// Precomputed tables for ring size N: stage twiddles (both directions),
/// twist factors, rotation root table, and the storage-order index table.
/// Immutable after construction; shared by const reference with every
/// kernel, so one plan may serve concurrent readers.
struct NegacyclicPlan {
  int n = 0;            ///< ring size N
  int m = 0;            ///< spectral size N/2
  bool pair_stage = false; ///< m = 2*4^t: forward ends / inverse begins radix-2

  std::vector<PlanStage> fwd; ///< sizes m, m/4, ... (>= 4), sign +1
  std::vector<PlanStage> inv; ///< sizes ... , m/4, m (conjugated twiddles)

  AlignedVector<double> twist_re, twist_im;   ///< exp(+i*pi*j/N), j in [0,m)
  AlignedVector<double> itwist_re, itwist_im; ///< exp(-i*pi*j/N) / m
  AlignedVector<double> rot_re, rot_im;       ///< exp(-i*pi*j/N), j in [0,2N)
  AlignedVector<int32_t> ft1;                 ///< 4*nat(k)+1 per storage slot
  std::vector<int32_t> nat;                   ///< slot -> frequency index

  explicit NegacyclicPlan(int n_ring);
};

/// One ISA's kernel set. All pointers are non-null in every vtable; the
/// scalar vtable is the portable fallback and the bit-exactness baseline for
/// the MATCHA_SIMD=off CI leg.
struct SpectralKernels {
  const char* name;

  /// Fused twist + forward DIF; `in` is the N-coefficient polynomial (torus
  /// buffers are reinterpreted as int32), re/im the m-slot planes. `in` must
  /// not alias re/im.
  void (*forward)(const NegacyclicPlan& plan, const int32_t* in, double* re,
                  double* im);
  /// Inverse DIT + untwist + 1/m + round-half-away + Torus32 wrap. Reads
  /// sre/sim (storage order), scribbles on the caller's wre/wim scratch, and
  /// writes the N-coefficient torus polynomial. out must not alias scratch.
  void (*inverse_torus)(const NegacyclicPlan& plan, const double* sre,
                        const double* sim, double* wre, double* wim,
                        uint32_t* out);
  /// acc += a * b, pointwise complex over m slots.
  void (*mac)(int m, const double* ar, const double* ai, const double* br,
              const double* bi, double* accr, double* acci);
  /// dst += (X^{-c} - 1) * src (c mod 2N); dst must not alias src.
  void (*rot_scale_add)(const NegacyclicPlan& plan, double* dr, double* di,
                        const double* sr, const double* si, int64_t c);
  /// dst += src over m slots.
  void (*add_assign)(int m, double* dr, double* di, const double* sr,
                     const double* si);
  /// dst += c * src over m slots (real constant, both planes). The fused
  /// bundle path uses this for the gadget-identity term: H's row j is the
  /// real constant Bg^{-(j+1)}, so its MAC against a digit spectrum is a
  /// scalar scale-accumulate -- and for synthesizing the constant test
  /// vector's digit spectra from the cached F(ones).
  void (*scale_add)(int m, double* dr, double* di, const double* sr,
                    const double* si, double c);
  /// Materialize the pointwise rotation factor f = X^{-c} - 1 (c mod 2N)
  /// into planar buffers: fr[k] = rot_re[idx(k)] - 1, fi[k] = rot_im[idx(k)]
  /// with the same ft1 storage-order gathers as rot_scale_add. The fused
  /// bundle path runs this once per sample and active key subset -- the
  /// factor is identical across all 2l decomposition rows -- so the gathers
  /// drop out of the bundle_mac hot loop entirely.
  void (*rot_factor)(const NegacyclicPlan& plan, double* fr, double* fi,
                     int64_t c);
  /// Fused bundle-MAC over one key subset for `count` samples: for each
  /// sample b,
  ///     acc_b += f_b (*) sum_{r < rows} d_{b,r} (*) BK_r
  /// pointwise complex over m slots, per key column. `key` holds the subset's
  /// rows at key + r*4m, each the four planes [col0.re | col0.im | col1.re |
  /// col1.im] (the DeviceBootstrapKey SoA arena layout). samples[b] points at
  /// sample b's block: `rows` digit spectra d_{b,r} at + r*2m (re plane, im
  /// at +m), then the four accumulator planes [a.re | a.im | b.re | b.im],
  /// then the two planes of the rotation factor f_b = X^{-c_b} - 1
  /// (rot_factor). The kernel walks the samples in blocks of the ISA's
  /// simd policy kSampleBlock and loads each key row once per slot step for
  /// the whole block, so one pass over the subset's key block serves every
  /// sample of the block. Per sample the subset sum associates row by row
  /// (first row set, not added to zero) and is then rotated into the
  /// accumulator, whatever the block size. Blocks must not alias each other
  /// or the key.
  void (*bundle_mac)(int m, int rows, const double* key, int count,
                     double* const* samples);
  /// Signed gadget decomposition of an N-coefficient torus polynomial into l
  /// digit polynomials (math/decompose.h semantics; offset is
  /// GadgetParams::rounding_offset()). digits[j] points at digit j's
  /// N-int32 buffer; buffers must not overlap p.
  void (*decompose)(int l, int bg_bits, uint32_t offset, int n,
                    const uint32_t* p, int32_t* const* digits);

  // -- keyswitch streaming kernels (tfhe/keyswitch.cpp). Torus arithmetic is
  //    exact mod 2^32, so every level produces bit-identical results.

  /// dst[k] -= src[k] over n uint32 lanes. The keyswitch inner accumulate:
  /// one contiguous SoA key row subtracted from an output a[] vector.
  void (*u32_sub)(uint32_t* dst, const uint32_t* src, int n);
  /// Keyswitch digit extraction, j-major to match the SoA key row order:
  /// out[j*n_in + i] = ((a[i] + off) >> (32 - (j+1)*basebit)) & (2^basebit-1)
  /// for j in [0, t). Caller guarantees t*basebit <= 32.
  void (*ks_digits)(const uint32_t* a, int n_in, int t, int basebit,
                    uint32_t off, uint32_t* out);
  /// Sum of selected key b-plane entries: for each row r in [0, rows) with
  /// digit d[r] != 0, accumulate b_plane[r*(base-1) + d[r] - 1] (mod 2^32).
  uint32_t (*ks_gather_b)(const uint32_t* d, const uint32_t* b_plane,
                          int rows, int base);
};

/// The kernel set for `level`. Requesting a level this binary/CPU cannot run
/// returns the scalar set.
const SpectralKernels& spectral_kernels(SimdLevel level);

} // namespace matcha
