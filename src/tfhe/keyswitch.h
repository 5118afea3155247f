// LWE key switching (paper Algorithm 1, line 9): maps the N-dimensional LWE
// sample extracted from the accumulator back to the n-dimensional gate key.
// Standard TFHE construction: a precomputed table encrypting
// v * s_in[i] / base^{j+1} makes the switch pure torus additions.
//
// The key is the one large operand of the software gate (tens of MB at
// production parameters), so its layout is engineered for memory bandwidth
// rather than pointer convenience:
//
//   * SoA arenas, not LweSample objects. All rows' a-vectors live in one
//     64B-aligned planar arena (`a_plane`, rows x n_out contiguous Torus32),
//     all b components in a second (`b_plane`). The inner accumulate is a
//     contiguous n_out-word streaming subtract per selected row -- no
//     per-sample heap blocks, no pointer chasing.
//   * No placeholder rows. The classic [n_in][t][base] table wastes 1/base
//     of its storage on v == 0 entries that are never touched, plus whole
//     (i, j) groups once the digit window slides past the torus LSB
//     (t * basebit > 32). Only the base-1 real digit values of the
//     `t_used = min(t, 32/basebit)` live digits are materialized.
//   * j-major row order: row(i, j, v) = (j*n_in + i)*(base-1) + (v-1).
//     Digit extraction emits indices in exactly this order, so the batched
//     accumulate walks the key arena and the digit array in lockstep.
//
// Evaluation is batched: key_switch_batch extracts every sample's digit
// indices first (ks_digits kernel), then makes ONE pass over the key
// applying each visited row to every sample that selected it -- the big
// operand is read once per batch instead of once per sample. A single
// sample is a B = 1 call (key_switch wraps one for examples and tests).
//
// Torus arithmetic is exact mod 2^32 and commutative, so every batch size
// and every SIMD dispatch level (fft/spectral_kernels.h keyswitch kernels)
// produce bit-identical outputs.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/aligned.h"
#include "common/rng.h"
#include "common/simd_dispatch.h"
#include "tfhe/lwe.h"

namespace matcha {

struct KeySwitchKey {
  KeySwitchParams params;
  int n_in = 0;   ///< dimension of the source key (N)
  int n_out = 0;  ///< dimension of the target key (n)
  int t_used = 0; ///< digits that carry information: min(t, 32/basebit)

  /// Row r's a-vector occupies a_plane[r*n_out .. r*n_out + n_out); its b
  /// component is b_plane[r]. Rows are j-major (see row()).
  AlignedVector<Torus32> a_plane;
  AlignedVector<Torus32> b_plane;

  /// Arena row of the sample encrypting v * s_in[i] / base^{j+1}.
  /// Requires 1 <= v < base and j < t_used.
  size_t row(int i, int j, uint32_t v) const {
    assert(v >= 1 && v < static_cast<uint32_t>(params.base()) && j < t_used);
    return (static_cast<size_t>(j) * n_in + i) * (params.base() - 1) + (v - 1);
  }
  const Torus32* row_a(size_t r) const { return a_plane.data() + r * n_out; }

  int rows() const { return static_cast<int>(b_plane.size()); }
  /// Arena footprint (the operand the batch path streams once per batch).
  size_t key_bytes() const {
    return (a_plane.size() + b_plane.size()) * sizeof(Torus32);
  }

  /// Materialize row (i, j, v) as an LweSample (tests, serialization,
  /// noise analysis -- not the hot path).
  LweSample row_sample(int i, int j, uint32_t v) const;
};

KeySwitchKey make_keyswitch_key(const LweKey& in, const LweKey& out,
                                const KeySwitchParams& p, Rng& rng);

/// Reusable digit-index buffer for key_switch_batch; grows to the largest
/// batch it has served and is freely reusable across keys.
struct KeySwitchWorkspace {
  AlignedVector<uint32_t> digits; ///< [batch][t_used * n_in], j-major
};

/// KeySwitch(c) by value: a B = 1 call of key_switch_batch with a
/// throwaway workspace (examples and tests; hot loops batch).
LweSample key_switch(const KeySwitchKey& ks, const LweSample& c);

/// Batched key switch: out[k] = KeySwitch(*in[k]) for k in [0, batch), with
/// the key streamed from memory once for the whole batch. Bit-identical to
/// `batch` calls at B = 1. out[k] is resized to n_out (no allocation once
/// at capacity); in[k]/out[k] must not alias each other.
void key_switch_batch(const KeySwitchKey& ks, const LweSample* const* in,
                      LweSample* const* out, int batch, KeySwitchWorkspace& ws,
                      SimdLevel level = active_simd_level());

} // namespace matcha
