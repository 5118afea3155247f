// Bootstrapping-key unrolling (BKU), generalized to any unroll factor m >= 1
// (paper section 4.2; Bourse et al. and Zhou et al. for m = 2).
//
// The LWE secret bits are partitioned into groups of m. For each group the
// key stores, for every nonempty subset S of the group's indices, a TGSW
// encryption of the 0/1 indicator
//     ind_S = prod_{i in S} s_i * prod_{i not in S} (1 - s_i),
// i.e. "the group's secret bits match pattern S exactly". Since the
// indicators sum to 1 over all 2^m patterns,
//     X^{-sum a_i s_i} = 1 + sum_{S != 0} (X^{-c_S} - 1) * ind_S,
// which is the bootstrapping key bundle of Fig. 5 generalized; a blind-rotate
// iteration consumes one whole group with a single external product. The key
// grows as (2^m - 1) TGSW per group -- the exponential Table 3 calls out.
//
// m = 1 degenerates to the standard TFHE bootstrapping key (one TGSW per
// secret bit), so every unroll factor shares one code path.
#pragma once

#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "tfhe/tgsw.h"

namespace matcha {

/// Coefficient-domain ("cloud") unrolled bootstrapping key.
struct UnrolledBootstrapKey {
  int unroll_m = 1;
  int n_lwe = 0;
  RingParams ring;
  GadgetParams gadget;
  /// groups[g][mask-1] encrypts ind_S for S = bit pattern `mask` over the
  /// group's members (mask in [1, 2^{members(g)})).
  std::vector<std::vector<TGswSample>> groups;

  int num_groups() const { return static_cast<int>(groups.size()); }
  /// Number of secret bits in group g (== unroll_m except a short tail).
  int members(int g) const;
  /// Total TGSW samples stored (the BK-size blowup of Table 3).
  int total_tgsw() const;
};

/// Generate the unrolled key for `lwe_key` under `ring_key`. Encryption runs
/// client-side with the exact double-precision engine.
UnrolledBootstrapKey make_unrolled_bootstrap_key(const LweKey& lwe_key,
                                                 const TLweKey& ring_key,
                                                 const GadgetParams& gadget,
                                                 int unroll_m, Rng& rng);

/// Device-resident (spectral) form, templated on the evaluation engine.
template <class Engine>
struct DeviceBootstrapKey {
  int unroll_m = 1;
  int n_lwe = 0;
  int n_ring = 0;
  GadgetParams gadget;
  std::vector<std::vector<TGswSpectral<Engine>>> groups;

  /// Group-major streaming arena (SimdFftEngine only; empty otherwise): the
  /// same key material as `groups`, repacked so each group member's 2l TGSW
  /// rows form ONE contiguous block of row-stride 4m, each row laid out as
  /// the four m-double planes [col0.re | col0.im | col1.re | col1.im]. The
  /// fused bundle path's sample-blocked MAC (SpectralKernels::bundle_mac)
  /// walks a whole subset from one base pointer with constant strides, and a
  /// group's flush-resident working set is exactly its members' blocks back
  /// to back.
  AlignedVector<double> soa;
  size_t soa_block_doubles = 0;       ///< 2l * 4 * m per member block
  std::vector<size_t> soa_group_base; ///< member-count prefix sums per group
  int soa_m = 0;                      ///< plane slots m (0 = arena absent)

  const double* soa_block(int g, size_t idx) const {
    return soa.data() +
           (soa_group_base[static_cast<size_t>(g)] + idx) * soa_block_doubles;
  }

  int num_groups() const { return static_cast<int>(groups.size()); }
  int members(int g) const {
    const int start = g * unroll_m;
    const int end = start + unroll_m;
    return (end <= n_lwe ? unroll_m : n_lwe - start);
  }
};

class SimdFftEngine;

/// Fill the DeviceBootstrapKey SoA arena from its `groups` spectra. The
/// generic overload is a no-op (interleaved-spectrum engines keep the arena
/// empty and materialize bundles from `groups`); the SimdFftEngine overload
/// (bku/bundle.cpp) packs the planar spectra, which its fused group step
/// requires. load_bootstrap_key calls this automatically -- hand-built keys
/// (tests, micro benches) call it directly after filling `groups`.
template <class Engine>
void pack_bootstrap_key_soa(const Engine&, DeviceBootstrapKey<Engine>&) {}
void pack_bootstrap_key_soa(const SimdFftEngine& eng,
                            DeviceBootstrapKey<SimdFftEngine>& dev);

template <class Engine>
DeviceBootstrapKey<Engine> load_bootstrap_key(const Engine& eng,
                                              const UnrolledBootstrapKey& key) {
  DeviceBootstrapKey<Engine> dev;
  dev.unroll_m = key.unroll_m;
  dev.n_lwe = key.n_lwe;
  dev.n_ring = key.ring.n_ring;
  dev.gadget = key.gadget;
  dev.groups.resize(key.groups.size());
  for (size_t g = 0; g < key.groups.size(); ++g) {
    dev.groups[g].reserve(key.groups[g].size());
    for (const auto& tgsw : key.groups[g]) {
      dev.groups[g].push_back(tgsw_to_spectral(eng, tgsw));
    }
  }
  pack_bootstrap_key_soa(eng, dev);
  return dev;
}

} // namespace matcha
