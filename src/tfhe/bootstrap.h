// Gate bootstrapping (paper Algorithm 1): blind rotation of a test vector,
// sample extraction, and key switching. The blind rotation consumes the
// (possibly unrolled) bootstrapping key one group at a time; with
// BlindRotateMode::kBundle it builds the spectral bootstrapping-key bundle
// per group (MATCHA's datapath, any m >= 1), with kClassicCMux it runs the
// TFHE library's CMux chain (m == 1 only; the Fig. 1 CPU baseline).
//
// There is one blind rotation, blind_rotate_batch (group-major over B
// samples); a single-sample bootstrap is a B = 1 call of it, and the key
// switch is likewise always key_switch_batch.
#pragma once

#include "bku/bundle.h"
#include "bku/unrolled_key.h"
#include "tfhe/keyswitch.h"
#include "tfhe/tgsw.h"

namespace matcha {

enum class BlindRotateMode {
  kBundle,      ///< spectral BKB construction + one EP per group (MATCHA)
  kClassicCMux, ///< ACC += BK_i (x) ((X^{a_i} - 1) ACC); requires m == 1
};

template <class Engine>
struct BootstrapWorkspace {
  ExternalProductWorkspace<Engine> ep;
  TGswSpectral<Engine> bundle;
  TLweSample tmp;
  TorusPolynomial testv, testv_rot;
  std::vector<int32_t> exponents;

  // Gate test-vector caching. `testv` is workspace-owned: the gate bootstrap
  // fills it with the amplitude mu only when mu changed since the last fill
  // (testv_mu keys the fill), and testv_spec carries the matching
  // spectral-synthesis constants for the fused bundle path. Callers must not
  // scribble on ws.testv directly -- pass their own polynomial (the
  // functional-bootstrap path) instead.
  bool testv_mu_valid = false;
  Torus32 testv_mu = 0;
  GateTestvSpectra testv_spec;

  // Batched-blind-rotation arena (grow-only, so steady-state batches are
  // allocation-free): per-sample accumulators, rotation states and test
  // vectors, the per-sample spectral blocks of the SIMD engine's fused group
  // step, plus the extract staging and keyswitch pointer tables
  // bootstrap_batch flushes through.
  std::vector<TLweSample> batch_acc;
  std::vector<BlindRotateState> batch_st;
  std::vector<const TorusPolynomial*> batch_testv;
  BundleFlushArena batch_flush;
  std::vector<LweSample> batch_u;
  std::vector<const LweSample*> batch_ks_in;
  std::vector<LweSample*> batch_ks_out;

  BootstrapWorkspace(const Engine& eng, const GadgetParams& g)
      : ep(eng, g),
        bundle(make_bundle_storage(eng, g)),
        tmp(eng.ring_n()),
        testv(eng.ring_n()),
        testv_rot(eng.ring_n()) {}

  void ensure_batch(int n_ring, int batch) {
    if (static_cast<int>(batch_acc.size()) < batch) {
      batch_acc.resize(static_cast<size_t>(batch), TLweSample(n_ring));
    }
    if (static_cast<int>(batch_st.size()) < batch) {
      batch_st.resize(static_cast<size_t>(batch));
    }
  }
};

/// Refill ws.testv with the constant gate test vector only when `mu` changed
/// since the last fill, and keep the fused path's spectral constants in sync.
template <class Engine>
void set_gate_testv(BootstrapWorkspace<Engine>& ws, Torus32 mu,
                    const GadgetParams& gadget) {
  if (ws.testv_mu_valid && ws.testv_mu == mu) return;
  for (auto& c : ws.testv.coeffs) c = mu;
  ws.testv_mu = mu;
  ws.testv_mu_valid = true;
  set_gate_testv_digits(ws.testv_spec, mu, gadget);
}

/// ACC = (0, testv * X^{-barb}); resets the per-sample rotation state.
template <class Engine>
void blind_rotate_init(const Engine& eng, const LweSample& x,
                       const TorusPolynomial& testv,
                       TorusPolynomial& testv_rot, TLweSample& acc,
                       BlindRotateState& st) {
  const int n_ring = eng.ring_n();
  st.barb = mod_switch_to_2n(x.b, n_ring);
  st.pristine = true;
  multiply_by_xpower(testv_rot, testv, 2 * n_ring - st.barb);
  acc.a.clear();
  acc.b = testv_rot;
}

/// One classic-CMux step: tmp = (X^{barai} - 1) * ACC; ACC += BK_i (x) tmp.
/// The caller skips barai == 0.
template <class Engine>
void classic_rotate_step(const Engine& eng,
                         const DeviceBootstrapKey<Engine>& key, int i,
                         int barai, TLweSample& acc,
                         BootstrapWorkspace<Engine>& ws, BlindRotateState& st) {
  multiply_by_xpower_minus_one(ws.tmp.a, acc.a, barai);
  multiply_by_xpower_minus_one(ws.tmp.b, acc.b, barai);
  // On the first active step acc.a == 0, so tmp.a = (X^c - 1) * 0 == 0 and
  // the external product's a-half is skipped.
  external_product(eng, key.gadget, key.groups[i][0], ws.tmp, ws.ep,
                   /*a_is_zero=*/st.pristine);
  acc += ws.tmp;
  st.pristine = false;
}

/// The fused-path test-vector cache, iff the workspace's own constant gate
/// test vector is filled and the cached constants agree with that fill.
template <class Engine>
GateTestvSpectra* gate_testv_cache(BootstrapWorkspace<Engine>& ws) {
  const bool usable = ws.testv_mu_valid && ws.testv_spec.mu_valid &&
                      ws.testv_spec.mu == ws.testv_mu;
  return usable ? &ws.testv_spec : nullptr;
}

/// Blind rotation, ACC_b <- X^{-b + sum a_i s_i} * (0, testvs[b]) for each
/// of the B samples -- the only blind rotation; a single sample is B = 1.
/// Each sample brings its own test vector, so gate and LUT bootstraps share
/// one flush; a sample whose test vector is the workspace's constant
/// ws.testv (set_gate_testv) takes the cached-spectrum pristine step, any
/// other runs the plain one.
/// Group-major: the outer loop walks the n/m key groups, the inner loop
/// walks samples, so each group's spectral TGSW members stream from DRAM
/// once per batch and stay cache-hot for all B bundle steps -- the
/// key_switch_batch amortization applied to the bootstrapping key.
/// Per-sample accumulators land in ws.batch_acc[0..B).
/// Bit-identity contract: sample b runs exactly the same arithmetic
/// (blind_rotate_init, then per group its own spectra, subset sums and
/// rotations in a fixed order, on scratch that every step fully
/// overwrites) whatever it is batched with, so its result is bit-identical
/// to a B = 1 call with the same test vector at every batch size. The
/// fused SIMD group step shares each key row load across a block of
/// samples but never mixes their arithmetic (bku/bundle.h).
template <class Engine>
void blind_rotate_batch(const Engine& eng,
                        const DeviceBootstrapKey<Engine>& key,
                        const LweSample* const* xs, int batch,
                        const TorusPolynomial* const* testvs,
                        BootstrapWorkspace<Engine>& ws,
                        BlindRotateMode mode = BlindRotateMode::kBundle) {
  const int n_ring = eng.ring_n();
  ws.ensure_batch(n_ring, batch);
  GateTestvSpectra* tc = gate_testv_cache(ws);
  for (int b = 0; b < batch; ++b) {
    BlindRotateState& st = ws.batch_st[static_cast<size_t>(b)];
    blind_rotate_init(eng, *xs[b], *testvs[b], ws.testv_rot,
                      ws.batch_acc[static_cast<size_t>(b)], st);
    st.gate_testv = tc != nullptr && testvs[b] == &ws.testv;
  }

  if (mode == BlindRotateMode::kClassicCMux) {
    // Group-major over the n_lwe single-bit "groups" of the classic chain.
    for (int i = 0; i < key.n_lwe; ++i) {
      for (int b = 0; b < batch; ++b) {
        const int barai = mod_switch_to_2n(xs[b]->a[i], n_ring);
        if (barai == 0) continue;
        classic_rotate_step(eng, key, i, barai,
                            ws.batch_acc[static_cast<size_t>(b)], ws,
                            ws.batch_st[static_cast<size_t>(b)]);
      }
    }
    return;
  }

  for (int g = 0; g < key.num_groups(); ++g) {
    bundle_group_step(eng, key, g, xs, batch, ws.batch_acc.data(),
                      ws.batch_st.data(), ws.exponents, ws.bundle, ws.ep,
                      ws.batch_flush, tc);
  }
}

/// `batch` copies of `testv` in the workspace's test-vector table, for a
/// flush whose samples all rotate the same vector.
template <class Engine>
const TorusPolynomial* const* shared_testvs(BootstrapWorkspace<Engine>& ws,
                                            const TorusPolynomial& testv,
                                            int batch) {
  ws.batch_testv.assign(static_cast<size_t>(batch), &testv);
  return ws.batch_testv.data();
}

/// The gate flush's table: every sample rotates the constant ws.testv.
template <class Engine>
const TorusPolynomial* const* gate_testvs(BootstrapWorkspace<Engine>& ws,
                                          int batch) {
  return shared_testvs(ws, ws.testv, batch);
}

/// Batched gate bootstrap without the key switch: group-major blind rotation
/// of all B samples, then B sample extractions. outs[b] may alias xs[b]
/// (extraction happens after every rotation has consumed its input).
template <class Engine>
void bootstrap_wo_keyswitch_batch(const Engine& eng,
                                  const DeviceBootstrapKey<Engine>& key,
                                  Torus32 mu, const LweSample* const* xs,
                                  LweSample* const* outs, int batch,
                                  BootstrapWorkspace<Engine>& ws,
                                  BlindRotateMode mode = BlindRotateMode::kBundle) {
  set_gate_testv(ws, mu, key.gadget);
  blind_rotate_batch(eng, key, xs, batch, gate_testvs(ws, batch), ws, mode);
  for (int b = 0; b < batch; ++b) {
    sample_extract_into(ws.batch_acc[static_cast<size_t>(b)], *outs[b]);
  }
}

/// Batched full gate bootstrap: group-major blind rotation of all B samples,
/// B sample extractions into the workspace arena, then ONE batched key
/// switch (the keyswitch key streams once for the whole batch). outs[b] may
/// alias xs[b]. Bit-identical to B calls at batch size 1.
template <class Engine>
void bootstrap_batch(const Engine& eng, const DeviceBootstrapKey<Engine>& key,
                     const KeySwitchKey& ks, Torus32 mu,
                     const LweSample* const* xs, LweSample* const* outs,
                     int batch, BootstrapWorkspace<Engine>& ws,
                     KeySwitchWorkspace& ks_ws,
                     BlindRotateMode mode = BlindRotateMode::kBundle) {
  set_gate_testv(ws, mu, key.gadget);
  blind_rotate_batch(eng, key, xs, batch, gate_testvs(ws, batch), ws, mode);
  const size_t nb = static_cast<size_t>(batch);
  if (ws.batch_u.size() < nb) ws.batch_u.resize(nb);
  ws.batch_ks_in.resize(nb);
  ws.batch_ks_out.resize(nb);
  for (int b = 0; b < batch; ++b) {
    const size_t i = static_cast<size_t>(b);
    sample_extract_into(ws.batch_acc[i], ws.batch_u[i]);
    ws.batch_ks_in[i] = &ws.batch_u[i];
    ws.batch_ks_out[i] = outs[b];
  }
  key_switch_batch(ks, ws.batch_ks_in.data(), ws.batch_ks_out.data(), batch,
                   ks_ws);
}

/// Full gate bootstrap of one sample, by value: blind rotate, extract, key
/// switch back to n-LWE. A B = 1 call of bootstrap_batch for examples and
/// tests; hot loops call bootstrap_batch with a reused KeySwitchWorkspace.
template <class Engine>
LweSample bootstrap(const Engine& eng, const DeviceBootstrapKey<Engine>& key,
                    const KeySwitchKey& ks, Torus32 mu, const LweSample& x,
                    BootstrapWorkspace<Engine>& ws,
                    BlindRotateMode mode = BlindRotateMode::kBundle) {
  KeySwitchWorkspace ks_ws;
  LweSample out;
  const LweSample* in = &x;
  LweSample* outp = &out;
  bootstrap_batch(eng, key, ks, mu, &in, &outp, 1, ws, ks_ws, mode);
  return out;
}

} // namespace matcha
