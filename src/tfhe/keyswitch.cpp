#include "tfhe/keyswitch.h"

#include <cassert>

#include "fft/spectral_kernels.h"

namespace matcha {

namespace {

/// Round-to-nearest offset for digit extraction: half the last digit's ulp,
/// 2^(31 - prec_bits), computed from the *configured* precision t * basebit
/// (not t_used) so truncating the dead digits never changes the rounding
/// point. At full 32-bit precision that is half an indivisible torus unit,
/// which rounds to zero -- shifting by a negative amount instead is UB.
Torus32 round_offset(const KeySwitchParams& p) {
  const int prec_bits = p.t * p.basebit;
  return prec_bits >= 32 ? 0 : 1u << (32 - prec_bits - 1);
}

} // namespace

LweSample KeySwitchKey::row_sample(int i, int j, uint32_t v) const {
  const size_t r = row(i, j, v);
  LweSample s(n_out);
  const Torus32* a = row_a(r);
  for (int k = 0; k < n_out; ++k) s.a[static_cast<size_t>(k)] = a[k];
  s.b = b_plane[r];
  return s;
}

KeySwitchKey make_keyswitch_key(const LweKey& in, const LweKey& out,
                                const KeySwitchParams& p, Rng& rng) {
  KeySwitchKey ks;
  ks.params = p;
  ks.n_in = in.params.n;
  ks.n_out = out.params.n;
  // Digit j scales by base^{-(j+1)} = 2^shift with shift = 32 - (j+1)*basebit;
  // once the window slides past the torus LSB there is nothing left to
  // encode, so those digits get no rows at all.
  ks.t_used = p.t * p.basebit <= 32 ? p.t : 32 / p.basebit;
  const uint32_t base = p.base();
  const size_t rows =
      static_cast<size_t>(ks.n_in) * ks.t_used * (base - 1);
  ks.a_plane.assign(rows * ks.n_out, 0);
  ks.b_plane.assign(rows, 0);
  // Encryption order (i, then j, then v) matches the historical AoS
  // generator, so a fixed RNG seed yields the same key material; only the
  // storage layout changed.
  for (int i = 0; i < ks.n_in; ++i) {
    for (int j = 0; j < ks.t_used; ++j) {
      const int shift = 32 - (j + 1) * p.basebit;
      for (uint32_t v = 1; v < base; ++v) {
        // message: v * s_in[i] / base^{j+1}
        const Torus32 mu = static_cast<Torus32>(v) * in.s[i] * (1u << shift);
        const LweSample enc = lwe_encrypt(out, mu, p.sigma, rng);
        const size_t r = ks.row(i, j, v);
        Torus32* dst = ks.a_plane.data() + r * ks.n_out;
        for (int k = 0; k < ks.n_out; ++k) dst[k] = enc.a[static_cast<size_t>(k)];
        ks.b_plane[r] = enc.b;
      }
    }
  }
  return ks;
}

LweSample key_switch(const KeySwitchKey& ks, const LweSample& c) {
  KeySwitchWorkspace ws;
  LweSample out(ks.n_out);
  const LweSample* in = &c;
  LweSample* outp = &out;
  key_switch_batch(ks, &in, &outp, 1, ws);
  return out;
}

void key_switch_batch(const KeySwitchKey& ks, const LweSample* const* in,
                      LweSample* const* out, int batch, KeySwitchWorkspace& ws,
                      SimdLevel level) {
  const SpectralKernels& kr = spectral_kernels(level);
  const Torus32 off = round_offset(ks.params);
  const uint32_t vstride = ks.params.base() - 1;
  const size_t digit_rows = static_cast<size_t>(ks.t_used) * ks.n_in;
  if (ws.digits.size() < digit_rows * batch) {
    ws.digits.resize(digit_rows * batch);
  }
  // Pass 1: every sample's digit indices, j-major to mirror the key arena.
  // The b plane (rows words vs the a planes' rows*n_out) is folded in here
  // via a gathered sum -- it is too sparse a touch to matter for bandwidth.
  for (int k = 0; k < batch; ++k) {
    assert(in[k]->n() == ks.n_in);
    assert(in[k] != out[k]);
    uint32_t* d = ws.digits.data() + digit_rows * k;
    kr.ks_digits(in[k]->a.data(), ks.n_in, ks.t_used, ks.params.basebit, off,
                 d);
    out[k]->a.assign(static_cast<size_t>(ks.n_out), 0);
    out[k]->b = in[k]->b - kr.ks_gather_b(d, ks.b_plane.data(),
                                          static_cast<int>(digit_rows),
                                          ks.params.base());
  }
  // Pass 2: one sweep over the key arena. Each (j, i) group's rows are
  // visited once; every sample whose digit selects a row in the group
  // accumulates it while the group is hot in cache, so the key streams from
  // memory once per batch instead of once per sample.
  for (size_t r = 0; r < digit_rows; ++r) {
    const Torus32* block = ks.a_plane.data() +
                           r * vstride * static_cast<size_t>(ks.n_out);
    for (int k = 0; k < batch; ++k) {
      const uint32_t v = ws.digits[digit_rows * k + r];
      if (v == 0) continue;
      kr.u32_sub(out[k]->a.data(),
                 block + static_cast<size_t>(v - 1) * ks.n_out, ks.n_out);
    }
  }
}

} // namespace matcha
