// Micro-kernel latencies of the spectral bottom layer, scalar vs SIMD:
// forward/inverse negacyclic FFT, pointwise MAC, bundle rotation, external
// product, the batched bundle-mode blind rotation per sample, and a whole
// software gate bootstrap, with the double-precision reference engine
// alongside. Emits BENCH_micro_kernels.json (JsonWriter)
// so scripts/bench_trend.py can gate software-bootstrap-latency regressions
// commit over commit. Every figure comes from a warm-up plus kRounds rounds
// interleaved across a section's probes: the gated fields (ns_op,
// ns_per_sample) hold the min, and the *_median fields sit beside them.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/fig_common.h"
#include "fft/double_fft.h"
#include "fft/simd_fft.h"
#include "tfhe/keyset.h"

namespace {

using namespace matcha;
using bench::JsonWriter;

constexpr int kRingN = 1024; // the paper's N for kernel-level numbers

/// Per-op latency of one probe over kRounds rounds.
struct Timing {
  double min_ns = 0;    ///< quietest round: the gated figure
  double median_ns = 0; ///< typical round: min vs median shows the spread
};

/// One timed operation; a round is `reps` back-to-back calls of `fn`.
struct Probe {
  std::function<void()> fn;
  int reps;
};

constexpr int kRounds = 7;

/// Warm every probe once (caches, page-ins, workspaces), then run kRounds
/// rounds round-robin across all probes: a transient load burst on a shared
/// host then taxes one round of every probe instead of one probe's whole
/// measurement window. Returns per-call ns, in probe order.
std::vector<Timing> time_interleaved(const std::vector<Probe>& probes) {
  for (const Probe& p : probes) p.fn();
  std::vector<std::vector<double>> rounds(probes.size());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < probes.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < probes[i].reps; ++r) probes[i].fn();
      const auto dt = std::chrono::steady_clock::now() - t0;
      rounds[i].push_back(std::chrono::duration<double, std::nano>(dt).count() /
                          probes[i].reps);
    }
  }
  std::vector<Timing> out;
  for (auto& r : rounds) {
    std::sort(r.begin(), r.end());
    out.push_back({r.front(), r[r.size() / 2]});
  }
  return out;
}

struct Row {
  std::string kernel, path;
  Timing t;
};

/// Time `probes` interleaved and append one row per probe.
void push_rows(const char* path, const std::vector<std::string>& kernels,
               const std::vector<Probe>& probes, std::vector<Row>& out) {
  const std::vector<Timing> t = time_interleaved(probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    out.push_back({kernels[i], path, t[i]});
  }
}

TorusPolynomial random_torus_poly(Rng& rng, int n) {
  TorusPolynomial p(n);
  for (auto& c : p.coeffs) c = rng.uniform_torus();
  return p;
}

IntPolynomial random_digit_poly(Rng& rng, int n) {
  IntPolynomial p(n);
  for (auto& c : p.coeffs) c = static_cast<int>(rng.uniform_below(1024)) - 512;
  return p;
}

/// FFT/MAC/rot/EP rows for one engine. `Engine` only needs the common engine
/// concept; `path` labels the row ("scalar", "avx2", "reference_double", ...).
template <class Engine>
void kernel_rows(Engine& eng, const char* path, std::vector<Row>& out) {
  Rng rng(17);
  const TfheParams params = TfheParams::security110();
  const TorusPolynomial tp = random_torus_poly(rng, kRingN);
  const IntPolynomial ip = random_digit_poly(rng, kRingN);

  // fft_inv reads `acc` (one product); the mac probe grows its own `macc`,
  // so the interleaved rounds never feed fft_inv an ever-growing input.
  typename Engine::Spectral sa, sb;
  typename Engine::SpectralAcc acc, macc;
  eng.to_spectral_int(ip, sa);
  eng.to_spectral_torus(tp, sb);
  eng.acc_init(acc);
  eng.acc_init(macc);
  eng.mac(acc, sa, sb);
  TorusPolynomial back(kRingN);
  typename Engine::Spectral dst(eng.spectral_size());

  // External product at the paper parameters (Bg=1024, l=3).
  SecretKeyset sk = [&] {
    Rng krng(23);
    return SecretKeyset::generate(params, krng);
  }();
  DoubleFftEngine enc_eng(kRingN);
  SpectralD key_spec;
  enc_eng.to_spectral_int(sk.tlwe.s, key_spec);
  Rng erng(29);
  const TGswSample raw = tgsw_encrypt(enc_eng, sk.tlwe, key_spec,
                                      params.gadget, 1, params.ring.sigma,
                                      erng);
  auto tgsw = tgsw_to_spectral(eng, raw);
  ExternalProductWorkspace<Engine> ws(eng, params.gadget);
  TLweSample ep_acc(kRingN);
  for (auto& c : ep_acc.a.coeffs) c = erng.uniform_torus();
  for (auto& c : ep_acc.b.coeffs) c = erng.uniform_torus();
  push_rows(path, {"fft_fwd", "fft_inv", "mac", "rot_scale_add",
                   "external_product"},
            {{[&] { eng.to_spectral_torus(tp, sb); }, 400},
             {[&] { eng.from_spectral_acc(acc, back); }, 400},
             {[&] { eng.mac(macc, sa, sb); }, 2000},
             {[&] { eng.rot_scale_add(dst, sb, 1234); }, 2000},
             {[&] { external_product(eng, params.gadget, tgsw, ep_acc, ws); },
              200}},
            out);
}

/// Per-sample blind rotation of a flush of B samples (bundle_step section).
struct BundleStepRow {
  std::string path;
  int batch;
  Timing t; ///< per sample
};

/// Bundle-mode rows at the paper parameters (N=1024, Bg=1024, l=3) on a
/// hand-built m=2 key: two groups, both holding the same three subset
/// members (the group's 2^m - 1 subset indicators).
///   bundle_ep_*: one group step of one sample, every subset active
///     (exponents 37, 911, 948), fused rotate-MAC vs the materialized bundle
///     it replaced. Steady state (st.pristine = false) so neither row gets
///     the first-group skips; the delta is purely eliding the 2l x 2 bundle
///     materialization.
///   bundle_step: blind_rotate_batch of B samples through both groups (a
///     pristine first step, then a steady-state one), per sample -- B = 4
///     shares each key row load across the flush's sample block.
void bundle_rows(SimdFftEngine& eng, const char* path, std::vector<Row>& out,
                 std::vector<BundleStepRow>& steps) {
  const TfheParams params = TfheParams::security110();
  SecretKeyset sk = [&] {
    Rng krng(23);
    return SecretKeyset::generate(params, krng);
  }();
  DoubleFftEngine enc_eng(kRingN);
  SpectralD key_spec;
  enc_eng.to_spectral_int(sk.tlwe.s, key_spec);
  Rng erng(37);

  DeviceBootstrapKey<SimdFftEngine> bk;
  bk.unroll_m = 2;
  bk.n_lwe = 4;
  bk.n_ring = kRingN;
  bk.gadget = params.gadget;
  bk.groups.resize(1);
  for (int i = 0; i < 3; ++i) { // the group's 2^m - 1 subset indicators
    const TGswSample raw =
        tgsw_encrypt(enc_eng, sk.tlwe, key_spec, params.gadget, i == 0 ? 1 : 0,
                     params.ring.sigma, erng);
    bk.groups[0].push_back(tgsw_to_spectral(eng, raw));
  }
  bk.groups.push_back(bk.groups[0]);
  pack_bootstrap_key_soa(eng, bk); // hand-built key: fill the SoA arena

  BootstrapWorkspace<SimdFftEngine> ws(eng, params.gadget);
  const std::vector<int32_t> exponents{37, 911, 948}; // every subset active
  LweSample x(bk.n_lwe); // group 0's mask values, mod-switched: 37, 911
  x.a[0] = 37u << 21;
  x.a[1] = 911u << 21;
  const LweSample* xp = &x;
  TLweSample acc(kRingN);
  for (auto& c : acc.a.coeffs) c = erng.uniform_torus();
  for (auto& c : acc.b.coeffs) c = erng.uniform_torus();

  BlindRotateState st;
  push_rows(path, {"bundle_ep_materialized", "bundle_ep_fused"},
            {{[&] {
                (void)build_bundle(eng, bk, 0, exponents, ws.bundle);
                external_product(eng, bk.gadget, ws.bundle, acc, ws.ep);
              },
              200},
             {[&] {
                st.pristine = false;
                bundle_group_step(eng, bk, 0, &xp, 1, &acc, &st, ws.exponents,
                                  ws.bundle, ws.ep, ws.batch_flush, nullptr);
              },
              200}},
            out);

  // One workspace and input set per batch size, gate test vector as in a
  // gate bootstrap.
  constexpr int kBatches[] = {1, 4};
  std::deque<BootstrapWorkspace<SimdFftEngine>> wss;
  std::deque<std::vector<LweSample>> inputs; // deques: probes hold references
  std::deque<std::vector<const LweSample*>> ptrs;
  std::vector<Probe> probes;
  for (const int batch : kBatches) {
    BootstrapWorkspace<SimdFftEngine>& w = wss.emplace_back(eng, params.gadget);
    set_gate_testv(w, params.mu(), params.gadget);
    auto& in = inputs.emplace_back(static_cast<size_t>(batch),
                                   LweSample(bk.n_lwe));
    for (LweSample& s : in) {
      for (auto& a : s.a) a = erng.uniform_torus();
      s.b = erng.uniform_torus();
    }
    auto& p = ptrs.emplace_back();
    for (const LweSample& s : in) p.push_back(&s);
    probes.push_back({[&eng, &bk, &w, &p, batch] {
                        blind_rotate_batch(eng, bk, p.data(), batch,
                                           gate_testvs(w, batch), w);
                      },
                      100 / batch});
  }
  const std::vector<Timing> t = time_interleaved(probes);
  for (size_t i = 0; i < t.size(); ++i) {
    const double b = kBatches[i];
    steps.push_back({path, kBatches[i], {t[i].min_ns / b, t[i].median_ns / b}});
  }
}

// ---- keyswitch rows --------------------------------------------------------

/// The pre-SoA keyswitch, reconstructed as the bandwidth baseline: an
/// LweSample table with v == 0 placeholder rows, pointer-chased per-row heap
/// blocks, a fresh output allocation per call, and a scalar accumulate.
struct SeedAosKeySwitch {
  int n_in, n_out, t_used;
  KeySwitchParams params;
  std::vector<LweSample> table; ///< [i][j][v] incl. placeholders, like the seed

  explicit SeedAosKeySwitch(const KeySwitchKey& ks)
      : n_in(ks.n_in), n_out(ks.n_out), t_used(ks.t_used), params(ks.params) {
    const int base = params.base();
    table.assign(static_cast<size_t>(n_in) * t_used * base, LweSample(n_out));
    for (int i = 0; i < n_in; ++i) {
      for (int j = 0; j < t_used; ++j) {
        for (int v = 1; v < base; ++v) {
          table[(static_cast<size_t>(i) * t_used + j) * base + v] =
              ks.row_sample(i, j, static_cast<uint32_t>(v));
        }
      }
    }
  }

  LweSample eval(const LweSample& c) const {
    LweSample out(n_out); // per-call allocation, as the seed did
    out.b = c.b;
    const int prec_bits = params.t * params.basebit;
    const Torus32 off = prec_bits >= 32 ? 0 : 1u << (32 - prec_bits - 1);
    const uint32_t mask = static_cast<uint32_t>(params.base()) - 1;
    for (int i = 0; i < n_in; ++i) {
      for (int j = 0; j < t_used; ++j) {
        const int shift = 32 - (j + 1) * params.basebit;
        const uint32_t v = ((c.a[static_cast<size_t>(i)] + off) >> shift) & mask;
        if (v == 0) continue;
        const LweSample& row =
            table[(static_cast<size_t>(i) * t_used + j) * params.base() + v];
        for (int k = 0; k < n_out; ++k) {
          out.a[static_cast<size_t>(k)] -= row.a[static_cast<size_t>(k)];
        }
        out.b -= row.b;
      }
    }
    return out;
  }
};

struct KsRow {
  std::string path, mode;
  int batch;
  double ns_per_sample = 0;
  double ns_per_sample_median = 0;
  double eff_gb_s = 0; ///< key_bytes / min time-per-sample: accumulate BW
};

/// Keyswitch latency rows at test_small: the seed AoS baseline, the SoA
/// per-sample path (key_switch_batch at B = 1; scalar + active SIMD), and
/// the batch-amortized path that streams the key once per batch.
void keyswitch_rows(const CloudKeyset& ck, const char* active_name,
                    std::vector<KsRow>& out) {
  const KeySwitchKey& ks = ck.ks;
  Rng srng(0x4B53);
  constexpr int kPool = 32;
  std::vector<LweSample> in(kPool, LweSample(ks.n_in));
  for (auto& c : in) {
    for (auto& a : c.a) a = srng.uniform_torus();
    c.b = srng.uniform_torus();
  }

  std::vector<KsRow> rows;
  std::vector<Probe> probes;
  const SeedAosKeySwitch seed(ks);
  int seed_idx = 0;
  rows.push_back({"seed_aos", "per_sample", 1});
  probes.push_back(
      {[&] { (void)seed.eval(in[static_cast<size_t>(seed_idx++ % kPool)]); },
       400});

  // One lane per (level, batch) probe: its output slots, pointer tables and
  // digit workspace. A deque keeps the lanes the probes capture in place.
  struct Lane {
    std::vector<LweSample> o;
    std::vector<const LweSample*> inp;
    std::vector<LweSample*> outp;
    KeySwitchWorkspace ws;
    int next = 0; ///< B = 1 cycles through the input pool
  };
  std::deque<Lane> lanes;
  const auto add = [&](SimdLevel level, const char* path, int batch) {
    Lane& l = lanes.emplace_back();
    l.o.assign(static_cast<size_t>(batch), LweSample(ks.n_out));
    for (int k = 0; k < batch; ++k) {
      l.inp.push_back(&in[static_cast<size_t>(k % kPool)]);
      l.outp.push_back(&l.o[static_cast<size_t>(k)]);
    }
    rows.push_back({path,
                    batch == 1 ? "per_sample" : "batch" + std::to_string(batch),
                    batch});
    probes.push_back({[&ks, &in, &l, level, batch] {
                        if (batch == 1) {
                          const size_t k = static_cast<size_t>(l.next++);
                          l.inp[0] = &in[k % in.size()];
                        }
                        key_switch_batch(ks, l.inp.data(), l.outp.data(), batch,
                                         l.ws, level);
                      },
                      batch == 1 ? 400 : 200});
  };
  std::vector<std::pair<SimdLevel, const char*>> levels{
      {SimdLevel::kScalar, "scalar"}};
  if (std::string(active_name) != "scalar") {
    levels.emplace_back(active_simd_level(), active_name);
  }
  for (const auto& [level, path] : levels) {
    for (const int batch : {1, 8, 32}) add(level, path, batch);
  }

  const std::vector<Timing> t = time_interleaved(probes);
  const double key_bytes = static_cast<double>(ks.key_bytes());
  for (size_t i = 0; i < rows.size(); ++i) {
    KsRow& r = rows[i];
    r.ns_per_sample = t[i].min_ns / r.batch;
    r.ns_per_sample_median = t[i].median_ns / r.batch;
    r.eff_gb_s = key_bytes / r.ns_per_sample; // bytes/ns = GB/s
    out.push_back(r);
  }
}

/// One engine's whole software gate bootstrap (test_small, m=2 bundle mode)
/// through the by-value B = 1 wrapper.
template <class Engine>
struct BootstrapCase {
  const Engine& eng;
  DeviceKeyset<Engine> dk;
  BootstrapWorkspace<Engine> ws;
  Torus32 mu;
  LweSample x;

  BootstrapCase(const Engine& e, const SecretKeyset& sk, const CloudKeyset& ck)
      : eng(e), dk(load_device_keyset(e, ck)), ws(e, dk.bk.gadget),
        mu(sk.params.mu()) {
    Rng rng(31);
    x = sk.encrypt_bit(1, rng);
  }
  Probe probe() {
    return {[this] { (void)bootstrap(eng, dk.bk, *dk.ks, mu, x, ws); }, 20};
  }
};

} // namespace

int main() {
  const SimdLevel hw = detect_simd_level();
  const SimdLevel active = active_simd_level();
  // Label rows by the kernel set the dispatcher actually returned, not the
  // requested level: a binary whose vector backend wasn't compiled in falls
  // back to scalar, and mislabeled rows would trip the trend gate.
  const char* active_name = spectral_kernels(active).name;
  std::printf("micro kernels: N=%d, hw=%s, active=%s\n", kRingN,
              simd_level_name(hw), active_name);

  std::vector<Row> rows;
  std::vector<BundleStepRow> steps;
  {
    SimdFftEngine scalar_eng(kRingN, SimdLevel::kScalar);
    kernel_rows(scalar_eng, "scalar", rows);
    bundle_rows(scalar_eng, "scalar", rows, steps);
  }
  if (std::string(active_name) != "scalar") {
    SimdFftEngine simd_eng(kRingN, active);
    kernel_rows(simd_eng, simd_eng.level_name(), rows);
    bundle_rows(simd_eng, simd_eng.level_name(), rows, steps);
  }
  {
    DoubleFftEngine ref_eng(kRingN);
    kernel_rows(ref_eng, "reference_double", rows);
  }

  std::printf("min and median of %d interleaved rounds\n", kRounds);
  std::printf("%-24s%-18s%14s%14s\n", "kernel", "path", "ns/op", "median");
  for (const Row& r : rows) {
    std::printf("%-24s%-18s%14.0f%14.0f\n", r.kernel.c_str(), r.path.c_str(),
                r.t.min_ns, r.t.median_ns);
  }

  std::printf("\nbundle_step (blind_rotate_batch, m=2 hand-built key, "
              "2 groups):\n");
  std::printf("%-18s%8s%16s%14s\n", "path", "batch", "ns/sample", "median");
  for (const BundleStepRow& r : steps) {
    std::printf("%-18s%8d%16.0f%14.0f\n", r.path.c_str(), r.batch,
                r.t.min_ns, r.t.median_ns);
  }

  Rng krng(20240601);
  const TfheParams small = TfheParams::test_small();
  const SecretKeyset sk = SecretKeyset::generate(small, krng);
  const CloudKeyset ck = make_cloud_keyset(sk, /*unroll_m=*/2, krng);

  // Keyswitch: seed AoS baseline vs SoA per-sample vs batch-amortized key
  // streaming, at the same test_small key the bootstrap rows use.
  std::vector<KsRow> ks_rows;
  keyswitch_rows(ck, active_name, ks_rows);
  std::printf("\nkeyswitch (test_small, key %.1f MB):\n",
              static_cast<double>(ck.ks.key_bytes()) / (1024.0 * 1024.0));
  std::printf("%-18s%-14s%16s%14s%12s\n", "path", "mode", "ns/sample",
              "median", "GB/s");
  for (const KsRow& r : ks_rows) {
    std::printf("%-18s%-14s%16.0f%14.0f%12.2f\n", r.path.c_str(),
                r.mode.c_str(), r.ns_per_sample, r.ns_per_sample_median,
                r.eff_gb_s);
  }

  // Whole-gate bootstraps at the unit-test parameters (m = 2 bundle mode),
  // the latency the batch executor pays per gate.
  std::printf("\nbootstrap (test_small, m=2):\n");
  struct BootRow {
    std::string path;
    Timing t;
  };
  std::vector<BootRow> boots;
  {
    const SimdFftEngine scalar_eng(small.ring.n_ring, SimdLevel::kScalar);
    const SimdFftEngine simd_eng(small.ring.n_ring, active);
    const DoubleFftEngine ref_eng(small.ring.n_ring);
    BootstrapCase<SimdFftEngine> scalar_case(scalar_eng, sk, ck);
    std::optional<BootstrapCase<SimdFftEngine>> simd_case;
    BootstrapCase<DoubleFftEngine> ref_case(ref_eng, sk, ck);
    std::vector<std::string> paths{"scalar"};
    std::vector<Probe> probes{scalar_case.probe()};
    if (std::string(active_name) != "scalar") {
      simd_case.emplace(simd_eng, sk, ck);
      paths.push_back(simd_eng.level_name());
      probes.push_back(simd_case->probe());
    }
    paths.push_back("reference_double");
    probes.push_back(ref_case.probe());
    const std::vector<Timing> t = time_interleaved(probes);
    for (size_t i = 0; i < t.size(); ++i) boots.push_back({paths[i], t[i]});
  }
  for (const BootRow& b : boots) {
    std::printf("%-18s%14.0f ns/op  (%.2f ms, median %.2f ms)\n",
                b.path.c_str(), b.t.min_ns, b.t.min_ns * 1e-6,
                b.t.median_ns * 1e-6);
  }

  std::FILE* jf = std::fopen("BENCH_micro_kernels.json", "w");
  if (jf == nullptr) {
    std::fprintf(stderr, "warning: cannot write BENCH_micro_kernels.json\n");
    return 0;
  }
  JsonWriter j(jf);
  j.begin_object();
  j.field("ring_n", kRingN);
  j.field("simd_hw", simd_level_name(hw));
  j.field("simd_active", active_name);
  bench::write_host_header(j);
  j.name("kernels");
  j.begin_array();
  for (const Row& r : rows) {
    j.begin_object();
    j.field("kernel", r.kernel.c_str());
    j.field("path", r.path.c_str());
    j.field("ns_op", r.t.min_ns);
    j.field("ns_op_median", r.t.median_ns);
    j.end_object();
  }
  j.end_array();
  j.name("bundle_step");
  j.begin_array();
  for (const BundleStepRow& r : steps) {
    j.begin_object();
    j.field("path", r.path.c_str());
    j.field("batch", r.batch);
    j.field("params", "security110");
    j.field("unroll_m", 2);
    j.field("ns_per_sample", r.t.min_ns);
    j.field("ns_per_sample_median", r.t.median_ns);
    j.end_object();
  }
  j.end_array();
  j.name("keyswitch");
  j.begin_array();
  for (const KsRow& r : ks_rows) {
    j.begin_object();
    j.field("path", r.path.c_str());
    j.field("mode", r.mode.c_str());
    j.field("params", "test_small");
    j.field("ns_per_sample", r.ns_per_sample);
    j.field("ns_per_sample_median", r.ns_per_sample_median);
    j.field("eff_gb_s", r.eff_gb_s);
    j.end_object();
  }
  j.end_array();
  j.name("bootstrap");
  j.begin_array();
  for (const BootRow& b : boots) {
    j.begin_object();
    j.field("path", b.path.c_str());
    j.field("params", "test_small");
    j.field("unroll_m", 2);
    j.field("ns_op", b.t.min_ns);
    j.field("ns_op_median", b.t.median_ns);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::fclose(jf);
  std::printf("\nwrote BENCH_micro_kernels.json\n");
  return 0;
}
