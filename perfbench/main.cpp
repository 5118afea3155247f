// End-to-end benchmark at the paper's security110 parameters.
//
// One process runs one workload: it derives keys and inputs from --seed,
// sets the server up several times (keygen, cloud keyset, an io round trip
// of the cloud keyset, device key load, circuit recording and compile,
// executor), runs one warm-up request, then a closed loop of
// BatchExecutor::run_batch requests for --seconds (one client: the next
// request is sent only when the previous one returned). Every output of every request is decrypted and
// checked against its plaintext result. With --trace 1 it then calls each
// layer's public functions directly (blind rotation and keyswitch at batch 1
// and at the per-worker batch, with their engine counters) to split the
// time by layer, and times two references the split is checked against:
// the full bootstrap over the same samples, and standalone transforms.
//
// It prints raw samples (nanoseconds, per-request scheduler stats, margins)
// on stdout, one "key value..." line each; perfbench/run.py turns them into
// metrics. Progress goes to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "circuits/word.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "exec/batch_executor.h"
#include "exec/circuit_builder.h"
#include "exec/sim_bridge.h"
#include "fft/simd_fft.h"
#include "io/serialize.h"
#include "sim/chip_sim.h"
#include "sim/gate_dag.h"
#include "sim/matcha_sim.h"
#include "tfhe/bootstrap.h"
#include "tfhe/keyset.h"
#include "tfhe/keyswitch.h"

namespace {

using namespace matcha;
using exec::BatchExecutor;
using exec::CircuitBuilder;
using exec::CompiledGraph;
using exec::SymWord;
using exec::Wire;
using Clock = std::chrono::steady_clock;

int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

/// Independent RNG stream per purpose, all derived from the workload seed.
uint64_t stream_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
enum Stream : uint64_t { kKeys = 1, kData = 2, kEncrypt = 3, kLayers = 4 };

/// A recorded circuit, its checked outputs in recording order, and a
/// generator of one item's plaintext input bits with the expected outputs.
struct Circuit {
  CircuitBuilder builder;
  std::vector<Wire> outputs;
  std::function<void(Rng&, std::vector<int>&, std::vector<int>&)> sample;
};

void push_bits(std::vector<int>& bits, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) bits.push_back(static_cast<int>((v >> i) & 1));
}

/// max(x, y) of two unsigned 16-bit words, and [x > y]. The comparison is
/// the carry chain of x + ~y, LSB first:
///   c <- (x_i AND NOT y_i) OR (c AND (x_i OR NOT y_i)),
/// so every bootstrapped gate is an AND, OR or MUX and every compiled LUT
/// decodes on the 16-cell grid (perfbench/README.md, "Known defect").
/// 51 bootstraps and 20 wavefronts after compile.
std::unique_ptr<Circuit> make_max16() {
  constexpr int kW = 16;
  auto c = std::make_unique<Circuit>();
  CircuitBuilder& b = c->builder;
  exec::SymWordCircuits wc(b);
  const SymWord x = b.input_word(kW);
  const SymWord y = b.input_word(kW);
  Wire gt;
  for (int i = 0; i < kW; ++i) {
    const Wire xi = x.bits[static_cast<size_t>(i)];
    const Wire ny = b.gate_not(y.bits[static_cast<size_t>(i)]);
    const Wire greater = b.gate_and(xi, ny);
    gt = i == 0 ? greater
                : b.gate_or(greater, b.gate_and(gt, b.gate_or(xi, ny)));
  }
  const SymWord max = wc.mux(gt, x, y);
  b.mark_output(max);
  b.mark_output(gt);
  c->outputs = max.bits;
  c->outputs.push_back(gt);
  c->sample = [](Rng& rng, std::vector<int>& in, std::vector<int>& out) {
    const uint64_t x = rng.uniform_below(1u << kW);
    // One item in eight compares equal operands.
    const uint64_t y = rng.uniform_below(8) == 0 ? x : rng.uniform_below(1u << kW);
    push_bits(in, x, kW);
    push_bits(in, y, kW);
    push_bits(out, std::max(x, y), kW);
    out.push_back(x > y);
  };
  return c;
}

/// 16-to-1 multiplexer over 4-bit leaves: select bit l picks the odd half at
/// tree level l, so the output is leaf[sum sel_l 2^l]. 86 bootstraps after
/// MUX-tree flattening.
std::unique_ptr<Circuit> make_muxtree() {
  constexpr int kDataW = 4;
  auto c = std::make_unique<Circuit>();
  CircuitBuilder& b = c->builder;
  std::vector<Wire> sel;
  for (int i = 0; i < 4; ++i) sel.push_back(b.input());
  std::vector<std::vector<Wire>> leaves(16);
  for (auto& leaf : leaves) {
    for (int i = 0; i < kDataW; ++i) leaf.push_back(b.input());
  }
  for (int bit = 0; bit < kDataW; ++bit) {
    std::vector<Wire> layer;
    for (const auto& leaf : leaves) layer.push_back(leaf[static_cast<size_t>(bit)]);
    for (int level = 0; level < 4; ++level) {
      std::vector<Wire> next;
      for (size_t i = 0; i < layer.size(); i += 2) {
        next.push_back(b.gate_mux(sel[static_cast<size_t>(level)], layer[i + 1],
                                  layer[i]));
      }
      layer = std::move(next);
    }
    b.mark_output(layer.front());
    c->outputs.push_back(layer.front());
  }
  c->sample = [](Rng& rng, std::vector<int>& in, std::vector<int>& out) {
    const uint64_t s = rng.uniform_below(16);
    push_bits(in, s, 4);
    std::vector<uint64_t> leaf(16);
    for (auto& v : leaf) {
      v = rng.uniform_below(16);
      push_bits(in, v, kDataW);
    }
    push_bits(out, leaf[s], kDataW);
  };
  return c;
}

struct WorkloadSpec {
  const char* name;
  int batch;
  int unroll_m;
  std::unique_ptr<Circuit> (*circuit)();
};

// Why each exists is in perfbench/README.md.
const WorkloadSpec kWorkloads[] = {
    {"batch_max16_m3", 16, 3, make_max16},
    {"batch_muxtree_m1", 8, 1, make_muxtree},
};

/// Set-ups per process; setup_s is their median.
constexpr int kSetups = 5;
/// Timing rounds for each layer call in the traced run (median taken).
constexpr int kLayerRounds = 5;
/// Samples each layer round covers, whatever its batch.
constexpr int kLayerSamples = 16;
/// Standalone forward and inverse transforms timed per flush.
constexpr int kFftRefCalls = 128;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a.seconds > 0;
}

/// Everything one set-up builds. Members are destroyed in reverse order, so
/// the executor goes before the device key it reads.
struct Server {
  std::unique_ptr<Circuit> circuit;
  SecretKeyset sk;
  CloudKeyset cloud;
  std::unique_ptr<SimdFftEngine> eng;
  DeviceKeyset<SimdFftEngine> dev;
  CompiledGraph compiled;
  std::unique_ptr<BatchExecutor<SimdFftEngine>> ex;
};

struct SetupTimes {
  std::vector<int64_t> total, keygen, cloud, write, read, load, compile;
  int64_t keyset_bytes = 0;
};

std::unique_ptr<Server> set_up(const TfheParams& params, const WorkloadSpec& w,
                               uint64_t seed, int slots, SetupTimes& t) {
  const auto t0 = Clock::now();
  auto s = std::make_unique<Server>();
  Rng key_rng(stream_seed(seed, kKeys));
  auto tk = Clock::now();
  s->sk = SecretKeyset::generate(params, key_rng);
  t.keygen.push_back(ns_since(tk));
  tk = Clock::now();
  CloudKeyset cloud = make_cloud_keyset(s->sk, w.unroll_m, key_rng);
  t.cloud.push_back(ns_since(tk));
  {
    // The cloud keyset travels to the server through io, here an in-memory
    // stream.
    std::stringstream wire;
    tk = Clock::now();
    io::write_cloud_keyset(wire, cloud);
    t.write.push_back(ns_since(tk));
    t.keyset_bytes = static_cast<int64_t>(wire.tellp());
    cloud = {};
    tk = Clock::now();
    s->cloud = io::read_cloud_keyset(wire);
    t.read.push_back(ns_since(tk));
  }
  tk = Clock::now();
  s->eng = std::make_unique<SimdFftEngine>(params.ring.n_ring);
  s->dev = load_device_keyset(*s->eng, s->cloud);
  t.load.push_back(ns_since(tk));
  s->circuit = w.circuit();
  tk = Clock::now();
  s->compiled = s->circuit->builder.compile();
  t.compile.push_back(ns_since(tk));
  const int n_ring = params.ring.n_ring;
  s->ex = std::make_unique<BatchExecutor<SimdFftEngine>>(
      [n_ring] { return std::make_unique<SimdFftEngine>(n_ring); }, s->dev.bk,
      *s->dev.ks, params.mu(), slots);
  t.total.push_back(ns_since(t0));
  return s;
}

struct RequestLog {
  std::vector<int64_t> ns, items, ok_items, steals, workers, bootstraps;
  std::vector<double> sched_efficiency, min_margin;
};

/// Encrypt one batch from the data stream, run it, decrypt and check every
/// output. Appends the request's samples to `log`.
void run_request(const Server& s, int batch, Rng& data_rng, Rng& enc_rng,
                 RequestLog& log) {
  const Circuit& circuit = *s.circuit;
  std::vector<std::vector<LweSample>> inputs(static_cast<size_t>(batch));
  std::vector<std::vector<int>> expect(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    std::vector<int> bits;
    circuit.sample(data_rng, bits, expect[static_cast<size_t>(b)]);
    for (const int bit : bits) {
      inputs[static_cast<size_t>(b)].push_back(s.sk.encrypt_bit(bit, enc_rng));
    }
  }
  const auto t0 = Clock::now();
  const auto results = s.ex->run_batch(s.compiled.graph, std::move(inputs));
  log.ns.push_back(ns_since(t0));

  const auto& st = s.ex->last_stats();
  int64_t ok_items = 0;
  double min_margin = 1.0;
  for (int b = 0; b < batch; ++b) {
    const auto& r = results[static_cast<size_t>(b)];
    if (!r.status.ok()) continue;
    bool ok = true;
    for (size_t o = 0; o < circuit.outputs.size(); ++o) {
      const DecodeAudit a =
          s.sk.decrypt_bit_audited(r.at(s.compiled.remap(circuit.outputs[o])));
      min_margin = std::min(min_margin, a.margin());
      ok &= a.value == expect[static_cast<size_t>(b)][o];
    }
    ok_items += ok;
  }
  log.items.push_back(batch);
  log.ok_items.push_back(ok_items);
  log.steals.push_back(st.steals);
  log.workers.push_back(st.workers);
  log.bootstraps.push_back(st.bootstraps);
  log.sched_efficiency.push_back(st.sched_efficiency);
  log.min_margin.push_back(min_margin);
}

/// One layer measurement: blind rotation (bootstrap without keyswitch) and
/// keyswitch over kLayerSamples samples in flushes of `batch`, per round.
/// Each round also times two references for the plausibility check: the
/// full bootstrap (bootstrap_batch, one timer around blind rotation and
/// keyswitch) over the same samples and flushes, and kFftRefCalls
/// standalone forward and inverse transforms per flush.
struct LayerRounds {
  int batch = 1;
  std::vector<int64_t> blind_rotate_ns, keyswitch_ns, forward_ns, inverse_ns;
  std::vector<int64_t> full_bootstrap_ns, ref_forward_ns, ref_inverse_ns;
  EngineCounters counts; ///< counters of the last round (identical each round)
};

LayerRounds time_layers(const Server& s, const TfheParams& params, int batch,
                        uint64_t seed) {
  LayerRounds out;
  out.batch = batch;
  const SimdFftEngine& eng = *s.eng;
  BootstrapWorkspace<SimdFftEngine> ws(eng, params.gadget);
  KeySwitchWorkspace ks_ws;
  Rng rng(stream_seed(seed, kLayers));
  std::vector<LweSample> xs, extracted(kLayerSamples), outs(kLayerSamples),
      full_outs(kLayerSamples);
  for (int i = 0; i < kLayerSamples; ++i) {
    xs.push_back(s.sk.encrypt_bit(rng.uniform_bit(), rng));
  }
  std::vector<const LweSample*> x_ptr, u_ptr;
  std::vector<LweSample*> u_out, o_out, f_out;
  for (int i = 0; i < kLayerSamples; ++i) {
    x_ptr.push_back(&xs[static_cast<size_t>(i)]);
    u_ptr.push_back(&extracted[static_cast<size_t>(i)]);
    u_out.push_back(&extracted[static_cast<size_t>(i)]);
    o_out.push_back(&outs[static_cast<size_t>(i)]);
    f_out.push_back(&full_outs[static_cast<size_t>(i)]);
  }
  const int n_ring = params.ring.n_ring;
  IntPolynomial digits(n_ring);
  for (auto& c : digits.coeffs) {
    c = static_cast<int32_t>(rng.uniform_below(1024)) - 512;
  }
  SimdFftEngine::Spectral spec;
  TorusPolynomial back(n_ring);
  const Torus32 mu = params.mu();
  // Round 0 warms the workspace and test vector; it is not recorded.
  for (int round = 0; round <= kLayerRounds; ++round) {
    // Each flush is timed split, then whole, then the standalone
    // transforms, back to back, so host drift hits stage and reference
    // alike. Only the split calls go into the counters.
    EngineCounters split;
    int64_t br = 0, ks = 0, full = 0, ref_forward = 0, ref_inverse = 0;
    for (int s0 = 0; s0 < kLayerSamples; s0 += batch) {
      const int n = std::min(batch, kLayerSamples - s0);
      eng.counters().reset();
      auto t0 = Clock::now();
      bootstrap_wo_keyswitch_batch(eng, s.dev.bk, mu, x_ptr.data() + s0,
                                   u_out.data() + s0, n, ws);
      br += ns_since(t0);
      t0 = Clock::now();
      key_switch_batch(*s.dev.ks, u_ptr.data() + s0, o_out.data() + s0, n,
                       ks_ws);
      ks += ns_since(t0);
      split += eng.counters();

      t0 = Clock::now();
      bootstrap_batch(eng, s.dev.bk, *s.dev.ks, mu, x_ptr.data() + s0,
                      f_out.data() + s0, n, ws, ks_ws);
      full += ns_since(t0);
      t0 = Clock::now();
      for (int k = 0; k < kFftRefCalls; ++k) eng.to_spectral_int(digits, spec);
      ref_forward += ns_since(t0);
      t0 = Clock::now();
      for (int k = 0; k < kFftRefCalls; ++k) eng.from_spectral_torus(spec, back);
      ref_inverse += ns_since(t0);
    }

    if (round == 0) continue;
    out.blind_rotate_ns.push_back(br);
    out.keyswitch_ns.push_back(ks);
    out.forward_ns.push_back(split.to_spectral_ns);
    out.inverse_ns.push_back(split.from_spectral_ns);
    out.full_bootstrap_ns.push_back(full);
    out.ref_forward_ns.push_back(ref_forward);
    out.ref_inverse_ns.push_back(ref_inverse);
    out.counts = split;
  }
  // The timed calls must still compute the right gate: each output decrypts
  // to the sign bootstrap of its input bit.
  for (int i = 0; i < kLayerSamples; ++i) {
    const int want = s.sk.decrypt_bit(xs[static_cast<size_t>(i)]);
    if (s.sk.decrypt_bit(outs[static_cast<size_t>(i)]) != want ||
        s.sk.decrypt_bit(full_outs[static_cast<size_t>(i)]) != want) {
      throw std::runtime_error("layer timing: bootstrap output decodes wrong");
    }
  }
  return out;
}

/// One "key v1 v2 ..." line of the raw-sample report. Doubles keep every
/// digit.
template <class T>
void emit(const std::string& key, const std::vector<T>& values) {
  std::printf("%s", key.c_str());
  for (const T v : values) {
    if constexpr (std::is_floating_point_v<T>) {
      std::printf(" %.17g", v);
    } else {
      std::printf(" %lld", static_cast<long long>(v));
    }
  }
  std::printf("\n");
}
template <class T>
  requires std::is_arithmetic_v<T>
void emit(const std::string& key, T value) {
  emit(key, std::vector<T>{value});
}
void emit(const std::string& key, const char* text) {
  std::printf("%s %s\n", key.c_str(), text);
}

void emit_layers(const std::string& prefix, const LayerRounds& l) {
  emit(prefix + "batch", l.batch);
  emit(prefix + "samples", kLayerSamples);
  emit(prefix + "blind_rotate_ns", l.blind_rotate_ns);
  emit(prefix + "keyswitch_ns", l.keyswitch_ns);
  emit(prefix + "forward_ns", l.forward_ns);
  emit(prefix + "inverse_ns", l.inverse_ns);
  emit(prefix + "full_bootstrap_ns", l.full_bootstrap_ns);
  emit(prefix + "ref_calls",
       kFftRefCalls * ((kLayerSamples + l.batch - 1) / l.batch));
  emit(prefix + "ref_forward_ns", l.ref_forward_ns);
  emit(prefix + "ref_inverse_ns", l.ref_inverse_ns);
  emit(prefix + "forward_calls", l.counts.to_spectral_calls);
  emit(prefix + "inverse_calls", l.counts.from_spectral_calls);
  emit(prefix + "zero_skips", l.counts.zero_fft_skips);
  emit(prefix + "testv_reuses", l.counts.testv_fft_reuses);
}

int64_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_maxrss);
}

int run(const Args& args) {
  const WorkloadSpec* w = nullptr;
  for (const auto& spec : kWorkloads) {
    if (args.workload == spec.name) w = &spec;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (fault::Registry::instance().active()) {
    std::fprintf(stderr, "fault injection is active; refusing to measure\n");
    return 3;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int slots = static_cast<int>(std::clamp(hw, 1u, 4u));
  const TfheParams params = TfheParams::security110();

  SetupTimes setup;
  std::unique_ptr<Server> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    std::fprintf(stderr, "set-up %d/%d (%s)\n", i + 1, kSetups, w->name);
    server = set_up(params, *w, args.seed, slots, setup);
  }
  const Server& s = *server;

  Rng data_rng(stream_seed(args.seed, kData));
  Rng enc_rng(stream_seed(args.seed, kEncrypt));
  RequestLog warm;
  run_request(s, w->batch, data_rng, enc_rng, warm);

  RequestLog log;
  const auto window0 = Clock::now();
  const auto window_target = static_cast<int64_t>(args.seconds * 1e9);
  do {
    run_request(s, w->batch, data_rng, enc_rng, log);
  } while (ns_since(window0) < window_target);
  const int64_t window_ns = ns_since(window0);
  std::fprintf(stderr, "%zu requests in %.1f s\n", log.ns.size(),
               window_ns * 1e-9);
  const int64_t rss_kib = peak_rss_kib();

  // Modelled MATCHA chip for the same compiled graph, m and batch. On one
  // chip the batch policy (sim::simulate_batch_policy) schedules exactly the
  // replicated batch DAG, so that schedule is taken directly: it also
  // reports occupancy and HBM utilization.
  const sim::GateDag dag = exec::to_gate_dag(s.compiled.graph);
  const auto ts = Clock::now();
  const auto chip = sim::simulate_circuit(
      params, w->unroll_m, sim::replicate_gate_dag(dag, w->batch));
  const int64_t sim_host_ns = ns_since(ts);
  const double gate_mj = sim::simulate_gate(params, w->unroll_m).energy_mj;

  std::vector<LayerRounds> layers;
  if (args.trace) {
    std::fprintf(stderr, "timing layer calls\n");
    const int per_worker = std::max(1, w->batch / slots);
    layers.push_back(time_layers(s, params, 1, args.seed));
    if (per_worker != 1) {
      layers.push_back(time_layers(s, params, per_worker, args.seed));
    }
  }

  const char* simd_env = std::getenv("MATCHA_SIMD");
  emit("workload", w->name);
  emit("batch", w->batch);
  emit("slots", slots);
  emit("host_cores", static_cast<int>(hw));
  emit("simd_tier", s.eng->level_name());
  emit("matcha_simd_env", simd_env != nullptr ? simd_env : "");
  emit("faults_compiled_in", static_cast<int>(fault::compiled_in()));
  emit("faults_active", static_cast<int>(fault::Registry::instance().active()));
  emit("setup.total_ns", setup.total);
  emit("setup.keygen_ns", setup.keygen);
  emit("setup.cloud_keyset_ns", setup.cloud);
  emit("setup.keyset_write_ns", setup.write);
  emit("setup.keyset_read_ns", setup.read);
  emit("setup.device_load_ns", setup.load);
  emit("setup.compile_ns", setup.compile);
  emit("setup.keyset_bytes", setup.keyset_bytes);
  emit("graph.bootstraps", s.compiled.graph.bootstrap_count());
  emit("graph.extractions", s.compiled.graph.extraction_count());
  emit("graph.depth", s.compiled.graph.wavefronts().size());
  for (const auto& [prefix, l] :
       {std::pair<std::string, const RequestLog*>{"warmup.", &warm},
        {"requests.", &log}}) {
    emit(prefix + "ns", l->ns);
    emit(prefix + "items", l->items);
    emit(prefix + "ok_items", l->ok_items);
    emit(prefix + "steals", l->steals);
    emit(prefix + "workers", l->workers);
    emit(prefix + "bootstraps", l->bootstraps);
    emit(prefix + "sched_efficiency", l->sched_efficiency);
    emit(prefix + "min_margin", l->min_margin);
  }
  emit("window_ns", window_ns);
  emit("peak_rss_kib", rss_kib);
  emit("sim.makespan_ms", chip.time_ms);
  emit("sim.pipeline_occupancy", chip.pipeline_occupancy);
  emit("sim.hbm_utilization", chip.hbm_utilization);
  emit("sim.gate_energy_mj", gate_mj);
  emit("sim.host_ns", sim_host_ns);
  if (args.trace) {
    emit("bsk_bytes", s.dev.bk.soa.size() * sizeof(double));
    emit("ksk_bytes", s.dev.ks->key_bytes());
    emit_layers("b1.", layers.front());
    emit_layers("bw.", layers.back());
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
