// The batched gate-execution subsystem: a recorded circuit run by the
// parallel BatchExecutor must be bit-for-bit identical to sequential
// execution and to the eager GateEvaluator, and the per-thread engine
// counters must merge losslessly.
#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "circuits/word.h"
#include "common/fault_injection.h"
#include "exec/batch_executor.h"
#include "exec/circuit_builder.h"
#include "fft/simd_fft.h"
#include "tfhe/functional.h"
#include "test_util.h"

namespace matcha {
namespace {

using circuits::EncWord;
using exec::BatchExecutor;
using exec::BatchResult;
using exec::CircuitBuilder;
using exec::SymWord;
using exec::SymWordCircuits;
using exec::Wire;
using test::shared_keys;

std::unique_ptr<DoubleFftEngine> make_engine() {
  return std::make_unique<DoubleFftEngine>(shared_keys().params.ring.n_ring);
}

bool same_sample(const LweSample& x, const LweSample& y) {
  return x.a == y.a && x.b == y.b;
}

/// Recorded 4-bit adder (with carry-out) + comparator over two input words.
struct AdderCmpCircuit {
  static constexpr int kWidth = 4;
  CircuitBuilder b;
  SymWord x, y, sum;
  Wire gt, eq;

  AdderCmpCircuit() {
    x = b.input_word(kWidth);
    y = b.input_word(kWidth);
    SymWordCircuits wc(b);
    sum = wc.add(x, y, nullptr, /*with_carry_out=*/true);
    gt = wc.greater_than(x, y);
    eq = wc.equal(x, y);
  }

  std::vector<LweSample> encrypt_inputs(uint64_t vx, uint64_t vy, Rng& rng) const {
    const auto& K = shared_keys();
    std::vector<LweSample> in;
    const EncWord ex = circuits::encrypt_word(K.sk, vx, kWidth, rng);
    const EncWord ey = circuits::encrypt_word(K.sk, vy, kWidth, rng);
    in.insert(in.end(), ex.bits.begin(), ex.bits.end());
    in.insert(in.end(), ey.bits.begin(), ey.bits.end());
    return in;
  }

  uint64_t decrypt_sum(const BatchResult& r) const {
    const auto& K = shared_keys();
    EncWord w;
    for (const Wire s : sum.bits) w.bits.push_back(r.at(s));
    return circuits::decrypt_word(K.sk, w);
  }
};

TEST(BatchExecutor, ParallelMatchesSequentialBitForBit) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const AdderCmpCircuit c;
  BatchExecutor<DoubleFftEngine> seq(make_engine, dk.bk, *dk.ks, K.params.mu(), 1);
  BatchExecutor<DoubleFftEngine> par(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);

  const std::pair<uint64_t, uint64_t> cases[] = {{11, 5}, {3, 14}, {9, 9}};
  for (const auto& [vx, vy] : cases) {
    Rng rng_s = test::test_rng(100 + vx);
    Rng rng_p = test::test_rng(100 + vx); // identical ciphertext inputs
    const BatchResult rs = seq.run(c.b.graph(), c.encrypt_inputs(vx, vy, rng_s));
    const BatchResult rp = par.run(c.b.graph(), c.encrypt_inputs(vx, vy, rng_p));
    ASSERT_EQ(rs.values.size(), rp.values.size());
    for (size_t i = 0; i < rs.values.size(); ++i) {
      ASSERT_TRUE(same_sample(rs.values[i], rp.values[i])) << "wire " << i;
    }
    EXPECT_EQ(c.decrypt_sum(rp), vx + vy);
    EXPECT_EQ(K.sk.decrypt_bit(rp.at(c.gt)), vx > vy ? 1 : 0);
    EXPECT_EQ(K.sk.decrypt_bit(rp.at(c.eq)), vx == vy ? 1 : 0);
  }
}

TEST(BatchExecutor, MatchesImmediateModeEvaluator) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const AdderCmpCircuit c;
  Rng rng_a = test::test_rng(7);
  Rng rng_b = test::test_rng(7);

  // Batched path.
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 3);
  const BatchResult r = ex.run(c.b.graph(), c.encrypt_inputs(13, 6, rng_a));

  // Eager path: same circuit template instantiated over the GateEvaluator.
  auto ev = dk.make_evaluator(K.deng, K.params.mu());
  circuits::WordCircuits<DoubleFftEngine> wc(ev);
  const EncWord ex_w = circuits::encrypt_word(K.sk, 13, c.kWidth, rng_b);
  const EncWord ey_w = circuits::encrypt_word(K.sk, 6, c.kWidth, rng_b);
  const EncWord sum = wc.add(ex_w, ey_w, nullptr, /*with_carry_out=*/true);
  const LweSample gt = wc.greater_than(ex_w, ey_w);
  const LweSample eq = wc.equal(ex_w, ey_w);

  ASSERT_EQ(sum.width(), c.sum.width());
  for (int i = 0; i < sum.width(); ++i) {
    EXPECT_TRUE(same_sample(sum.bits[i], r.at(c.sum.bits[i]))) << "sum bit " << i;
  }
  EXPECT_TRUE(same_sample(gt, r.at(c.gt)));
  EXPECT_TRUE(same_sample(eq, r.at(c.eq)));
}

TEST(BatchExecutor, EmptyGraph) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck1);
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 2);
  exec::GateGraph g;
  const BatchResult r = ex.run(g, {});
  EXPECT_TRUE(r.values.empty());
  EXPECT_EQ(ex.last_stats().gates, 0);
  EXPECT_EQ(ex.last_stats().levels, 0);
}

TEST(BatchExecutor, EmptyBatchIsANoOp) {
  // run_batch({}) must be well-defined: no worker wakeup, no bootstrap
  // counted, an empty result -- and the executor stays usable afterwards.
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck1);
  Rng rng = test::test_rng(12);
  CircuitBuilder b;
  const Wire a = b.input(), c = b.input();
  const Wire out = b.gate_and(a, c);
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 2);
  const std::vector<BatchResult> empty = ex.run_batch(b.graph(), {});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(ex.last_stats().items, 0);
  EXPECT_EQ(ex.last_stats().gates, 0);
  EXPECT_EQ(ex.last_stats().bootstraps, 0);
  EXPECT_EQ(ex.counters().to_spectral_calls, 0);
  // A normal run after the no-op behaves as usual.
  const LweSample ca = K.sk.encrypt_bit(1, rng), cb = K.sk.encrypt_bit(0, rng);
  const BatchResult r = ex.run(b.graph(), {ca, cb});
  EXPECT_EQ(K.sk.decrypt_bit(r.at(out)), 0);
  EXPECT_EQ(ex.last_stats().items, 1);
}

TEST(BatchExecutor, InputsOnlyGraphPassesThrough) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck1);
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 2);
  Rng rng = test::test_rng(8);
  exec::GateGraph g;
  const Wire w = g.add_input();
  const LweSample in = K.sk.encrypt_bit(1, rng);
  const BatchResult r = ex.run(g, {in});
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_TRUE(same_sample(r.at(w), in));
  EXPECT_EQ(ex.last_stats().gates, 0);
}

TEST(BatchExecutor, SingleGate) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck1);
  Rng rng = test::test_rng(9);
  CircuitBuilder b;
  const Wire a = b.input(), c = b.input();
  const Wire out = b.gate_nand(a, c);
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);
  const LweSample ca = K.sk.encrypt_bit(1, rng), cb = K.sk.encrypt_bit(1, rng);
  const BatchResult r = ex.run(b.graph(), {ca, cb});
  EXPECT_EQ(K.sk.decrypt_bit(r.at(out)), 0);
  EXPECT_EQ(ex.last_stats().gates, 1);
  EXPECT_EQ(ex.last_stats().bootstraps, 1);
  EXPECT_EQ(ex.last_stats().levels, 1);
  // A 1-gate run is one pool dispatch with one participating worker -- the
  // dataflow dispatch never wakes workers it cannot feed.
  EXPECT_EQ(ex.last_stats().pool_dispatches, 1);
  EXPECT_EQ(ex.last_stats().workers, 1);
  EXPECT_EQ(ex.last_stats().steals, 0);

  // Bit-identical to the eager evaluator.
  auto ev = dk.make_evaluator(K.deng, K.params.mu());
  EXPECT_TRUE(same_sample(ev.gate_nand(ca, cb), r.at(out)));
}

TEST(BatchExecutor, AllGateKindsIncludingMuxAndNot) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  CircuitBuilder b;
  const Wire a = b.input(), c = b.input(), s = b.input();
  const Wire nand_w = b.gate_nand(a, c), and_w = b.gate_and(a, c);
  const Wire or_w = b.gate_or(a, c), nor_w = b.gate_nor(a, c);
  const Wire xor_w = b.gate_xor(a, c), xnor_w = b.gate_xnor(a, c);
  const Wire not_w = b.gate_not(a);
  const Wire mux_w = b.gate_mux(s, a, c);

  BatchExecutor<DoubleFftEngine> seq(make_engine, dk.bk, *dk.ks, K.params.mu(), 1);
  BatchExecutor<DoubleFftEngine> par(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);
  auto ev = dk.make_evaluator(K.deng, K.params.mu());
  for (int vs = 0; vs <= 1; ++vs) {
    for (int va = 0; va <= 1; ++va) {
      for (int vc = 0; vc <= 1; ++vc) {
        const uint64_t seed = 20 + vs * 4 + va * 2 + vc;
        Rng r1 = test::test_rng(seed);
        Rng r2 = test::test_rng(seed);
        Rng r3 = test::test_rng(seed);
        const auto enc = [&](Rng& r) {
          return std::vector<LweSample>{K.sk.encrypt_bit(va, r),
                                        K.sk.encrypt_bit(vc, r),
                                        K.sk.encrypt_bit(vs, r)};
        };
        const BatchResult rs = seq.run(b.graph(), enc(r1));
        const BatchResult rp = par.run(b.graph(), enc(r2));
        for (size_t i = 0; i < rs.values.size(); ++i) {
          ASSERT_TRUE(same_sample(rs.values[i], rp.values[i])) << "wire " << i;
        }
        // Immediate mode on the same ciphertexts computes every wire bit for
        // bit -- MUX included (one shared lowering, tfhe/gate_ops.h).
        const std::vector<LweSample> in = enc(r3);
        const LweSample &ca = in[0], &cc = in[1], &cs = in[2];
        const std::pair<Wire, LweSample> immediate[] = {
            {nand_w, ev.gate_nand(ca, cc)}, {and_w, ev.gate_and(ca, cc)},
            {or_w, ev.gate_or(ca, cc)},     {nor_w, ev.gate_nor(ca, cc)},
            {xor_w, ev.gate_xor(ca, cc)},   {xnor_w, ev.gate_xnor(ca, cc)},
            {not_w, ev.gate_not(ca)},       {mux_w, ev.gate_mux(cs, ca, cc)},
        };
        for (const auto& [w, want] : immediate) {
          ASSERT_TRUE(same_sample(rp.at(w), want)) << "wire " << w.id;
        }
        EXPECT_EQ(K.sk.decrypt_bit(rp.at(nand_w)), !(va && vc));
        EXPECT_EQ(K.sk.decrypt_bit(rp.at(and_w)), va && vc);
        EXPECT_EQ(K.sk.decrypt_bit(rp.at(or_w)), va || vc);
        EXPECT_EQ(K.sk.decrypt_bit(rp.at(nor_w)), !(va || vc));
        EXPECT_EQ(K.sk.decrypt_bit(rp.at(xor_w)), va ^ vc);
        EXPECT_EQ(K.sk.decrypt_bit(rp.at(xnor_w)), !(va ^ vc));
        EXPECT_EQ(K.sk.decrypt_bit(rp.at(not_w)), !va);
        EXPECT_EQ(K.sk.decrypt_bit(rp.at(mux_w)), vs ? va : vc);
      }
    }
  }
}

TEST(BatchExecutor, RunBatchMatchesIndividualRuns) {
  // The flattened (batch item x wavefront slice) task space must not let
  // items contaminate each other: a 3-item batch on 4 threads is bit-equal
  // to three independent single-item runs on 1 thread.
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const AdderCmpCircuit c;
  BatchExecutor<DoubleFftEngine> par(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);
  BatchExecutor<DoubleFftEngine> seq(make_engine, dk.bk, *dk.ks, K.params.mu(), 1);

  const std::pair<uint64_t, uint64_t> cases[] = {{2, 13}, {8, 8}, {15, 1}};
  std::vector<std::vector<LweSample>> batch;
  for (size_t i = 0; i < 3; ++i) {
    Rng rng = test::test_rng(300 + i);
    batch.push_back(c.encrypt_inputs(cases[i].first, cases[i].second, rng));
  }
  const std::vector<BatchResult> rb = par.run_batch(c.b.graph(), batch);
  ASSERT_EQ(rb.size(), 3u);
  EXPECT_EQ(par.last_stats().items, 3);
  EXPECT_EQ(par.last_stats().gates, 3 * c.b.graph().num_gates());
  // Barrier-free contract: the whole 3-item batch is one pool dispatch, not
  // one per dependence level, and the scheduler-efficiency metric is sane.
  EXPECT_EQ(par.last_stats().pool_dispatches, 1);
  EXPECT_GT(par.last_stats().sched_efficiency, 0.0);
  EXPECT_LE(par.last_stats().sched_efficiency, 1.05);
  for (size_t i = 0; i < 3; ++i) {
    Rng rng = test::test_rng(300 + i);
    const BatchResult ri =
        seq.run(c.b.graph(), c.encrypt_inputs(cases[i].first, cases[i].second, rng));
    ASSERT_EQ(rb[i].values.size(), ri.values.size());
    for (size_t w = 0; w < ri.values.size(); ++w) {
      ASSERT_TRUE(same_sample(rb[i].values[w], ri.values[w]))
          << "item " << i << " wire " << w;
    }
    EXPECT_EQ(c.decrypt_sum(rb[i]), cases[i].first + cases[i].second);
  }
}

TEST(BatchExecutor, CoalescedFlushesStayCappedAndBitIdentical) {
  // A level of 32 independent LUTs at B = 2 on one thread: each (group x
  // gate) task carries 2 rotations, so the worker coalesces up to 4 ready
  // tasks per flush (the 8-rotation cap). The next level (AND of LUT
  // pairs) joins flushes with the remaining LUTs: gate and LUT test
  // vectors in one rotation. Every output must equal immediate mode --
  // functional_bootstrap for a LUT, GateEvaluator for a gate.
  const auto& K = shared_keys();
  const int n_ring = K.params.ring.n_ring;
  const SimdFftEngine eng(n_ring);
  const auto dk = load_device_keyset(eng, K.ck2);
  constexpr int kWide = 32;
  constexpr int kItems = 2;
  CircuitBuilder b;
  std::vector<Wire> in, lut, gate;
  for (int i = 0; i <= kWide; ++i) in.push_back(b.input());
  for (int i = 0; i < kWide; ++i) {
    lut.push_back(b.gate_lut({in[i], in[i + 1]}, 0b0110)); // XOR2
    b.mark_output(lut.back());
  }
  for (int i = 0; i < kWide; i += 2) {
    gate.push_back(b.gate_and(lut[i], lut[i + 1]));
    b.mark_output(gate.back());
  }
  const exec::GateGraph& g = b.graph();

  std::vector<std::vector<LweSample>> batch(kItems);
  Rng rng = test::test_rng(1601);
  for (auto& item : batch) {
    for (int i = 0; i <= kWide; ++i) {
      item.push_back(K.sk.encrypt_bit(static_cast<int>(rng.uniform_below(2)), rng));
    }
  }
  BatchExecutor<SimdFftEngine> ex(
      [n_ring] { return std::make_unique<SimdFftEngine>(n_ring); }, dk.bk,
      *dk.ks, K.params.mu(), 1);
  const std::vector<BatchResult> r = ex.run_batch(g, batch);
  const auto& st = ex.last_stats();
  const int64_t tasks = g.num_gates(); // one group of both items
  EXPECT_EQ(st.bootstraps, kItems * (kWide + kWide / 2));
  EXPECT_LT(st.rotation_flushes, tasks);
  EXPECT_GE(st.rotation_flushes * 8, st.bootstraps);
  EXPECT_LE(st.max_flush_rotations, 8);
  EXPECT_GT(st.max_flush_rotations, kItems); // more than one task coalesced

  auto ev = dk.make_evaluator(eng, K.params.mu());
  BootstrapWorkspace<SimdFftEngine> ws(eng, K.params.gadget);
  for (int it = 0; it < kItems; ++it) {
    const auto& item = batch[static_cast<size_t>(it)];
    std::vector<LweSample> want_lut;
    for (int i = 0; i < kWide; ++i) {
      const LutSpec& spec = g.nodes()[static_cast<size_t>(lut[i].id)].lut;
      const std::array<const LweSample*, 2> ins{&item[i], &item[i + 1]};
      want_lut.push_back(functional_bootstrap(
          eng, dk.bk, *dk.ks, make_lut_testvector(n_ring, lut_slot_values(spec)),
          lut_cone_input(spec, ins, dk.bk.n_lwe), ws));
      ASSERT_TRUE(same_sample(r[it].at(lut[i]), want_lut.back()))
          << "item " << it << " lut " << i;
    }
    for (int i = 0; i < kWide / 2; ++i) {
      ASSERT_TRUE(same_sample(r[it].at(gate[i]),
                              ev.gate_and(want_lut[2 * i], want_lut[2 * i + 1])))
          << "item " << it << " gate " << i;
    }
  }
}

TEST(EngineCounters, PerThreadCountersMergeLosslessly) {
  // Regression for the counter race: EngineCounters used to be one shared
  // mutable struct; concurrent gates would drop increments. Per-thread
  // engines accumulate privately and the executor folds them together on
  // batch completion, so the merged call counts must match a sequential run
  // exactly, for any thread count.
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const AdderCmpCircuit c;
  BatchExecutor<DoubleFftEngine> seq(make_engine, dk.bk, *dk.ks, K.params.mu(), 1);
  BatchExecutor<DoubleFftEngine> par(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);
  Rng rng_s = test::test_rng(11);
  Rng rng_p = test::test_rng(11);
  (void)seq.run(c.b.graph(), c.encrypt_inputs(12, 10, rng_s));
  (void)par.run(c.b.graph(), c.encrypt_inputs(12, 10, rng_p));

  const EngineCounters& cs = seq.counters();
  const EngineCounters& cp = par.counters();
  EXPECT_GT(cs.to_spectral_calls, 0);
  EXPECT_GT(cs.from_spectral_calls, 0);
  EXPECT_TRUE(cp.same_counts(cs))
      << "to_spectral " << cp.to_spectral_calls << " vs " << cs.to_spectral_calls
      << ", from_spectral " << cp.from_spectral_calls << " vs "
      << cs.from_spectral_calls;

  par.reset_counters();
  EXPECT_EQ(par.counters().to_spectral_calls, 0);
}

// ------------------------------------------------------- fault isolation --
// Per-item failure containment under injected faults: a faulted item carries
// a structured Status, its batch siblings complete bit-identically to a
// clean run, and the bounded retry repairs transient faults in place.

/// Leaves the process-wide fault registry clean on both sides of a test.
struct FaultGuard {
  FaultGuard() { fault::Registry::instance().reset(); }
  ~FaultGuard() { fault::Registry::instance().reset(); }
};

// Tests that arm a site are meaningless when the sites are compiled out
// (-DMATCHA_FAULT_INJECTION=OFF): skip, don't fail.
#define SKIP_IF_FAULTS_COMPILED_OUT() \
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out"

struct FaultFixture {
  const AdderCmpCircuit c;
  std::vector<std::pair<uint64_t, uint64_t>> cases{{2, 13}, {8, 8}, {15, 1}};

  std::vector<std::vector<LweSample>> make_batch() const {
    std::vector<std::vector<LweSample>> batch;
    for (size_t i = 0; i < cases.size(); ++i) {
      Rng rng = test::test_rng(900 + i);
      batch.push_back(
          c.encrypt_inputs(cases[i].first, cases[i].second, rng));
    }
    return batch;
  }
};

TEST(FaultIsolation, TaskExceptionIsRepairedByBoundedRetry) {
  SKIP_IF_FAULTS_COMPILED_OUT();
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const FaultFixture f;
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);

  FaultGuard guard;
  const std::vector<BatchResult> clean = ex.run_batch(f.c.b.graph(), f.make_batch());

  fault::Registry::instance().arm(fault::kSiteTaskException);
  const std::vector<BatchResult> faulted = ex.run_batch(f.c.b.graph(), f.make_batch());

  EXPECT_GE(ex.last_stats().faulted_items, 1);
  EXPECT_EQ(ex.last_stats().retried_items, ex.last_stats().faulted_items);
  EXPECT_GE(ex.last_stats().retry_runs, 1);
  ASSERT_EQ(faulted.size(), clean.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    EXPECT_TRUE(faulted[i].status.ok()) << faulted[i].status.to_string();
    ASSERT_EQ(faulted[i].values.size(), clean[i].values.size());
    for (size_t w = 0; w < clean[i].values.size(); ++w) {
      ASSERT_TRUE(same_sample(faulted[i].values[w], clean[i].values[w]))
          << "item " << i << " wire " << w;
    }
  }
}

TEST(FaultIsolation, WithoutRetryTheFaultStaysOnItsItem) {
  SKIP_IF_FAULTS_COMPILED_OUT();
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const FaultFixture f;
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);

  FaultGuard guard;
  const std::vector<BatchResult> clean = ex.run_batch(f.c.b.graph(), f.make_batch());

  ex.set_max_retries(0);
  fault::Registry::instance().arm(fault::kSiteTaskException);
  const std::vector<BatchResult> faulted = ex.run_batch(f.c.b.graph(), f.make_batch());

  ASSERT_EQ(faulted.size(), clean.size());
  int bad = 0;
  for (size_t i = 0; i < faulted.size(); ++i) {
    if (!faulted[i].status.ok()) {
      ++bad;
      // The faulted item's downstream cone is invalidated, and reading an
      // invalidated wire surfaces the structured Status, not stale bytes.
      size_t invalid_gates = 0;
      for (size_t w = 0; w < faulted[i].value_ok.size(); ++w) {
        if (f.c.b.graph().nodes()[w].is_gate() && !faulted[i].value_ok[w]) {
          ++invalid_gates;
          EXPECT_THROW((void)faulted[i].at(Wire{static_cast<int>(w)}),
                       StatusError);
        }
      }
      EXPECT_GE(invalid_gates, 1u);
    } else {
      // Siblings of the faulted item are bit-identical to the clean run.
      for (size_t w = 0; w < clean[i].values.size(); ++w) {
        ASSERT_TRUE(same_sample(faulted[i].values[w], clean[i].values[w]))
            << "item " << i << " wire " << w;
      }
      EXPECT_EQ(f.c.decrypt_sum(faulted[i]),
                f.cases[i].first + f.cases[i].second);
    }
  }
  EXPECT_GE(bad, 1);
  EXPECT_EQ(ex.last_stats().faulted_items, bad);
  EXPECT_EQ(ex.last_stats().retried_items, 0);
}

TEST(FaultIsolation, DataPathFaultSitesAreRepairedInPlace) {
  SKIP_IF_FAULTS_COMPILED_OUT();
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const FaultFixture f;
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);

  FaultGuard guard;
  const std::vector<BatchResult> clean = ex.run_batch(f.c.b.graph(), f.make_batch());

  for (const char* site : {fault::kSiteArenaAllocFail,
                           fault::kSiteBskRowCorrupt,
                           fault::kSiteKeyswitchBitflip}) {
    fault::Registry::instance().reset();
    fault::Registry::instance().arm(site);
    const std::vector<BatchResult> faulted =
        ex.run_batch(f.c.b.graph(), f.make_batch());
    EXPECT_GE(ex.last_stats().faulted_items, 1) << site;
    ASSERT_EQ(faulted.size(), clean.size());
    for (size_t i = 0; i < clean.size(); ++i) {
      EXPECT_TRUE(faulted[i].status.ok())
          << site << ": " << faulted[i].status.to_string();
      for (size_t w = 0; w < clean[i].values.size(); ++w) {
        ASSERT_TRUE(same_sample(faulted[i].values[w], clean[i].values[w]))
            << site << " item " << i << " wire " << w;
      }
    }
  }
}

TEST(FaultIsolation, FaultInAFlushSpanningTwoGroupsStaysInThatFlush) {
  // 17 items on one thread form groups {0..7}, {8..15}, {16}. Each group's
  // seeds, AND(x, y) then NOT(y), sit on the worker's deque in group order;
  // it pops group 2's NOT, coalesces group 2's AND (1 rotation) and group
  // 1's NOT, and stops before group 1's AND (8 more passes the 8-rotation
  // cap). The first check of each site therefore falls in a flush mixing
  // two groups: the task exception drops group 2's NOT, the key-row and
  // keyswitch faults lose group 2's AND. Either way only item 16 fails:
  // items 8..15 shared the flush but their NOT completed, items 0..7 were
  // elsewhere, and retry repairs item 16 bit-identically.
  SKIP_IF_FAULTS_COMPILED_OUT();
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  CircuitBuilder b;
  const Wire x = b.input(), y = b.input();
  const Wire a = b.gate_and(x, y);
  b.mark_output(b.gate_xor(a, b.gate_not(y)));
  constexpr int kItems = 17;
  const auto make_batch = [&] {
    Rng rng = test::test_rng(1700);
    std::vector<std::vector<LweSample>> batch(kItems);
    for (int i = 0; i < kItems; ++i) {
      batch[i] = {K.sk.encrypt_bit(i & 1, rng), K.sk.encrypt_bit(i >> 1 & 1, rng)};
    }
    return batch;
  };
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 1);

  FaultGuard guard;
  const std::vector<BatchResult> clean = ex.run_batch(b.graph(), make_batch());
  for (const char* site : {fault::kSiteTaskException, fault::kSiteBskRowCorrupt,
                           fault::kSiteKeyswitchBitflip}) {
    for (const int retries : {0, 4}) {
      fault::Registry::instance().reset();
      fault::Registry::instance().arm(site);
      ex.set_max_retries(retries);
      const std::vector<BatchResult> r = ex.run_batch(b.graph(), make_batch());
      EXPECT_EQ(ex.last_stats().faulted_items, 1) << site;
      EXPECT_EQ(ex.last_stats().retried_items, retries > 0 ? 1 : 0) << site;
      for (int i = 0; i < kItems; ++i) {
        if (!r[i].status.ok()) {
          EXPECT_EQ(i, 16) << site << ": item outside the faulted task";
          EXPECT_EQ(retries, 0) << site;
          continue;
        }
        for (size_t w = 0; w < clean[i].values.size(); ++w) {
          ASSERT_TRUE(same_sample(r[i].values[w], clean[i].values[w]))
              << site << " retries " << retries << " item " << i << " wire " << w;
        }
      }
    }
  }
}

TEST(FaultIsolation, DeadlineTripsAsStructuredTimeout) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const FaultFixture f;
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 2);

  FaultGuard guard;
  ex.set_deadline(std::chrono::milliseconds(1));
  const std::vector<BatchResult> r = ex.run_batch(f.c.b.graph(), f.make_batch());
  EXPECT_TRUE(ex.last_stats().timed_out);
  int timed_out_items = 0;
  for (const BatchResult& item : r) {
    if (!item.status.ok()) {
      EXPECT_EQ(item.status.code(), StatusCode::kDeadlineExceeded)
          << item.status.to_string();
      ++timed_out_items;
    }
  }
  EXPECT_GE(timed_out_items, 1);
}

TEST(FaultIsolation, ChaosNeverReportsAWrongAnswerAsSuccess) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const FaultFixture f;
  BatchExecutor<DoubleFftEngine> ex(make_engine, dk.bk, *dk.ks, K.params.mu(), 4);

  FaultGuard guard;
  fault::Registry::instance().enable_chaos(/*seed=*/20260807, /*rate=*/0.02);
  const std::vector<BatchResult> r = ex.run_batch(f.c.b.graph(), f.make_batch());
  ASSERT_EQ(r.size(), f.cases.size());
  for (size_t i = 0; i < r.size(); ++i) {
    if (r[i].status.ok()) {
      EXPECT_EQ(f.c.decrypt_sum(r[i]), f.cases[i].first + f.cases[i].second)
          << "item " << i << " reported success with a wrong plaintext";
    }
    // A non-OK item is acceptable under chaos -- the contract is a
    // structured per-item Status, never a crash, hang, or silent corruption.
  }
}

TEST(GateGraph, RejectsMalformedPayloadsWithStructuredErrors) {
  exec::GateGraph g;
  const Wire a = g.add_input();
  const Wire b = g.add_input();

  // Unknown operand wires, wrong construction entry points, and out-of-spec
  // LutSpec payloads all fail with a structured throw in release builds.
  EXPECT_THROW(g.add_gate(GateKind::kAnd, a, Wire{99}), StatusError);
  EXPECT_THROW(g.add_gate(GateKind::kLut, a, b), StatusError);
  EXPECT_THROW(g.add_gate(GateKind::kLutOut, a), StatusError);
  EXPECT_THROW(g.mark_output(Wire{99}), StatusError);
  EXPECT_THROW(g.add_lut_output(a, 1), StatusError);

  LutSpec bad;
  bad.k = 2;
  bad.w = {1, 0, 0, 0}; // zero weight inside the fan-in
  const std::array<Wire, 2> ins{a, b};
  EXPECT_THROW(g.add_lut(std::span<const Wire>(ins), bad), StatusError);
  EXPECT_EQ(validate_lut_spec(bad).code(), StatusCode::kInvalidArgument);

  LutSpec xor2 = *solve_lut_cone(2, 0b0110);
  EXPECT_TRUE(validate_lut_spec(xor2).ok());
  xor2.grid_log = 7; // outside the representable grid range
  EXPECT_FALSE(validate_lut_spec(xor2).ok());

  // The graph is still usable after rejected additions.
  const Wire ok = g.add_gate(GateKind::kAnd, a, b);
  g.mark_output(ok);
  EXPECT_EQ(g.num_gates(), 1);
}

TEST(GateGraph, LevelizeRespectsDependencies) {
  CircuitBuilder b;
  const SymWord x = b.input_word(4), y = b.input_word(4);
  SymWordCircuits wc(b);
  const SymWord sum = wc.add(x, y, nullptr, true);
  (void)sum;
  const auto& g = b.graph();
  const auto levels = g.levelize();
  ASSERT_GT(levels.size(), 1u);
  // Inputs exactly fill level 0.
  EXPECT_EQ(levels[0].size(), static_cast<size_t>(g.num_inputs()));
  // Every gate sits strictly above all of its operands.
  std::vector<int> level_of(g.num_nodes());
  for (size_t l = 0; l < levels.size(); ++l) {
    for (int id : levels[l]) level_of[id] = static_cast<int>(l);
  }
  for (int id = 0; id < g.num_nodes(); ++id) {
    const auto& n = g.nodes()[id];
    for (int j = 0; j < n.fan_in(); ++j) {
      EXPECT_LT(level_of[n.in[j]], level_of[id]);
    }
  }
  // A ripple-carry adder's budget: 5 gates per full-adder stage.
  EXPECT_EQ(g.num_gates(), 2 + 5 * 3);
}

} // namespace
} // namespace matcha
