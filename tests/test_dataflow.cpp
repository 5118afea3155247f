// The dataflow scheduler, fuzzed at both layers. Software: randomized gate
// DAGs executed by the barrier-free BatchExecutor must be bit-identical to
// sequential replay at every thread count and batch size, and must decrypt
// to the plaintext evaluation of the same graph. Hardware: randomized
// GateDags partitioned across 1/2/4 chips must place every gate on exactly
// one chip with chip ids monotone along edges (so the chip quotient graph is
// acyclic -- no cross-chip cycle), and the multi-chip schedule must respect
// dependence + transfer ordering, reducing exactly to the single-chip
// schedule at num_chips == 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "exec/batch_executor.h"
#include "exec/circuit_builder.h"
#include "exec/thread_pool.h"
#include "sim/chip_sim.h"
#include "sim/gate_dag.h"
#include "test_util.h"

namespace matcha {
namespace {

using exec::BatchExecutor;
using exec::BatchResult;
using exec::CircuitBuilder;
using exec::ThreadPool;
using exec::Wire;
using test::shared_keys;

// ---------------------------------------------------------------------------
// ThreadPool: capped participation + work-stealing task runs.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunCapsParticipatingWorkers) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  std::atomic<int> max_slot{-1};
  pool.run(
      [&](int slot) {
        ++calls;
        int seen = max_slot.load();
        while (slot > seen && !max_slot.compare_exchange_weak(seen, slot)) {
        }
      },
      3);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_LT(max_slot.load(), 3);

  // Uncapped: every slot participates exactly once.
  calls = 0;
  pool.run([&](int) { ++calls; });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, RunTasksExecutesEveryPushedTask) {
  // Seed tasks expand into a binary tree pushed through the sink; every node
  // of the tree must execute exactly once, for any worker count.
  constexpr uint64_t kLeafBase = 1u << 10;
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::atomic<int64_t> executed{0};
    const std::vector<uint64_t> seeds{1};
    // Nodes 1..2047: node t pushes 2t and 2t+1 while t < kLeafBase.
    const int64_t total = 2 * kLeafBase - 1;
    const auto stats = pool.run_tasks(
        seeds, total,
        [&](ThreadPool::TaskSink& sink, uint64_t t) {
          ++executed;
          if (t < kLeafBase) {
            sink.push(2 * t);
            sink.push(2 * t + 1);
          }
        });
    EXPECT_EQ(executed.load(), total) << threads << " threads";
    EXPECT_LE(stats.workers, threads);
  }
}

TEST(ThreadPool, RunTasksCapsWorkersAtTaskCount) {
  ThreadPool pool(8);
  std::atomic<int> max_slot{-1};
  const std::vector<uint64_t> seeds{0, 1};
  const auto stats = pool.run_tasks(seeds, 2, [&](ThreadPool::TaskSink& sink,
                                                  uint64_t) {
    int seen = max_slot.load();
    while (sink.slot() > seen &&
           !max_slot.compare_exchange_weak(seen, sink.slot())) {
    }
  });
  EXPECT_EQ(stats.workers, 2); // a 2-task run must not wake 8 workers
  EXPECT_LT(max_slot.load(), 2);
}

TEST(ThreadPool, RunTasksPropagatesExceptions) {
  ThreadPool pool(4);
  const std::vector<uint64_t> seeds{0, 1, 2, 3};
  EXPECT_THROW(pool.run_tasks(seeds, 100,
                              [&](ThreadPool::TaskSink&, uint64_t t) {
                                if (t == 2) throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  // The pool survives an aborted run.
  std::atomic<int> ok{0};
  pool.run([&](int) { ++ok; });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPool, WatchdogDeadlineStopsARunawayRunInsteadOfHanging) {
  ThreadPool pool(4);
  const std::vector<uint64_t> seeds{0, 1, 2, 3};
  std::atomic<int> executed{0};
  // Tasks that re-enqueue themselves forever: without the watchdog this run
  // never terminates. The deadline must stop it and say so in the stats.
  const auto stats = pool.run_tasks(
      seeds, 1000,
      [&](ThreadPool::TaskSink& sink, uint64_t t) {
        ++executed;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        sink.push(t + 1000);
      },
      /*max_workers=*/1 << 30,
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30));
  EXPECT_TRUE(stats.timed_out);
  EXPECT_GT(executed.load(), 0);
  EXPECT_LT(executed.load(), 1000);
  // The pool survives a timed-out run.
  std::atomic<int> alive{0};
  pool.run([&](int) { ++alive; });
  EXPECT_EQ(alive.load(), 4);
}

TEST(ThreadPool, TakeLocalRunsEveryTaskExactlyOnceAndDrains) {
  // The binary-tree run again, but every task also absorbs up to a random
  // number of its deque's newest tasks (the coalescing path) and sometimes
  // refuses one. Absorbed tasks count as executed with the task that took
  // them, so the run must still drain with each node run exactly once, at
  // every crew size.
  constexpr uint64_t kLeafBase = 1u << 10;
  const int64_t total = 2 * kLeafBase - 1;
  Rng rng = test::test_rng(0x7A4E);
  for (int threads = 1; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    const int max_take = static_cast<int>(rng.uniform_below(8));
    std::vector<std::atomic<int>> runs(static_cast<size_t>(total + 1));
    const std::vector<uint64_t> seeds{1};
    const auto stats = pool.run_tasks(
        seeds, total, [&](ThreadPool::TaskSink& sink, uint64_t t) {
          std::vector<uint64_t> flush{t};
          const int limit = static_cast<int>((t * 2654435761u) % (max_take + 1));
          uint64_t more = 0;
          while (static_cast<int>(flush.size()) <= limit &&
                 sink.take_local(more, [](uint64_t c) { return c % 7 != 0; })) {
            flush.push_back(more);
          }
          for (const uint64_t u : flush) {
            runs[static_cast<size_t>(u)].fetch_add(1);
            if (u < kLeafBase) {
              sink.push(2 * u);
              sink.push(2 * u + 1);
            }
          }
        });
    EXPECT_FALSE(stats.timed_out);
    for (int64_t u = 1; u <= total; ++u) {
      ASSERT_EQ(runs[static_cast<size_t>(u)].load(), 1)
          << threads << " threads, take limit " << max_take << ", task " << u;
    }
  }

  // The watchdog still trips when every task coalesces: self-re-enqueueing
  // work never drains on its own.
  ThreadPool pool(4);
  const std::vector<uint64_t> seeds{0, 1, 2, 3};
  std::atomic<int> executed{0};
  const auto stats = pool.run_tasks(
      seeds, 1000,
      [&](ThreadPool::TaskSink& sink, uint64_t t) {
        uint64_t more = 0;
        int n = 1;
        while (sink.take_local(more, [](uint64_t) { return true; })) ++n;
        executed += n;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        for (int i = 0; i < n; ++i) sink.push(t + 1000);
      },
      /*max_workers=*/1 << 30,
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30));
  EXPECT_TRUE(stats.timed_out);
  EXPECT_GT(executed.load(), 0);
  EXPECT_LT(executed.load(), 1000);
}

// ---------------------------------------------------------------------------
// Randomized software DAGs: parallel == sequential == plaintext.
// ---------------------------------------------------------------------------

/// A random DAG over the full gate alphabet plus its plaintext shadow.
struct RandomCircuit {
  CircuitBuilder b;
  std::vector<Wire> wires;     ///< every recorded wire, inputs first
  std::vector<int> input_wire; ///< indices into `wires` that are inputs

  RandomCircuit(Rng& rng, int num_inputs, int num_gates) {
    for (int i = 0; i < num_inputs; ++i) {
      wires.push_back(b.input());
      input_wire.push_back(i);
    }
    for (int g = 0; g < num_gates; ++g) {
      const auto pick = [&] {
        return wires[rng.uniform_below(static_cast<uint32_t>(wires.size()))];
      };
      Wire w;
      switch (rng.uniform_below(8)) {
        case 0: w = b.gate_and(pick(), pick()); break;
        case 1: w = b.gate_or(pick(), pick()); break;
        case 2: w = b.gate_xor(pick(), pick()); break;
        case 3: w = b.gate_nand(pick(), pick()); break;
        case 4: w = b.gate_nor(pick(), pick()); break;
        case 5: w = b.gate_xnor(pick(), pick()); break;
        case 6: w = b.gate_not(pick()); break;
        default: w = b.gate_mux(pick(), pick(), pick()); break;
      }
      wires.push_back(w);
      b.mark_output(w);
    }
  }

  /// Plaintext evaluation over the recorded graph (independent of the
  /// executor: walks the nodes directly).
  std::vector<bool> eval_plain(const std::vector<bool>& inputs) const {
    const auto& g = b.graph();
    std::vector<bool> v(g.nodes().size(), false);
    for (int i = 0; i < g.num_inputs(); ++i) v[g.inputs()[i]] = inputs[i];
    for (size_t i = 0; i < g.nodes().size(); ++i) {
      const auto& n = g.nodes()[i];
      if (!n.is_gate()) continue;
      const bool a = n.in[0] >= 0 && v[n.in[0]];
      const bool c = n.in[1] >= 0 && v[n.in[1]];
      const bool d = n.in[2] >= 0 && v[n.in[2]];
      switch (n.kind) {
        case GateKind::kAnd: v[i] = a && c; break;
        case GateKind::kOr: v[i] = a || c; break;
        case GateKind::kXor: v[i] = a != c; break;
        case GateKind::kNand: v[i] = !(a && c); break;
        case GateKind::kNor: v[i] = !(a || c); break;
        case GateKind::kXnor: v[i] = a == c; break;
        case GateKind::kNot: v[i] = !a; break;
        case GateKind::kMux: v[i] = a ? c : d; break;
        case GateKind::kFreeOr: v[i] = a || c; break;
        case GateKind::kLut:
        case GateKind::kLutOut:
          ADD_FAILURE() << "no LUTs recorded";
          break;
      }
    }
    return v;
  }
};

bool same_sample(const LweSample& x, const LweSample& y) {
  return x.a == y.a && x.b == y.b;
}

TEST(DataflowFuzz, RandomGraphsBitIdenticalAcrossThreadsAndBatches) {
  const auto& K = shared_keys();
  const auto dk = load_device_keyset(K.deng, K.ck2);
  const auto make_engine = [] {
    return std::make_unique<DoubleFftEngine>(
        shared_keys().params.ring.n_ring);
  };

  Rng shape_rng = test::test_rng(0xDA7AF10);
  for (int trial = 0; trial < 3; ++trial) {
    const int num_inputs = 3 + static_cast<int>(shape_rng.uniform_below(3));
    const int num_gates = 8 + static_cast<int>(shape_rng.uniform_below(5));
    RandomCircuit c(shape_rng, num_inputs, num_gates);

    // A random batch size with distinct plaintexts per item, identical
    // across executors.
    const int items = 1 + static_cast<int>(shape_rng.uniform_below(3));
    std::vector<std::vector<bool>> plain(items);
    const auto encrypt_batch = [&](Rng& rng) {
      std::vector<std::vector<LweSample>> batch(items);
      for (int it = 0; it < items; ++it) {
        for (int i = 0; i < num_inputs; ++i) {
          batch[it].push_back(
              K.sk.encrypt_bit(plain[it][static_cast<size_t>(i)] ? 1 : 0, rng));
        }
      }
      return batch;
    };
    Rng bit_rng = test::test_rng(500 + trial);
    for (int it = 0; it < items; ++it) {
      for (int i = 0; i < num_inputs; ++i) {
        plain[it].push_back(bit_rng.uniform_below(2) != 0);
      }
    }

    BatchExecutor<DoubleFftEngine> seq(make_engine, dk.bk, *dk.ks,
                                       K.params.mu(), 1);
    Rng rng_seq = test::test_rng(900 + trial);
    const auto ref = seq.run_batch(c.b.graph(), encrypt_batch(rng_seq));
    ASSERT_EQ(seq.last_stats().pool_dispatches, 1);

    // Decrypted outputs match the plaintext shadow evaluation.
    for (int it = 0; it < items; ++it) {
      const auto want = c.eval_plain(plain[static_cast<size_t>(it)]);
      for (size_t w = num_inputs; w < c.wires.size(); ++w) {
        EXPECT_EQ(K.sk.decrypt_bit(ref[static_cast<size_t>(it)].at(
                      c.wires[w])),
                  want[static_cast<size_t>(c.wires[w].id)] ? 1 : 0)
            << "trial " << trial << " item " << it << " wire " << w;
      }
    }

    for (const int threads : {2, 4}) {
      BatchExecutor<DoubleFftEngine> par(make_engine, dk.bk, *dk.ks,
                                         K.params.mu(), threads);
      Rng rng_par = test::test_rng(900 + trial); // identical ciphertexts
      const auto got = par.run_batch(c.b.graph(), encrypt_batch(rng_par));
      ASSERT_EQ(got.size(), ref.size());
      for (size_t it = 0; it < got.size(); ++it) {
        ASSERT_EQ(got[it].values.size(), ref[it].values.size());
        for (size_t w = 0; w < ref[it].values.size(); ++w) {
          ASSERT_TRUE(same_sample(got[it].values[w], ref[it].values[w]))
              << "trial " << trial << " threads " << threads << " item " << it
              << " wire " << w;
        }
      }
      const auto& st = par.last_stats();
      EXPECT_EQ(st.pool_dispatches, 1);
      EXPECT_LE(st.workers, threads);
      EXPECT_GT(st.sched_efficiency, 0.0);
      EXPECT_LE(st.sched_efficiency, 1.05); // timer noise, never >> 1
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized sim DAGs: partition completeness + schedule invariants.
// ---------------------------------------------------------------------------

sim::GateDag random_dag(Rng& rng, int max_gates) {
  sim::GateDag dag;
  const int n = 1 + static_cast<int>(rng.uniform_below(
                        static_cast<uint32_t>(max_gates)));
  dag.gates.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    dag.gates[static_cast<size_t>(i)].bootstraps =
        static_cast<int>(rng.uniform_below(3)); // 0 (NOT), 1, 2 (MUX)
    const int fan = static_cast<int>(rng.uniform_below(4));
    for (int j = 0; j < fan && i > 0; ++j) {
      const int d = static_cast<int>(rng.uniform_below(static_cast<uint32_t>(i)));
      auto& deps = dag.gates[static_cast<size_t>(i)].deps;
      if (std::find(deps.begin(), deps.end(), d) == deps.end()) {
        deps.push_back(d);
      }
    }
  }
  return dag;
}

TEST(MultiChipFuzz, PartitionCompleteAcyclicAndBalanced) {
  Rng rng = test::test_rng(0x5117);
  for (int trial = 0; trial < 100; ++trial) {
    const sim::GateDag dag = random_dag(rng, 48);
    for (const int chips : {1, 2, 4}) {
      const sim::GateDagPartition part = sim::partition_gate_dag(dag, chips);
      ASSERT_EQ(part.num_chips, chips);
      ASSERT_EQ(part.chip_of.size(), dag.gates.size());
      // Every gate on exactly one chip, in range.
      std::vector<int64_t> load(static_cast<size_t>(chips), 0);
      for (size_t i = 0; i < dag.gates.size(); ++i) {
        ASSERT_GE(part.chip_of[i], 0);
        ASSERT_LT(part.chip_of[i], chips);
        load[static_cast<size_t>(part.chip_of[i])] += dag.gates[i].bootstraps;
      }
      ASSERT_EQ(load, part.chip_bootstraps);
      // Chip ids monotone along edges: the chip-level quotient graph has no
      // cycle (all inter-chip traffic flows low -> high).
      int64_t cut = 0;
      for (size_t i = 0; i < dag.gates.size(); ++i) {
        for (const int d : dag.gates[i].deps) {
          ASSERT_LE(part.chip_of[static_cast<size_t>(d)], part.chip_of[i])
              << "trial " << trial << " chips " << chips;
          cut += part.chip_of[static_cast<size_t>(d)] != part.chip_of[i];
        }
      }
      ASSERT_EQ(cut, part.cut_wires);
    }
  }
}

TEST(MultiChipFuzz, ScheduleRespectsDependenciesAndTransfers) {
  sim::SimParams p;
  p.tfhe = TfheParams::security110();
  p.unroll_m = 1;
  const sim::Dfg dfg = sim::build_bootstrap_dfg(p);
  constexpr int64_t kTransfer = 1000;

  Rng rng = test::test_rng(0xC41B);
  for (int trial = 0; trial < 12; ++trial) {
    const sim::GateDag dag = random_dag(rng, 24);
    const auto r1 = sim::schedule_gate_dag(dfg, dag, p.hw.pipelines);
    for (const int chips : {1, 2, 4}) {
      const auto part = sim::partition_gate_dag(dag, chips);
      const auto r = sim::schedule_gate_dag_multichip(dfg, dag, part,
                                                      p.hw.pipelines, kTransfer);
      ASSERT_EQ(r.num_gates, static_cast<int>(dag.gates.size()));
      int64_t last = 0;
      for (size_t i = 0; i < dag.gates.size(); ++i) {
        last = std::max(last, r.gate_end[i]);
        for (const int d : dag.gates[i].deps) {
          int64_t need = r.gate_end[static_cast<size_t>(d)];
          if (part.chip_of[static_cast<size_t>(d)] != part.chip_of[i]) {
            need += kTransfer; // at least one full transfer after production
          }
          ASSERT_GE(r.gate_end[i], need)
              << "trial " << trial << " chips " << chips << " gate " << i;
        }
      }
      ASSERT_EQ(r.makespan, last);
      ASSERT_EQ(r.cut_wires, part.cut_wires);
      EXPECT_LE(r.transfers, r.cut_wires);
      if (chips == 1) {
        // The multi-chip scheduler is a strict generalization.
        EXPECT_EQ(r.makespan, r1.makespan);
        EXPECT_EQ(r.transfers, 0);
        EXPECT_EQ(r.transfer_busy_cycles, 0);
      }
    }
  }
}

TEST(MultiChipFuzz, HeterogeneousCapacityPartitionsRespectCaps) {
  // Explicit per-chip capacity shares: the partitioner must honor the tight
  // per-chip load caps it derives from them, on top of the usual invariants
  // (completeness, chip-monotone edges, exact cut accounting).
  Rng rng = test::test_rng(0x4E7C);
  for (int trial = 0; trial < 60; ++trial) {
    const sim::GateDag dag = random_dag(rng, 40);
    const int chips = rng.uniform_below(2) ? 4 : 2;
    sim::PartitionOptions opt;
    for (int c = 0; c < chips; ++c) {
      opt.chip_capacity.push_back(1.0 + rng.uniform_below(3)); // 1x..3x
    }
    const sim::GateDagPartition part =
        sim::partition_gate_dag(dag, chips, opt);
    ASSERT_EQ(part.num_chips, chips);
    ASSERT_EQ(part.chip_of.size(), dag.gates.size());
    ASSERT_EQ(part.chip_load_cap.size(), static_cast<size_t>(chips));
    std::vector<int64_t> load(static_cast<size_t>(chips), 0);
    int64_t cut = 0;
    for (size_t i = 0; i < dag.gates.size(); ++i) {
      ASSERT_GE(part.chip_of[i], 0);
      ASSERT_LT(part.chip_of[i], chips);
      load[static_cast<size_t>(part.chip_of[i])] += dag.gates[i].bootstraps;
      for (const int d : dag.gates[i].deps) {
        ASSERT_LE(part.chip_of[static_cast<size_t>(d)], part.chip_of[i])
            << "trial " << trial;
        cut += part.chip_of[static_cast<size_t>(d)] != part.chip_of[i];
      }
    }
    ASSERT_EQ(load, part.chip_bootstraps);
    ASSERT_EQ(cut, part.cut_wires);
    for (int c = 0; c < chips; ++c) {
      ASSERT_LE(part.chip_bootstraps[static_cast<size_t>(c)],
                part.chip_load_cap[static_cast<size_t>(c)])
          << "trial " << trial << " chip " << c;
    }
  }
}

TEST(MultiChipFuzz, DegenerateChipCountsShrinkToNonEmptyChips) {
  // More chips than bootstrap-bearing gates: the partition must report fewer
  // used chips rather than inventing empty shards that would stall the
  // schedule, and every chip id must stay in range.
  Rng rng = test::test_rng(0xDE6E);
  for (int trial = 0; trial < 60; ++trial) {
    const sim::GateDag dag = random_dag(rng, 6);
    int64_t weighted = 0;
    for (const auto& g : dag.gates) weighted += g.bootstraps > 0;
    for (const int chips : {4, 8}) {
      const sim::GateDagPartition part = sim::partition_gate_dag(dag, chips);
      ASSERT_EQ(part.num_chips, chips);
      int nonempty = 0;
      for (int c = 0; c < chips; ++c) {
        nonempty += part.chip_bootstraps[static_cast<size_t>(c)] > 0;
      }
      const int64_t expect_max = std::max<int64_t>(1, weighted);
      EXPECT_LE(part.used_chips, expect_max) << "trial " << trial;
      EXPECT_LE(nonempty, part.used_chips);
      for (size_t i = 0; i < dag.gates.size(); ++i) {
        ASSERT_GE(part.chip_of[i], 0);
        ASSERT_LT(part.chip_of[i], chips);
      }
    }
  }
}

TEST(MultiChipFuzz, PinnedWireNodesStayWithAnchorWhenWindowAllows) {
  // Zero-bootstrap wire nodes carrying a pin must land on their anchor's
  // chip unless edge monotonicity forbids it (a dep already sits on a later
  // chip, or a consumer on an earlier one).
  Rng rng = test::test_rng(0xF13D);
  for (int trial = 0; trial < 60; ++trial) {
    sim::GateDag dag = random_dag(rng, 40);
    for (auto& g : dag.gates) {
      if (g.bootstraps == 0 && !g.deps.empty() && rng.uniform_below(2)) {
        g.pin = g.deps.front();
      }
    }
    for (const int chips : {2, 4}) {
      const sim::GateDagPartition part = sim::partition_gate_dag(
          dag, chips, sim::PartitionOptions{});
      // Consumer chip windows for the post-hoc check.
      std::vector<int> min_user(dag.gates.size(), chips - 1);
      for (size_t i = 0; i < dag.gates.size(); ++i) {
        for (const int d : dag.gates[i].deps) {
          auto& mu = min_user[static_cast<size_t>(d)];
          mu = std::min(mu, part.chip_of[i]);
        }
      }
      for (size_t i = 0; i < dag.gates.size(); ++i) {
        const auto& g = dag.gates[i];
        if (g.pin < 0) continue;
        const int anchor = part.chip_of[static_cast<size_t>(g.pin)];
        if (part.chip_of[i] == anchor) continue;
        // Separation is only legal when co-location would break
        // monotonicity against some neighbor of the wire node.
        int max_dep = 0;
        for (const int d : g.deps) {
          max_dep = std::max(max_dep, part.chip_of[static_cast<size_t>(d)]);
        }
        EXPECT_TRUE(anchor < max_dep || anchor > min_user[i])
            << "trial " << trial << " chips " << chips << " node " << i
            << ": pinned wire node separated from its anchor";
      }
    }
  }
}

TEST(MultiChipFuzz, ReplicateGateDagIsDisjointCopies) {
  Rng rng = test::test_rng(0x4E91);
  sim::GateDag c = random_dag(rng, 20);
  c.gates.back().pin = 0;
  const int n = static_cast<int>(c.gates.size());
  const sim::GateDag batch = sim::replicate_gate_dag(c, 3);
  ASSERT_EQ(batch.gates.size(), static_cast<size_t>(3 * n));
  EXPECT_EQ(batch.total_bootstraps(), 3 * c.total_bootstraps());
  // Depth is per item: independent copies never lengthen the critical path.
  EXPECT_EQ(batch.critical_path_bootstraps(), c.critical_path_bootstraps());
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < n; ++i) {
      const auto& src = c.gates[static_cast<size_t>(i)];
      const auto& dst = batch.gates[static_cast<size_t>(k * n + i)];
      EXPECT_EQ(dst.bootstraps, src.bootstraps);
      EXPECT_EQ(dst.pin, src.pin < 0 ? -1 : src.pin + k * n);
      ASSERT_EQ(dst.deps.size(), src.deps.size());
      for (size_t j = 0; j < src.deps.size(); ++j) {
        EXPECT_EQ(dst.deps[j], src.deps[j] + k * n); // stays inside copy k
      }
    }
  }
}

TEST(MultiChip, BundleValueCrossesOncePerDestinationChip) {
  // Three consumers of the same produced value on one remote chip (the
  // multi-output LUT bundle shape after sim_bridge merges kLutOut nodes):
  // three cut wires, ONE link transfer -- the value is sent once and reused.
  sim::SimParams p;
  p.tfhe = TfheParams::security110();
  p.unroll_m = 1;
  const sim::Dfg dfg = sim::build_bootstrap_dfg(p);

  sim::GateDag dag;
  dag.gates.resize(4);
  dag.gates[1].deps = {0};
  dag.gates[2].deps = {0};
  dag.gates[3].deps = {0};
  sim::GateDagPartition part;
  part.num_chips = 2;
  part.used_chips = 2;
  part.chip_of = {0, 1, 1, 1};
  part.chip_bootstraps = {1, 3};
  part.chip_load_cap = {4, 4};
  part.cut_wires = 3;
  constexpr int64_t kTransfer = 1000;
  const auto r = sim::schedule_gate_dag_multichip(dfg, dag, part,
                                                  p.hw.pipelines, kTransfer);
  EXPECT_EQ(r.cut_wires, 3);
  EXPECT_EQ(r.transfers, 1);
  EXPECT_EQ(r.transfer_busy_cycles, kTransfer);
  // Every consumer still waits for the (single) transfer to land.
  for (int i = 1; i < 4; ++i) {
    EXPECT_GE(r.gate_end[static_cast<size_t>(i)],
              r.gate_end[0] + kTransfer);
  }
}

TEST(MultiChip, DroppedTransferIsRetransmittedAndAccounted) {
  // An injected inter-chip link drop (fault::kSiteInterchipDrop, armed-only)
  // models a lost send: the link cycles are spent, the value never arrives,
  // and the schedule pays a full retransmission before any consumer starts.
  if (!fault::compiled_in()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  sim::SimParams p;
  p.tfhe = TfheParams::security110();
  p.unroll_m = 1;
  const sim::Dfg dfg = sim::build_bootstrap_dfg(p);

  sim::GateDag dag;
  dag.gates.resize(4);
  dag.gates[1].deps = {0};
  dag.gates[2].deps = {0};
  dag.gates[3].deps = {0};
  sim::GateDagPartition part;
  part.num_chips = 2;
  part.used_chips = 2;
  part.chip_of = {0, 1, 1, 1};
  part.chip_bootstraps = {1, 3};
  part.chip_load_cap = {4, 4};
  part.cut_wires = 3;
  constexpr int64_t kTransfer = 1000;

  fault::Registry::instance().reset();
  const auto clean = sim::schedule_gate_dag_multichip(dfg, dag, part,
                                                      p.hw.pipelines, kTransfer);
  ASSERT_EQ(clean.dropped_transfers, 0);

  fault::Registry::instance().arm(fault::kSiteInterchipDrop);
  const auto dropped = sim::schedule_gate_dag_multichip(
      dfg, dag, part, p.hw.pipelines, kTransfer);
  fault::Registry::instance().reset();

  EXPECT_EQ(dropped.dropped_transfers, 1);
  EXPECT_EQ(dropped.transfers, clean.transfers + 1);
  EXPECT_EQ(dropped.transfer_busy_cycles, clean.transfer_busy_cycles + kTransfer);
  // Consumers see the value only after the retransmission lands.
  for (int i = 1; i < 4; ++i) {
    EXPECT_GE(dropped.gate_end[static_cast<size_t>(i)],
              clean.gate_end[static_cast<size_t>(i)] + kTransfer);
  }
  EXPECT_GE(dropped.makespan, clean.makespan + kTransfer);
}

TEST(MultiChipPolicy, VariantsBitIdenticalAndChosenIsMinimal) {
  // Every replicate/shard/hybrid variant schedules the same replicated batch
  // DAG, so bootstrap counts must be bit-identical across policies; the
  // chosen plan must be the variant with the smallest true makespan; and a
  // pure-replicate placement never touches the inter-chip link.
  sim::SimParams p;
  p.tfhe = TfheParams::security110();
  p.unroll_m = 1;
  const sim::Dfg dfg = sim::build_bootstrap_dfg(p);

  Rng rng = test::test_rng(0xB17C);
  for (int trial = 0; trial < 4; ++trial) {
    const sim::GateDag circuit = random_dag(rng, 12);
    const int n = static_cast<int>(circuit.gates.size());
    constexpr std::pair<int, int> kShapes[] = {
        {1, 2}, {2, 2}, {2, 4}, {3, 4}, {4, 4}};
    for (const auto& [batch, chips] : kShapes) {
      sim::BatchPlanRequest req;
      req.dfg = &dfg;
      req.circuit = &circuit;
      req.batch = batch;
      req.num_chips = chips;
      req.pipelines = p.hw.pipelines;
      req.transfer_cycles = 1000;
      const sim::BatchPlan plan = sim::plan_batch_schedule(req);

      ASSERT_EQ(plan.batch_dag.gates.size(),
                static_cast<size_t>(batch) * static_cast<size_t>(n));
      const int64_t expect_bs = batch * circuit.total_bootstraps();
      ASSERT_FALSE(plan.considered.empty());
      int64_t best = plan.considered.front().makespan;
      for (const sim::BatchPlanVariant& v : plan.considered) {
        EXPECT_EQ(v.total_bootstraps, expect_bs)
            << "trial " << trial << " batch " << batch << " chips " << chips
            << " G=" << v.replica_groups;
        EXPECT_EQ(v.replica_groups * v.group_size, chips);
        if (v.policy == sim::BatchPolicy::kReplicate && chips > 1) {
          EXPECT_EQ(v.transfers, 0); // whole items per chip: link untouched
        }
        best = std::min(best, v.makespan);
      }
      EXPECT_EQ(plan.schedule.makespan, best)
          << "trial " << trial << " batch " << batch << " chips " << chips;
      // The chosen partition covers the whole batch DAG.
      ASSERT_EQ(plan.partition.chip_of.size(), plan.batch_dag.gates.size());
      int64_t placed = 0;
      for (const int64_t l : plan.partition.chip_bootstraps) placed += l;
      EXPECT_EQ(placed, expect_bs);
    }
  }
}

TEST(MultiChip, TwoChipsBeatOneOnAWideCircuit) {
  // The acceptance-bar shape: a wide multiplier bundle at m=3 is HBM-bound
  // on one chip; a second chip doubles the HBM streams and must win outright
  // despite paying for cross-shard transfers.
  const TfheParams params = TfheParams::security110();
  const sim::Netlist n = sim::array_multiplier_netlist(8);
  sim::GateDag dag;
  dag.gates.resize(n.deps.size());
  for (size_t i = 0; i < n.deps.size(); ++i) dag.gates[i].deps = n.deps[i];
  const auto r1 = sim::simulate_circuit_multichip(params, 3, dag, 1);
  const auto r2 = sim::simulate_circuit_multichip(params, 3, dag, 2);
  EXPECT_LT(r2.time_ms, r1.time_ms);
  EXPECT_GT(r2.cut_wires, 0);
  EXPECT_GT(r2.transfers, 0);
  EXPECT_EQ(r2.chip_occupancy.size(), 2u);
  // And the single-chip entry point agrees with simulate_circuit.
  const auto legacy = sim::simulate_circuit(params, 3, dag);
  EXPECT_DOUBLE_EQ(r1.time_ms, legacy.time_ms);
}

} // namespace
} // namespace matcha
