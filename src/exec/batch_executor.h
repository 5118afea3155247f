// Dataflow-parallel execution of a recorded GateGraph -- the software
// counterpart of MATCHA keeping many concurrent gate bootstrappings in
// flight. run_batch makes every (item group x gate) pair one task and
// dispatches the whole batch in a single pool invocation: a task becomes
// ready the moment its last gate operand completes (a per-task readiness
// refcount seeded from GateGraph::dataflow_info), so item A's deep gates
// overlap item B's shallow ones and a straggling carry chain never holds an
// unrelated item at a barrier. There is no per-wavefront fork-join; workers
// drain work-stealing deques (ThreadPool::run_tasks) until the batch is dry.
//
// Flush coalescing: a task evaluates one gate for a *group* of batch items
// (items / num_threads, at most kKsGroupTarget), and a worker that pops a
// task keeps absorbing the ready tasks at the back of its own deque
// (ThreadPool::TaskSink::take_local) while the flush holds at most
// kMaxFlushRotations blind-rotation samples (a MUX counts 2) and the deque
// keeps one task per idle worker. The whole flush is one group-major
// blind-rotation pass (tfhe/bootstrap.h; each sample brings its own test
// vector, so gates, MUX branches and LUTs share it) followed by ONE
// key_switch_batch, so both keys -- the largest read-only operands --
// stream from memory once per flush instead of once per group. The task
// and its group are the floor: a flush is never smaller than the group, so
// a one-task-per-group level (a carry chain) keeps its parallelism, while a
// wide level (43 minterm LUTs per item) packs up to 8 samples per key
// pass, where the measured per-sample cost stops falling. Correctness
// never depends on the flush: a sample's arithmetic is independent of what
// it is flushed with, and keyswitch is exact mod 2^32.
//
// Determinism: every worker slot owns a private Engine instance (engines
// carry mutable scratch buffers and counters -- sharing one across threads
// would race) plus its own BootstrapWorkspace, while the spectral
// bootstrapping key and key-switching key are shared read-only. This
// aliasing contract holds for the planar SIMD engine too: its kernels only
// ever read the shared key's SpectralP planes, and every buffer they write
// (digit/spectral arenas, accumulators, FFT scratch) lives in the worker's
// private engine or workspace. A gate's
// output depends only on its input ciphertexts and bootstrapping is
// deterministic, so results are bit-identical to single-thread execution
// (and to GateEvaluator's immediate mode) regardless of thread count, steal
// pattern, batch grouping, or which tasks shared a flush.
//
// Counters: each worker engine accumulates its EngineCounters privately
// during a run; the executor merges them into one aggregate on batch
// completion (see DESIGN.md "Batched execution subsystem").
//
// Fault isolation (DESIGN.md "Failure model and fault-injection contract"):
// a fault in one item's cone -- an injected bit flip, an allocation failure,
// a worker-task exception -- must never take down the batch. The executor
// tracks per-(item, node) validity alongside the refcount schedule: a failed
// flush marks failed every item whose output it did not produce (a NOT or
// free-OR it already completed stays valid) and STILL decrements its tasks'
// consumers (so the task space drains normally), an injected task
// exception drops just its own task from the flush, and downstream tasks
// simply skip items whose operands are invalid. After the pool run, a bounded retry
// recomputes only the invalid nodes of each faulted item on the caller's
// slot; items that stay faulted report a structured per-item Status in their
// BatchResult while every other item completes bit-identically to a
// fault-free run. A configurable deadline bounds the whole batch
// (ThreadPool's cooperative watchdog); a tripped deadline reports
// kDeadlineExceeded on the incomplete items instead of hanging.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/status.h"
#include "exec/gate_graph.h"
#include "exec/thread_pool.h"
#include "fft/engine_counters.h"
#include "tfhe/functional.h"
#include "tfhe/gate_ops.h"
#include "tfhe/gates.h"

namespace matcha::exec {

/// All ciphertexts one execution produced, indexed by wire id, plus the
/// item's fault outcome: `status` is kOk when every node completed (possibly
/// after retry); otherwise it carries the first failure and `value_ok` marks
/// which node values are trustworthy.
struct BatchResult {
  std::vector<LweSample> values;
  /// Per-node validity: 1 iff values[i] was computed (or recomputed) without
  /// a fault. Sized by the executor; empty in hand-built results.
  std::vector<uint8_t> value_ok;
  /// kOk, or the first structured failure this item hit and retry could not
  /// repair.
  Status status;

  /// `w` must be a wire of the executed graph -- in particular, reading an
  /// unmarked output through CompiledGraph::remap yields an invalid wire
  /// (its producer was dead-gate-eliminated). Throws instead of asserting:
  /// this is a cold per-output path and the misuse must surface in release
  /// builds too. Reading a value a fault invalidated throws the item's
  /// Status rather than handing out a corrupt ciphertext.
  const LweSample& at(Wire w) const {
    if (!w.valid() || static_cast<size_t>(w.id) >= values.size()) {
      throw std::out_of_range(
          "BatchResult::at: wire absent from this result (dead-eliminated "
          "or from a different graph)");
    }
    if (!value_ok.empty() && !value_ok[static_cast<size_t>(w.id)]) {
      throw StatusError(status.ok() ? internal_status(
                                          "BatchResult::at: value invalidated "
                                          "by a fault")
                                    : status);
    }
    return values[static_cast<size_t>(w.id)];
  }
};

struct BatchStats {
  int items = 0;          ///< batch items executed in the last run
  int64_t gates = 0;      ///< gate evaluations performed (inputs excluded)
  int64_t bootstraps = 0; ///< gate bootstrappings performed
  int64_t sample_extracts = 0; ///< accumulator readouts (>= bootstraps when
                               ///< multi-output LUTs share rotations)
  int max_extraction_fanout = 0; ///< most outputs any one rotation feeds
  int levels = 0;         ///< dependence depth of the graph (wavefront count)
  double wall_ms = 0;     ///< wall clock of the last run
  // Dataflow scheduler health. The barrier-free contract is pool_dispatches
  // == 1 however deep the graph (the wavefront executor paid one fork-join
  // per level); sched_efficiency is worker time spent inside gate kernels
  // divided by workers x makespan -- 1.0 means dispatch kept every
  // participating worker busy end to end, and the deficit is time lost to
  // readiness gaps (a too-narrow frontier) or steal traffic.
  int pool_dispatches = 0; ///< pool invocations in the last run
  int workers = 0;         ///< worker slots that participated
  int64_t steals = 0;      ///< tasks executed off another worker's deque
  double sched_efficiency = 0; ///< busy worker-time / (workers * wall)
  // Flush coalescing: a worker evaluates the ready tasks it holds as one
  // blind-rotation flush, so bootstraps / rotation_flushes is the mean
  // number of samples that shared each bootstrapping-key pass.
  int64_t rotation_flushes = 0; ///< blind-rotation flushes in the pool run
  int max_flush_rotations = 0;  ///< most rotations any one flush carried
  // Fault accounting for the last run.
  int faulted_items = 0;  ///< items that hit at least one fault
  int retried_items = 0;  ///< faulted items the bounded retry repaired
  int retry_runs = 0;     ///< repair sweeps performed after the pool run
  bool timed_out = false; ///< the batch deadline tripped (watchdog)
};

template <class Engine>
class BatchExecutor {
 public:
  using EngineFactory = std::function<std::unique_ptr<Engine>()>;

  /// `make_engine` is invoked once per worker thread. `bk`/`ks` are shared
  /// read-only across workers and must outlive the executor.
  BatchExecutor(const EngineFactory& make_engine,
                const DeviceBootstrapKey<Engine>& bk, const KeySwitchKey& ks,
                Torus32 mu, int num_threads,
                BlindRotateMode mode = BlindRotateMode::kBundle)
      : bk_(bk), ks_(ks), mu_(mu), mode_(mode), pool_(num_threads) {
    // Construct each worker's engine and workspace ON the thread that will
    // run it (ThreadPool slots are fixed per thread): first-touch places the
    // scratch arenas in that thread's local memory, which is what makes the
    // pages local on NUMA/multi-CCX hosts (DESIGN.md thread-scaling notes).
    // Engine factories are not required to be thread-safe, so the factory
    // call itself is serialized; the workspace allocation -- the part whose
    // placement matters -- happens outside the lock.
    workers_.resize(static_cast<size_t>(pool_.num_threads()));
    std::mutex factory_mu;
    pool_.run(
        [&](int slot) {
          std::unique_ptr<Engine> eng;
          {
            std::lock_guard<std::mutex> lk(factory_mu);
            eng = make_engine();
          }
          workers_[static_cast<size_t>(slot)] =
              std::make_unique<Worker>(std::move(eng), bk.gadget);
        },
        pool_.num_threads());
  }

  int num_threads() const { return pool_.num_threads(); }

  /// Execute the graph on one item (one ciphertext per GateGraph input, in
  /// registration order).
  BatchResult run(const GateGraph& g, std::vector<LweSample> inputs) {
    std::vector<std::vector<LweSample>> batch;
    batch.push_back(std::move(inputs));
    return std::move(run_batch(g, std::move(batch)).front());
  }

  /// Execute the graph once per batch item. The whole (item x gate) task
  /// space is dispatched once; tasks run as their operands resolve, in
  /// whatever order the steal pattern produces -- results are bit-identical
  /// for any thread count and any batch grouping.
  /// An empty batch is a well-defined no-op: no worker is woken, no counter
  /// is touched, and an empty result vector comes back.
  std::vector<BatchResult> run_batch(const GateGraph& g,
                                     std::vector<std::vector<LweSample>> batch) {
    if (batch.empty()) {
      stats_ = {};
      return {};
    }
    for (const auto& inputs : batch) {
      if (inputs.size() != static_cast<size_t>(g.num_inputs())) {
        throw std::invalid_argument(
            "BatchExecutor::run_batch: expected " +
            std::to_string(g.num_inputs()) + " inputs per item, got " +
            std::to_string(inputs.size()));
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    prepare_lut_testvectors(g);
    // Discard any counts a previous run left unmerged (e.g. after a worker
    // threw), so the post-run merge reflects exactly this run.
    for (auto& w : workers_) {
      w->engine->counters().reset();
      w->busy_ns = 0;
      w->flushes = 0;
      w->max_flush_rotations = 0;
    }
    const int items = static_cast<int>(batch.size());
    const int num_nodes = g.num_nodes();
    std::vector<BatchResult> results(batch.size());
    for (int b = 0; b < items; ++b) {
      results[b].values.resize(num_nodes);
      results[b].value_ok.assign(static_cast<size_t>(num_nodes), 0);
      for (int i = 0; i < g.num_inputs(); ++i) {
        results[b].values[g.inputs()[i]] = std::move(batch[b][i]);
        results[b].value_ok[static_cast<size_t>(g.inputs()[i])] = 1;
      }
      for (int i = 0; i < num_nodes; ++i) {
        const GateNode& n = g.nodes()[i];
        if (n.is_const) {
          results[b].values[i] = constant_bit(bk_.n_lwe, mu_, n.const_value);
          results[b].value_ok[static_cast<size_t>(i)] = 1;
        }
      }
    }

    // Per-item fault ledger. Tasks of the same item can fault concurrently
    // on different workers; the mutex keeps "first failure wins" exact.
    // Validity flags themselves need no locking: each (item, node) value has
    // exactly one writer (the task that owns the node for that group), and
    // readers only reach it through the acquire side of the readiness
    // refcount that writer released.
    std::mutex fault_mu;
    std::vector<Status> item_status(static_cast<size_t>(items));
    const auto fail_item = [&](int b, Status st) {
      std::lock_guard<std::mutex> lk(fault_mu);
      auto& slot = item_status[static_cast<size_t>(b)];
      if (slot.ok()) slot = std::move(st);
    };

    // Task space: (item group x gate). All items of a group finish a gate in
    // the same task, so their consumers' operands complete together and one
    // readiness refcount per (group, gate) suffices -- seeded from the plain
    // gate indegree exactly as in the ungrouped executor. Completion
    // decrements each consumer's count with acquire-release ordering, so the
    // worker that drops a count to zero has observed every operand
    // ciphertext the earlier decrementers wrote. Rebuilt per run on purpose:
    // it costs microseconds against the batch's millisecond-scale
    // bootstraps, and caching it on the graph's address would silently go
    // stale if the caller appends gates between runs.
    const int group_size = ks_group_for(items);
    const int num_groups = (items + group_size - 1) / group_size;
    const DataflowInfo flow = g.dataflow_info();
    std::vector<std::atomic<int>> pending(
        static_cast<size_t>(num_groups) * static_cast<size_t>(num_nodes));
    std::vector<uint64_t> seeds;
    for (int grp = 0; grp < num_groups; ++grp) {
      const uint64_t base = static_cast<uint64_t>(grp) * num_nodes;
      for (int i = 0; i < num_nodes; ++i) {
        if (!g.nodes()[i].is_gate()) continue;
        pending[base + i].store(flow.gate_indegree[i],
                                std::memory_order_relaxed);
        if (flow.gate_indegree[i] == 0) seeds.push_back(base + i);
      }
    }

    const int64_t total_tasks =
        static_cast<int64_t>(g.num_gates()) * num_groups;
    ThreadPool::TaskRunStats run_stats;
    run_stats.workers = 0; // stays 0 when there is nothing to dispatch
    if (total_tasks > 0) {
      const auto task_of = [&](uint64_t t) {
        const int grp = static_cast<int>(t / static_cast<uint64_t>(num_nodes));
        const int b0 = grp * group_size;
        return FlushTask{static_cast<int>(t % static_cast<uint64_t>(num_nodes)),
                         b0, std::min(items, b0 + group_size)};
      };
      // Upper bound of a task's blind rotations (every item of its group
      // live): what it may add to a flush.
      const auto rotations = [&](uint64_t t) {
        const FlushTask ft = task_of(t);
        return (ft.b1 - ft.b0) *
               bootstrap_cost(g.nodes()[static_cast<size_t>(ft.gate)].kind);
      };
      const auto task = [&](ThreadPool::TaskSink& sink, uint64_t t) {
        Worker& w = *workers_[static_cast<size_t>(sink.slot())];
        const auto g0 = std::chrono::steady_clock::now();
        // Coalesce: the popped task is the floor of the flush; more ready
        // tasks join from this worker's own deque while they fit the
        // rotation cap and the surplus rule leaves one per idle worker.
        w.flush.assign(1, task_of(t));
        int budget = kMaxFlushRotations - rotations(t);
        uint64_t more = 0;
        while (sink.take_local(more, [&](uint64_t c) {
          return rotations(c) <= budget;
        })) {
          budget -= rotations(more);
          w.flush.push_back(task_of(more));
        }
        // A fault anywhere in the flush must NOT escape to the pool: the
        // items whose outputs it did not produce are marked failed and the
        // consumer decrements below still run, so the rest of the batch
        // drains as if nothing happened -- that is the isolation contract.
        // The task-exception site models one task's own code throwing, so
        // it is checked per task and drops only that task.
        for (FlushTask& ft : w.flush) {
          ft.dropped = fault::should_fire(fault::kSiteTaskException);
          if (!ft.dropped) continue;
          for (int b = ft.b0; b < ft.b1; ++b) {
            fail_item(b, unavailable_status("injected worker-task exception"));
          }
        }
        try {
          eval_flush(w, g, results, fail_item);
        } catch (...) {
          const Status st = status_from_exception();
          for (const FlushTask& ft : w.flush) {
            for (int b = ft.b0; b < ft.b1; ++b) {
              if (!results[static_cast<size_t>(b)]
                       .value_ok[static_cast<size_t>(ft.gate)]) {
                fail_item(b, st);
              }
            }
          }
        }
        w.busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - g0)
                         .count();
        for (const FlushTask& ft : w.flush) {
          const uint64_t base =
              static_cast<uint64_t>(ft.b0 / group_size) * num_nodes;
          for (const int c : flow.consumers[static_cast<size_t>(ft.gate)]) {
            if (pending[base + c].fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
              sink.push(base + c);
            }
          }
        }
      };
      const auto deadline = deadline_.count() > 0
                                ? t0 + deadline_
                                : ThreadPool::kNoDeadline;
      run_stats = pool_.run_tasks(seeds, total_tasks, task, 1 << 30, deadline);
    }

    // Merge per-worker counters now that all workers are quiescent. The
    // retry pass below runs AFTER the merge on purpose: repair work is not
    // part of the batch's steady-state cost, and its counter deltas are
    // discarded by the next run's per-worker reset.
    int64_t busy_ns = 0;
    stats_.rotation_flushes = 0;
    stats_.max_flush_rotations = 0;
    for (auto& w : workers_) {
      merged_ += w->engine->counters();
      w->engine->counters().reset();
      busy_ns += w->busy_ns;
      stats_.rotation_flushes += w->flushes;
      stats_.max_flush_rotations =
          std::max(stats_.max_flush_rotations, w->max_flush_rotations);
    }

    // A tripped deadline leaves tasks unexecuted with no fault recorded;
    // every incomplete item gets a deadline Status and no retry (more work
    // is exactly what the deadline forbade).
    stats_.timed_out = run_stats.timed_out;
    for (int b = 0; b < items; ++b) {
      if (!item_status[static_cast<size_t>(b)].ok()) continue;
      if (!item_complete(g, results[static_cast<size_t>(b)])) {
        item_status[static_cast<size_t>(b)] =
            run_stats.timed_out
                ? deadline_exceeded_status(
                      "batch deadline tripped before this item completed")
                : internal_status("batch drained with this item incomplete");
      }
    }

    int faulted = 0;
    for (const auto& st : item_status) faulted += st.ok() ? 0 : 1;
    stats_.faulted_items = faulted;
    stats_.retry_runs = 0;
    if (faulted > 0 && !run_stats.timed_out && max_retries_ > 0) {
      retry_failed_items(g, results, item_status, fail_item);
    }
    int still_failed = 0;
    for (int b = 0; b < items; ++b) {
      results[static_cast<size_t>(b)].status =
          item_status[static_cast<size_t>(b)];
      still_failed += item_status[static_cast<size_t>(b)].ok() ? 0 : 1;
    }
    stats_.retried_items = faulted - still_failed;

    stats_.items = items;
    stats_.gates = static_cast<int64_t>(g.num_gates()) * items;
    stats_.bootstraps = g.bootstrap_count() * items;
    stats_.sample_extracts = g.extraction_count() * items;
    stats_.max_extraction_fanout = 0;
    for (size_t i = 0; i < g.nodes().size(); ++i) {
      const GateNode& n = g.nodes()[i];
      if (!n.is_gate()) continue;
      if (n.kind == GateKind::kLut) {
        stats_.max_extraction_fanout =
            std::max(stats_.max_extraction_fanout,
                     live_lut_outputs(static_cast<int>(i)));
      } else if (bootstrap_cost(n.kind) > 0) {
        stats_.max_extraction_fanout = std::max(stats_.max_extraction_fanout, 1);
      }
    }
    stats_.levels = static_cast<int>(g.wavefronts().size());
    stats_.pool_dispatches = total_tasks > 0 ? 1 : 0;
    stats_.workers = run_stats.workers;
    stats_.steals = run_stats.steals;
    stats_.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    stats_.sched_efficiency =
        stats_.wall_ms > 0 && run_stats.workers > 0
            ? (busy_ns * 1e-6) / (stats_.wall_ms * run_stats.workers)
            : 0;
    return results;
  }

  /// Aggregate engine counters across workers and runs, merged race-free on
  /// batch completion.
  const EngineCounters& counters() const { return merged_; }
  void reset_counters() { merged_.reset(); }
  const BatchStats& last_stats() const { return stats_; }

  /// Watchdog budget for one run_batch call (0 = no deadline). A tripped
  /// deadline cancels outstanding tasks cooperatively; incomplete items
  /// report kDeadlineExceeded instead of the batch hanging.
  void set_deadline(std::chrono::milliseconds d) { deadline_ = d; }
  /// Repair sweeps allowed after a faulted pool run (0 disables retry;
  /// each sweep recomputes only the invalid nodes of still-failed items).
  void set_max_retries(int n) { max_retries_ = std::max(0, n); }
  int max_retries() const { return max_retries_; }

 private:
  /// One (item group x gate) task inside a flush, plus where eval_flush
  /// staged it.
  struct FlushTask {
    int gate = 0;
    int b0 = 0, b1 = 0; ///< the group's batch items [b0, b1)
    int live0 = 0, live1 = 0; ///< its live items: Worker::live[live0, live1)
    int rot0 = 0;             ///< its first sample in the rotation flush
    bool dropped = false;     ///< an injected task exception removed it
  };

  struct Worker {
    std::unique_ptr<Engine> engine;
    BootstrapWorkspace<Engine> ws;
    int64_t busy_ns = 0; ///< time inside gate kernels during the last run
    int64_t flushes = 0; ///< blind-rotation flushes during the last run
    int max_flush_rotations = 0;
    /// The tasks of the flush being evaluated.
    std::vector<FlushTask> flush;
    // Flush scratch, grow-only and reused across flushes: the samples'
    // linear-combination inputs (their test vectors go in
    // ws.batch_testv), the pre-keyswitch N-LWE
    // staging of every extracted output, MUX's second-branch extraction,
    // and the digit workspace of the batched keyswitch.
    std::vector<LweSample> combo;
    std::vector<const LweSample*> bs_in;
    std::vector<LweSample> stage;
    LweSample mux_u2;
    std::vector<const LweSample*> ks_in;
    std::vector<LweSample*> ks_out;
    std::vector<std::pair<int, int>> ks_mark; ///< (item, wire) per ks_out
    KeySwitchWorkspace ks_ws;
    /// Live items of the flush's tasks (operands valid; see eval_flush).
    std::vector<int> live;

    Worker(std::unique_ptr<Engine> eng, const GadgetParams& gadget)
        : engine(std::move(eng)), ws(*engine, gadget) {}
  };

  /// The (item group x gate) task and its group size are the floor of a
  /// flush: a gate's group is never split, even when one task alone holds
  /// more than kMaxFlushRotations samples (a MUX over a group of 8 is 16).
  /// Larger groups amortize both keys further but starve the scheduler when
  /// a level is one task per group (a carry chain), so the group stays
  /// items / num_threads up to kKsGroupTarget and coalescing adds ready
  /// tasks on top instead.
  static constexpr int kKsGroupTarget = 8;
  int ks_group_for(int items) const {
    return std::max(1, std::min(kKsGroupTarget, items / pool_.num_threads()));
  }

  /// Most blind-rotation samples a coalesced flush may gather (a MUX task
  /// counts 2 per item). Chosen from the per-sample time of whole flushes
  /// (staging, blind rotation, extraction, keyswitch) measured inside this
  /// executor with the cap at 16, security110, 4 threads of a 4-core
  /// AVX-512 host: m = 1 (batch_muxtree_m1) 11.9-12.2 ms at B = 2,
  /// 10.5-11.7 at B = 4, 10.5-10.8 at B = 8, 11.0-11.3 at B = 16; m = 3
  /// (batch_max16_m3) 9.0-9.6 ms at B = 4, 7.6-8.0 at B = 8, 7.7-8.3 at
  /// B = 16. The cost stops falling at 8 for both unroll factors, and the
  /// larger flushes only lengthen the critical path.
  static constexpr int kMaxFlushRotations = 8;

  /// True iff every gate node of `r` holds a valid value.
  static bool item_complete(const GateGraph& g, const BatchResult& r) {
    for (size_t i = 0; i < r.value_ok.size(); ++i) {
      if (g.nodes()[i].is_gate() && !r.value_ok[i]) return false;
    }
    return true;
  }

  /// Injected-bit-flip site of the keyswitch flush. The model is a
  /// physical upset the runtime's integrity check traps: the victim's fresh
  /// ciphertext (the flush's first key-switched output) is corrupted AND
  /// detected, so the value is invalidated and the item reports kDataLoss
  /// (retry recomputes it) -- never a wrong plaintext presented as success.
  template <class FailFn>
  void maybe_flip_keyswitch_output(const Worker& w,
                                   std::vector<BatchResult>& results,
                                   const FailFn& fail_item) {
    if (w.ks_mark.empty() ||
        !fault::should_fire(fault::kSiteKeyswitchBitflip)) {
      return;
    }
    const auto [victim, wire] = w.ks_mark.front();
    auto& r = results[static_cast<size_t>(victim)];
    auto& c = r.values[static_cast<size_t>(wire)];
    if (!c.a.empty()) c.a[0] ^= 1u << 30;
    r.value_ok[static_cast<size_t>(wire)] = 0;
    fail_item(victim,
              data_loss_status("post-keyswitch ciphertext failed its "
                               "integrity check (injected bit flip)"));
  }

  /// Bounded repair: recompute only the invalid nodes of each failed item,
  /// on the caller's slot (slot 0 -- the caller IS pool slot 0, so engine
  /// and workspace affinity are preserved). Node order is topological, so a
  /// single in-order sweep per item rebuilds its cone; a fresh fault during
  /// a sweep stops that item (partial progress survives in value_ok) and
  /// the next sweep continues from there, up to max_retries_ sweeps.
  template <class FailFn>
  void retry_failed_items(const GateGraph& g, std::vector<BatchResult>& results,
                          std::vector<Status>& item_status,
                          const FailFn& fail_item) {
    Worker& w0 = *workers_.front();
    for (int pass = 0; pass < max_retries_; ++pass) {
      ++stats_.retry_runs;
      bool any_failed = false;
      for (int b = 0; b < static_cast<int>(item_status.size()); ++b) {
        if (item_status[static_cast<size_t>(b)].ok()) continue;
        item_status[static_cast<size_t>(b)] = Status(); // this pass's verdict
        auto& r = results[static_cast<size_t>(b)];
        for (int i = 0; i < g.num_nodes(); ++i) {
          const GateNode& n = g.nodes()[static_cast<size_t>(i)];
          if (!n.is_gate() || r.value_ok[static_cast<size_t>(i)]) continue;
          // An invalid kLutOut means its parent LUT is stuck (the parent's
          // recompute writes every live output); nothing below it can run.
          if (n.kind == GateKind::kLutOut) break;
          bool operands_ok = true;
          for (int j = 0; j < n.fan_in(); ++j) {
            operands_ok =
                operands_ok && r.value_ok[static_cast<size_t>(n.in[j])] != 0;
          }
          if (!operands_ok) break;
          try {
            w0.flush.assign(1, FlushTask{i, b, b + 1});
            eval_flush(w0, g, results, fail_item);
          } catch (...) {
            fail_item(b, status_from_exception());
          }
          if (!r.value_ok[static_cast<size_t>(i)]) break; // fresh fault
        }
        if (!item_complete(g, r)) {
          if (item_status[static_cast<size_t>(b)].ok()) {
            item_status[static_cast<size_t>(b)] = unavailable_status(
                "item incomplete after a repair sweep");
          }
          any_failed = true;
        }
      }
      if (!any_failed) return;
    }
  }

  /// Evaluate the worker's flush -- every task's gate for its *live* batch
  /// items, those whose operands are all valid (items a fault already
  /// sidelined are skipped; their failure was recorded when the operand's
  /// producer faulted) -- in one pass over each key:
  ///   1. stage every task: NOT and free-OR complete here (no bootstrap);
  ///      each bootstrapped item gets its linear combination and test
  ///      vector (the constant ws.testv for gates and both MUX branches,
  ///      the node's LUT vector for kLut);
  ///   2. ONE group-major blind_rotate_batch over all staged samples, so
  ///      the bootstrapping key streams once per flush;
  ///   3. per task, the extractions: a gate at offset 0, a MUX both
  ///      branches + mux_combine, a LUT at each live output's offset;
  ///   4. ONE key_switch_batch over every extracted output;
  ///   5. the validity marks.
  /// A sample's result does not depend on what it is flushed with, so
  /// every output is bit-identical to GateEvaluator's immediate mode --
  /// whatever tasks, groups and live subsets share the flush.
  template <class FailFn>
  void eval_flush(Worker& w, const GateGraph& g,
                  std::vector<BatchResult>& results, const FailFn& fail_item) {
    const auto node = [&](const FlushTask& t) -> const GateNode& {
      return g.nodes()[static_cast<size_t>(t.gate)];
    };
    // 1. Stage.
    w.live.clear();
    int nrot = 0;
    size_t nout = 0;
    for (FlushTask& t : w.flush) {
      const GateNode& n = node(t);
      t.live0 = static_cast<int>(w.live.size());
      t.rot0 = nrot;
      // A kLutOut's parent task already extracted and key-switched this
      // output into its result slot (the parent runs first: this node's
      // readiness refcount counts it as an operand). Nothing to compute.
      if (n.kind != GateKind::kLutOut && !t.dropped) {
        for (int b = t.b0; b < t.b1; ++b) {
          const auto& ok = results[static_cast<size_t>(b)].value_ok;
          bool operands_ok = true;
          for (int j = 0; j < n.fan_in(); ++j) {
            operands_ok = operands_ok && ok[static_cast<size_t>(n.in[j])] != 0;
          }
          if (operands_ok) w.live.push_back(b);
        }
      }
      t.live1 = static_cast<int>(w.live.size());
      const int count = t.live1 - t.live0;
      const int cost = bootstrap_cost(n.kind);
      if (cost > 0) {
        nrot += count * cost;
        nout += static_cast<size_t>(count) *
                (n.kind == GateKind::kLut ? live_lut_outputs(t.gate) : 1);
        continue;
      }
      // NOT and free-OR complete here (a kLutOut or a dropped task has no
      // live items).
      for (int k = t.live0; k < t.live1; ++k) {
        auto& res = results[static_cast<size_t>(w.live[static_cast<size_t>(k)])];
        LweSample r = res.values[n.in[0]];
        if (n.kind == GateKind::kNot) {
          r.negate();
        } else {
          // Disjoint OR of two ciphertexts: a plain addition plus the
          // trivial +mu offset (both-false sums to -mu, exactly-one-true
          // to +mu; the compiler guarantees both-true is unreachable).
          r += res.values[n.in[1]];
          r.b += mu_;
        }
        res.values[static_cast<size_t>(t.gate)] = std::move(r);
        res.value_ok[static_cast<size_t>(t.gate)] = 1;
      }
    }
    if (nrot == 0) return;
    if (fault::should_fire(fault::kSiteArenaAllocFail)) {
      throw fault::FaultInjected(
          fault::kSiteArenaAllocFail,
          resource_exhausted_status(
              "worker staging arena allocation failed (injected)"));
    }
    const size_t nr = static_cast<size_t>(nrot);
    if (w.combo.size() < nr) w.combo.resize(nr);
    if (w.stage.size() < nout) w.stage.resize(nout);
    w.bs_in.resize(nr);
    w.ws.batch_testv.resize(nr);
    set_gate_testv(w.ws, mu_, bk_.gadget);
    for (const FlushTask& t : w.flush) {
      const GateNode& n = node(t);
      if (bootstrap_cost(n.kind) == 0) continue;
      const int count = t.live1 - t.live0;
      const TorusPolynomial* tv =
          n.kind == GateKind::kLut ? node_testv_[static_cast<size_t>(t.gate)]
                                   : &w.ws.testv;
      for (int k = 0; k < count; ++k) {
        const auto& v =
            results[static_cast<size_t>(w.live[static_cast<size_t>(t.live0 + k)])]
                .values;
        const size_t s = static_cast<size_t>(t.rot0 + k);
        w.ws.batch_testv[s] = tv;
        if (n.kind == GateKind::kMux) {
          // Both branch bootstraps ride the flush: u1 at rot0 + k, u2 at
          // rot0 + count + k (tfhe/gate_ops.h).
          const size_t s2 = s + static_cast<size_t>(count);
          mux_branch_inputs(v[n.in[0]], v[n.in[1]], v[n.in[2]], mu_,
                            w.combo[s], w.combo[s2]);
          w.ws.batch_testv[s2] = tv;
        } else if (n.kind == GateKind::kLut) {
          // One weighted linear combination + one functional bootstrap per
          // item, however many Boolean gates the cone replaced.
          std::array<const LweSample*, 4> ins{};
          for (int j = 0; j < n.fan_in(); ++j) {
            ins[static_cast<size_t>(j)] = &v[n.in[j]];
          }
          w.combo[s] = lut_cone_input(
              n.lut,
              std::span<const LweSample* const>(
                  ins.data(), static_cast<size_t>(n.fan_in())),
              bk_.n_lwe);
        } else {
          w.combo[s] = binary_gate_input(n.kind, v[n.in[0]], v[n.in[1]], mu_,
                                         bk_.n_lwe);
        }
      }
    }
    for (size_t s = 0; s < nr; ++s) w.bs_in[s] = &w.combo[s];

    // 2. Rotate. The bootstrapping key is shared read-only; a corrupted row
    // cannot be written into it. The modeled failure is a *detected*
    // corruption of the streamed row (ECC/checksum trap in hardware terms):
    // the whole flush is abandoned before rotation, its items retry.
    if (fault::should_fire(fault::kSiteBskRowCorrupt)) {
      throw fault::FaultInjected(
          fault::kSiteBskRowCorrupt,
          data_loss_status("bootstrap-key row failed its stream integrity "
                           "check (injected corruption)"));
    }
    blind_rotate_batch(*w.engine, bk_, w.bs_in.data(), nrot,
                       w.ws.batch_testv.data(), w.ws, mode_);
    ++w.flushes;
    w.max_flush_rotations = std::max(w.max_flush_rotations, nrot);

    // 3. Extract every live output into the keyswitch staging.
    w.ks_out.clear();
    w.ks_mark.clear();
    const auto out_slot = [&](int b, int wire) -> LweSample& {
      w.ks_out.push_back(&results[static_cast<size_t>(b)]
                              .values[static_cast<size_t>(wire)]);
      w.ks_mark.emplace_back(b, wire);
      return w.stage[w.ks_out.size() - 1];
    };
    int64_t extracts = 0;
    for (const FlushTask& t : w.flush) {
      const GateNode& n = node(t);
      if (bootstrap_cost(n.kind) == 0) continue;
      const int count = t.live1 - t.live0;
      const auto acc = [&](int slot) -> const TLweSample& {
        return w.ws.batch_acc[static_cast<size_t>(t.rot0 + slot)];
      };
      const auto item = [&](int k) {
        return w.live[static_cast<size_t>(t.live0 + k)];
      };
      if (n.kind == GateKind::kLut) {
        // The primary (this wire, offset 0) plus every kLutOut child the
        // compiled graph kept; output j's extraction offset is
        // slot_shift * (ring N / slots), one test-vector band per slot.
        const auto& out_wires = lut_out_wires_[static_cast<size_t>(t.gate)];
        const int band = w.engine->ring_n() / n.lut.slots();
        for (int j = 0; j < n.lut.n_out; ++j) {
          const int wire = out_wires[static_cast<size_t>(j)];
          if (wire < 0) continue; // dead-eliminated extraction: free
          for (int k = 0; k < count; ++k) {
            sample_extract_at(acc(k), n.lut.output(j).slot_shift * band,
                              out_slot(item(k), wire));
          }
          extracts += count;
        }
        continue;
      }
      for (int k = 0; k < count; ++k) {
        LweSample& u = out_slot(item(k), t.gate);
        sample_extract_into(acc(k), u);
        if (n.kind == GateKind::kMux) {
          sample_extract_into(acc(count + k), w.mux_u2);
          mux_combine(u, w.mux_u2, mu_);
        }
      }
      extracts += static_cast<int64_t>(count) * bootstrap_cost(n.kind);
    }
    w.engine->counters().sample_extracts += extracts;

    // 4. One keyswitch flush: the keyswitch key streams once for every
    // output (bit-identical to per-output key_switch -- exact mod-2^32).
    const size_t nks = w.ks_out.size();
    w.ks_in.resize(nks);
    for (size_t i = 0; i < nks; ++i) w.ks_in[i] = &w.stage[i];
    key_switch_batch(ks_, w.ks_in.data(), w.ks_out.data(),
                     static_cast<int>(nks), w.ks_ws);

    // 5. Validity marks.
    for (const auto& [b, wire] : w.ks_mark) {
      results[static_cast<size_t>(b)].value_ok[static_cast<size_t>(wire)] = 1;
    }
    maybe_flip_keyswitch_output(w, results, fail_item);
  }

  /// Extractions a kLut node feeds: the primary plus its kept kLutOut
  /// children (lut_out_wires_).
  int live_lut_outputs(int id) const {
    int live = 0;
    for (const int ow : lut_out_wires_[static_cast<size_t>(id)]) {
      live += ow >= 0 ? 1 : 0;
    }
    return live;
  }

  /// Resolve (building on demand) the LUT test vectors the graph needs, plus
  /// the per-node pointers the worker hot loop reads; workers read both
  /// concurrently but never mutate them. The vector cache persists across
  /// run_batch calls -- test vectors depend only on the slot values and the
  /// ring size, so repeated runs (the batch-server steady state) skip the
  /// polynomial builds entirely; it is invalidated only if the ring size
  /// ever changes.
  void prepare_lut_testvectors(const GateGraph& g) {
    const int ring_n = workers_.front()->engine->ring_n();
    if (ring_n != lut_testv_ring_n_) {
      lut_testv_.clear();
      lut_testv_ring_n_ = ring_n;
    }
    node_testv_.assign(g.nodes().size(), nullptr);
    lut_out_wires_.assign(g.nodes().size(),
                          std::array<int, kLutMaxOutputs>{-1, -1, -1, -1});
    for (size_t i = 0; i < g.nodes().size(); ++i) {
      const GateNode& n = g.nodes()[i];
      if (!n.is_gate()) continue;
      if (n.kind == GateKind::kLutOut) {
        // Index this extraction on its parent so the parent's single task
        // can key-switch every live output in one flush.
        lut_out_wires_[static_cast<size_t>(n.in[0])][static_cast<size_t>(
            n.aux)] = static_cast<int>(i);
        continue;
      }
      if (n.kind != GateKind::kLut) continue;
      lut_out_wires_[i][0] = static_cast<int>(i); // primary always live
      // The LUT slot encodings are anchored on the standard gate amplitude
      // (in_amp_log = 3 means mu); a nonstandard mu would silently misalign
      // every slot.
      if (mu_ != torus_fraction(1, 8)) {
        throw std::invalid_argument(
            "BatchExecutor: LUT nodes require the standard gate amplitude "
            "mu = 1/8");
      }
      // The slot-value vector is the rotation's full encoding -- grid,
      // tables, shifts, and per-output amplitudes all round-trip through it
      // -- so it is the complete cache key (two specs with equal slot values
      // rotate identically).
      std::vector<Torus32> slots = lut_slot_values(n.lut);
      auto it = lut_testv_.find(slots);
      if (it == lut_testv_.end()) {
        TorusPolynomial tv = make_lut_testvector(ring_n, slots);
        it = lut_testv_.emplace(std::move(slots), std::move(tv)).first;
      }
      node_testv_[i] = &it->second;
    }
  }

  const DeviceBootstrapKey<Engine>& bk_;
  const KeySwitchKey& ks_;
  Torus32 mu_;
  BlindRotateMode mode_;
  std::chrono::milliseconds deadline_{0};
  int max_retries_ = 4;
  ThreadPool pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
  EngineCounters merged_;
  BatchStats stats_;
  /// Cross-run cache of LUT test vectors, keyed by their slot values, plus a
  /// per-run node-id -> test-vector pointer index for the worker hot loop
  /// (both read-only while workers are in flight; std::map nodes are stable,
  /// so cached pointers survive later insertions).
  std::map<std::vector<Torus32>, TorusPolynomial> lut_testv_;
  int lut_testv_ring_n_ = -1;
  std::vector<const TorusPolynomial*> node_testv_;
  /// Per kLut node: the executed graph's wire carrying each output index
  /// (-1 when that extraction was dead-eliminated). Rebuilt per run.
  std::vector<std::array<int, kLutMaxOutputs>> lut_out_wires_;
};

} // namespace matcha::exec
