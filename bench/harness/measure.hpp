// Templated measurement core: runs one (queue, workload, thread-count) point
// and returns throughput plus memory counters.
//
// Queue concept (provided by harness/adapters.hpp wrappers):
//   struct Adapter {
//     static constexpr const char* kName;
//     using Queue = ...;
//     static Queue* create();            // fresh instance, paper parameters
//     static void destroy(Queue*);
//     static bool enqueue(Queue&, u64);  // false = full (retried by workload)
//     static bool dequeue(Queue&, u64&); // false = empty
//     // Optional batch path, used when BenchParams::batch > 1:
//     static std::size_t enqueue_bulk(Queue&, const u64*, std::size_t);
//     static std::size_t dequeue_bulk(Queue&, u64*, std::size_t);
//     // Optional explicit-session path (DESIGN.md §10): when attach() is
//     // present every operation takes the handle instead; each worker
//     // attaches once, outside the measured loop.
//     static Handle attach(Queue&);
//     static bool enqueue(Queue&, Handle&, u64);
//     static bool dequeue(Queue&, Handle&, u64&);
//   };
//
// Accounting contract: every workload loop counts the operations it actually
// attempted (a full/empty attempt counts, exactly as in the paper's
// methodology; an operation the loop never issued does not), each worker
// returns its count, and the reported throughput divides the summed executed
// ops — never the requested `p.ops` — by the wall time. Memory counters are
// sampled per run and summarized across runs like the throughput samples.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/alloc_meter.hpp"
#include "common/cpu.hpp"
#include "common/op_counters.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harness/workloads.hpp"
#include "reclaim/hazard_pointers.hpp"

namespace wcq::bench {

using u64 = std::uint64_t;

struct PointResult {
  unsigned threads = 0;
  Summary mops;        // millions of executed operations per second, per run
  Summary live_bytes;  // allocator-live delta after each run
  Summary peak_bytes;  // allocator peak during each run
  Summary rss_bytes;   // process RSS sampled after each run
  Summary allocs;      // metered allocation events per run (count, not bytes;
                       // includes queue construction — a recycling queue's
                       // count converges to its warm-up allocations while a
                       // churning one keeps growing with ops)
  Summary ring_faa;    // shared Head/Tail F&As per executed logical op
                       // (opcount; the magazine amortization metric —
                       // wall-clock-independent, so meaningful on 1-core CI)
  Summary ring_thld;   // shared Threshold RMWs/stores per executed op
  Summary registry;    // ThreadRegistry tid()/high_water() lookups per op
                       // (the session-handle metric, DESIGN.md §10; the CI
                       // gate holds the handle path at ≤1 per op)
  Summary remote_steal;  // ShardedQueue ops completed on a remote node's
                         // shard, per executed op (DESIGN.md §12; 0 for
                         // non-sharded queues, and the node-partitioned CI
                         // gate holds node:<k> placement at exactly 0)
  // Per-node throughput, node_mops[k] = Mops executed by workers placed on
  // node k under the pin policy (empty when unpinned: placement unknown).
  std::vector<Summary> node_mops;
};

namespace detail {

inline void tiny_random_delay(Xoshiro256& rng, unsigned max_spins) {
  const u64 spins = rng.bounded(max_spins + 1);
  for (u64 i = 0; i < spins; ++i) cpu_relax();
}

template <typename Adapter, typename = void>
struct AdapterHasBulk : std::false_type {};
template <typename Adapter>
struct AdapterHasBulk<
    Adapter,
    std::void_t<decltype(Adapter::enqueue_bulk(
                    std::declval<typename Adapter::Queue&>(),
                    static_cast<const u64*>(nullptr), std::size_t{0})),
                decltype(Adapter::dequeue_bulk(
                    std::declval<typename Adapter::Queue&>(),
                    static_cast<u64*>(nullptr), std::size_t{0}))>>
    : std::true_type {};

// Explicit-session adapters (DESIGN.md §10) expose `attach(Queue&)` and
// handle-taking operations; each worker attaches once, outside the measured
// loop, exactly as a thread-pool worker would hold a session.
template <typename Adapter, typename = void>
struct AdapterHasHandle : std::false_type {};
template <typename Adapter>
struct AdapterHasHandle<
    Adapter, std::void_t<decltype(Adapter::attach(
                 std::declval<typename Adapter::Queue&>()))>>
    : std::true_type {};

template <typename Adapter, typename = void>
struct AdapterHasHandleBulk : std::false_type {};
template <typename Adapter>
struct AdapterHasHandleBulk<
    Adapter,
    std::void_t<decltype(Adapter::enqueue_bulk(
                    std::declval<typename Adapter::Queue&>(),
                    std::declval<decltype(Adapter::attach(
                        std::declval<typename Adapter::Queue&>()))&>(),
                    static_cast<const u64*>(nullptr), std::size_t{0}))>>
    : std::true_type {};

// One worker's operation surface: the queue plus, for handle adapters, the
// session attached for this worker's lifetime. The workload loops are
// written against this so the same code measures both calling conventions.
template <typename Adapter, bool = AdapterHasHandle<Adapter>::value>
struct OpsCtx {
  typename Adapter::Queue& q;
  static constexpr bool kBulk = AdapterHasBulk<Adapter>::value;
  explicit OpsCtx(typename Adapter::Queue& queue) : q(queue) {}
  bool enqueue(u64 v) { return Adapter::enqueue(q, v); }
  bool dequeue(u64& out) { return Adapter::dequeue(q, out); }
  std::size_t enqueue_bulk(const u64* v, std::size_t n) {
    return Adapter::enqueue_bulk(q, v, n);
  }
  std::size_t dequeue_bulk(u64* out, std::size_t n) {
    return Adapter::dequeue_bulk(q, out, n);
  }
};

template <typename Adapter>
struct OpsCtx<Adapter, true> {
  typename Adapter::Queue& q;
  decltype(Adapter::attach(std::declval<typename Adapter::Queue&>())) h;
  static constexpr bool kBulk = AdapterHasHandleBulk<Adapter>::value;
  explicit OpsCtx(typename Adapter::Queue& queue)
      : q(queue), h(Adapter::attach(queue)) {}
  bool enqueue(u64 v) { return Adapter::enqueue(q, h, v); }
  bool dequeue(u64& out) { return Adapter::dequeue(q, h, out); }
  std::size_t enqueue_bulk(const u64* v, std::size_t n) {
    return Adapter::enqueue_bulk(q, h, v, n);
  }
  std::size_t dequeue_bulk(u64* out, std::size_t n) {
    return Adapter::dequeue_bulk(q, h, out, n);
  }
};

// Per-workload loops. Each returns the number of operations it executed;
// `my_ops` is the exact quota this worker was assigned (measure_point spreads
// the p.ops % threads remainder instead of dropping it).
template <typename Adapter>
u64 worker_body(OpsCtx<Adapter>& ops, const BenchParams& p, u64 my_ops,
                unsigned thread_index, unsigned run) {
  // Mix the run index into the seed so repeated runs of one point do not
  // replay identical coin-flip/delay sequences (which made the run-to-run
  // spread a fiction for the random workloads).
  Xoshiro256 rng{0x1234567ULL * (thread_index + 1) +
                 0x9e3779b97f4a7c15ULL * run};
  const u64 payload = thread_index % 16;
  // Batch staging buffers. Enqueue payloads are constant; the dequeue buffer
  // is scratch. Sized by the parse()-enforced kMaxBatch clamp.
  const u64 batch = p.batch > 1 ? p.batch : 1;
  u64 enq_buf[BenchParams::kMaxBatch];
  u64 deq_buf[BenchParams::kMaxBatch];
  for (u64 i = 0; i < batch; ++i) enq_buf[i] = payload;
  constexpr bool kBulk = OpsCtx<Adapter>::kBulk;

  u64 executed = 0;
  switch (p.workload) {
    case Workload::kPairs: {
      u64 i = 0;
      if constexpr (kBulk) {
        // Per-thread ledger of enqueued-minus-dequeued. A bulk dequeue can
        // transiently return fewer than its span (contended ranks yield
        // nothing; the elements sit at later ranks), while ring bulk
        // enqueues insert everything — without compensation that shortfall
        // accumulates run-long and can push ring occupancy past the
        // "at most capacity() live indices" precondition. The ledger
        // credits actual insertions (value queues may accept fewer) and is
        // drained whenever it reaches 2*batch, capping this thread's
        // occupancy contribution; a zero-yield drain means other threads
        // consumed the elements (no occupancy risk), so it stops rather
        // than spin. Drain attempts are real dequeues and count as
        // executed ops.
        u64 outstanding = 0;
        for (; batch > 1 && i + 2 * batch <= my_ops; i += 2 * batch) {
          outstanding += ops.enqueue_bulk(enq_buf, batch);
          const u64 span = outstanding < batch ? outstanding : batch;
          const u64 got = span > 0 ? ops.dequeue_bulk(deq_buf, span) : 0;
          outstanding -= got < outstanding ? got : outstanding;
          executed += batch + span;
          while (outstanding >= 2 * batch) {
            const u64 g2 = ops.dequeue_bulk(deq_buf, batch);
            executed += batch;
            if (g2 == 0) break;
            outstanding -= g2 < outstanding ? g2 : outstanding;
          }
        }
      }
      for (; i + 1 < my_ops; i += 2) {
        while (!ops.enqueue(payload)) cpu_relax();
        u64 out;
        (void)ops.dequeue(out);
        executed += 2;
      }
      if (i < my_ops) {  // odd quota: the final op is a lone enqueue
        while (!ops.enqueue(payload)) cpu_relax();
        executed += 1;
      }
      break;
    }
    case Workload::kP5050: {
      for (u64 i = 0; i < my_ops;) {
        const u64 span = batch < my_ops - i ? batch : my_ops - i;
        if constexpr (kBulk) {
          if (span > 1) {
            if (rng.coin()) {
              (void)ops.enqueue_bulk(enq_buf, span);  // full = attempt
            } else {
              (void)ops.dequeue_bulk(deq_buf, span);
            }
            executed += span;
            i += span;
            continue;
          }
        }
        if (rng.coin()) {
          (void)ops.enqueue(payload);  // full counts as an attempt
        } else {
          u64 out;
          (void)ops.dequeue(out);
        }
        ++executed;
        ++i;
      }
      break;
    }
    case Workload::kEmptyDeq: {
      for (u64 i = 0; i < my_ops;) {
        const u64 span = batch < my_ops - i ? batch : my_ops - i;
        if constexpr (kBulk) {
          if (span > 1) {
            (void)ops.dequeue_bulk(deq_buf, span);
            executed += span;
            i += span;
            continue;
          }
        }
        u64 out;
        (void)ops.dequeue(out);
        ++executed;
        ++i;
      }
      break;
    }
    case Workload::kMemory: {
      // Deliberately single-op regardless of batch: the tiny delays between
      // individual operations are the point of the Fig 10 configuration.
      for (u64 i = 0; i < my_ops; ++i) {
        if (rng.coin()) {
          (void)ops.enqueue(payload);
        } else {
          u64 out;
          (void)ops.dequeue(out);
        }
        ++executed;
        tiny_random_delay(rng, p.max_delay_spins);
      }
      break;
    }
    case Workload::kBurst: {
      // Producer phase of `batch` enqueues, then a consumer phase draining
      // the same span: bursty occupancy with backpressure at the full/empty
      // edges. Attempts count whether or not the queue accepted them. The
      // bulk path keeps the same insertion ledger as kPairs — ring adapters
      // never report full, so a systematic dequeue shortfall would
      // otherwise ratchet occupancy up run-long.
      u64 outstanding = 0;
      for (u64 i = 0; i < my_ops;) {
        const u64 eb = batch < my_ops - i ? batch : my_ops - i;
        if constexpr (kBulk) {
          if (eb > 1) {
            outstanding += ops.enqueue_bulk(enq_buf, eb);
          } else if (ops.enqueue(payload)) {
            ++outstanding;
          }
        } else {
          for (u64 k = 0; k < eb; ++k) (void)ops.enqueue(payload);
        }
        executed += eb;
        i += eb;
        const u64 db = batch < my_ops - i ? batch : my_ops - i;
        if (db == 0) break;
        if constexpr (kBulk) {
          u64 got = 0;
          if (db > 1) {
            got = ops.dequeue_bulk(deq_buf, db);
          } else {
            u64 out;
            got = ops.dequeue(out) ? 1 : 0;
          }
          outstanding -= got < outstanding ? got : outstanding;
        } else {
          for (u64 k = 0; k < db; ++k) {
            u64 out;
            (void)ops.dequeue(out);
          }
        }
        executed += db;
        i += db;
        if constexpr (kBulk) {
          while (outstanding >= 4 * batch) {
            const u64 g2 = ops.dequeue_bulk(deq_buf, batch);
            executed += batch;
            if (g2 == 0) break;  // consumed elsewhere: no occupancy risk
            outstanding -= g2 < outstanding ? g2 : outstanding;
          }
        }
      }
      break;
    }
  }
  return executed;
}

}  // namespace detail

template <typename Adapter>
PointResult measure_point(const BenchParams& p, unsigned threads) {
  // The global hazard domain's (metered) tables are built on first use;
  // force that outside the measured window so the first hazard-using
  // series does not absorb a one-time charge into its run-0 samples.
  (void)HazardDomain::global();
  const Topology& topo = Topology::instance();
  const Topology::PinSpec pin_spec =
      Topology::parse_pin_spec(p.pin_policy).value_or(Topology::PinSpec{});
  // Per-node attribution needs a known placement; unpinned workers float.
  const unsigned node_buckets = p.pin ? topo.node_count() : 0;
  PointResult result;
  result.threads = threads;
  std::vector<double> mops_samples, live_samples, peak_samples, rss_samples,
      alloc_samples, faa_samples, thld_samples, reg_samples, steal_samples;
  std::vector<std::vector<double>> node_samples(node_buckets);
  mops_samples.reserve(p.runs);
  live_samples.reserve(p.runs);
  peak_samples.reserve(p.runs);
  rss_samples.reserve(p.runs);
  alloc_samples.reserve(p.runs);
  faa_samples.reserve(p.runs);
  thld_samples.reserve(p.runs);
  reg_samples.reserve(p.runs);
  steal_samples.reserve(p.runs);

  for (unsigned run = 0; run < p.runs; ++run) {
    alloc_meter::reset_peak();
    const std::int64_t live_before = alloc_meter::live_bytes();
    const std::int64_t allocs_before = alloc_meter::total_allocations();
    typename Adapter::Queue* q = Adapter::create();

    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    // Exact quota split: the first (p.ops % threads) workers take one extra
    // op, so requested and assigned totals match.
    const u64 per_thread = p.ops / threads;
    const u64 remainder = p.ops % threads;
    std::vector<u64> executed(threads, 0);
    std::vector<u64> faa_delta(threads, 0), thld_delta(threads, 0),
        reg_delta(threads, 0), steal_delta(threads, 0);
    std::vector<std::thread> ts;
    ts.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        if (p.pin) pin_thread(t, pin_spec, topo);
        const u64 my_ops = per_thread + (t < remainder ? 1 : 0);
        // Session attach (handle adapters) happens here, outside the
        // measured window and the counter snapshots: a pool worker pays it
        // once per worker lifetime, not per operation.
        detail::OpsCtx<Adapter> ops(*q);
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) cpu_relax();
        const opcount::Counters before = opcount::snapshot();
        executed[t] = detail::worker_body<Adapter>(ops, p, my_ops, t, run);
        const opcount::Counters after = opcount::snapshot();
        faa_delta[t] = after.faa - before.faa;
        thld_delta[t] = after.threshold - before.threshold;
        reg_delta[t] = after.registry - before.registry;
        steal_delta[t] = after.remote_steal - before.remote_steal;
      });
    }
    while (ready.load(std::memory_order_acquire) < threads) cpu_relax();
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : ts) t.join();
    const auto t1 = std::chrono::steady_clock::now();

    const double secs = std::chrono::duration<double>(t1 - t0).count();
    u64 total_ops = 0;
    for (const u64 e : executed) total_ops += e;
    mops_samples.push_back(static_cast<double>(total_ops) / secs / 1e6);

    u64 total_faa = 0, total_thld = 0, total_reg = 0, total_steal = 0;
    for (const u64 f : faa_delta) total_faa += f;
    for (const u64 d : thld_delta) total_thld += d;
    for (const u64 r : reg_delta) total_reg += r;
    for (const u64 s : steal_delta) total_steal += s;
    const double ops_norm = total_ops > 0 ? static_cast<double>(total_ops) : 1.0;
    faa_samples.push_back(static_cast<double>(total_faa) / ops_norm);
    thld_samples.push_back(static_cast<double>(total_thld) / ops_norm);
    reg_samples.push_back(static_cast<double>(total_reg) / ops_norm);
    steal_samples.push_back(static_cast<double>(total_steal) / ops_norm);

    // Per-node throughput: worker t's executed ops are attributed to the
    // node the pin policy placed it on (deterministic by construction).
    if (node_buckets > 0) {
      std::vector<u64> node_ops(node_buckets, 0);
      for (unsigned t = 0; t < threads; ++t) {
        node_ops[topo.node_for(pin_spec, t)] += executed[t];
      }
      for (unsigned k = 0; k < node_buckets; ++k) {
        node_samples[k].push_back(static_cast<double>(node_ops[k]) / secs /
                                  1e6);
      }
    }

    live_samples.push_back(
        static_cast<double>(alloc_meter::live_bytes() - live_before));
    peak_samples.push_back(
        static_cast<double>(alloc_meter::peak_bytes() - live_before));
    rss_samples.push_back(static_cast<double>(current_rss_bytes()));
    alloc_samples.push_back(
        static_cast<double>(alloc_meter::total_allocations() - allocs_before));
    Adapter::destroy(q);
  }
  result.mops = summarize(mops_samples);
  result.live_bytes = summarize(live_samples);
  result.peak_bytes = summarize(peak_samples);
  result.rss_bytes = summarize(rss_samples);
  result.allocs = summarize(alloc_samples);
  result.ring_faa = summarize(faa_samples);
  result.ring_thld = summarize(thld_samples);
  result.registry = summarize(reg_samples);
  result.remote_steal = summarize(steal_samples);
  result.node_mops.reserve(node_buckets);
  for (unsigned k = 0; k < node_buckets; ++k) {
    result.node_mops.push_back(summarize(node_samples[k]));
  }
  return result;
}

}  // namespace wcq::bench
