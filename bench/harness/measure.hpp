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
#include <cstdint>
#include <thread>
#include <vector>

#include "common/alloc_meter.hpp"
#include "common/cpu.hpp"
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
};

namespace detail {

inline void tiny_random_delay(Xoshiro256& rng, unsigned max_spins) {
  const u64 spins = rng.bounded(max_spins + 1);
  for (u64 i = 0; i < spins; ++i) cpu_relax();
}

// Per-workload loops. Each returns the number of operations it executed;
// `my_ops` is the exact quota this worker was assigned (measure_point spreads
// the p.ops % threads remainder instead of dropping it).
template <typename Adapter>
u64 worker_body(typename Adapter::Queue& q, const BenchParams& p, u64 my_ops,
                unsigned thread_index, unsigned run) {
  // Mix the run index into the seed so repeated runs of one point do not
  // replay identical coin-flip/delay sequences (which made the run-to-run
  // spread a fiction for the random workloads).
  Xoshiro256 rng{0x1234567ULL * (thread_index + 1) +
                 0x9e3779b97f4a7c15ULL * run};
  const u64 payload = thread_index % 16;
  u64 out = 0;

  u64 executed = 0;
  switch (p.workload) {
    case Workload::kPairs: {
      u64 i = 0;
      for (; i + 1 < my_ops; i += 2) {
        while (!Adapter::enqueue(q, payload)) cpu_relax();
        (void)Adapter::dequeue(q, out);
        executed += 2;
      }
      if (i < my_ops) {  // odd quota: the final op is a lone enqueue
        while (!Adapter::enqueue(q, payload)) cpu_relax();
        executed += 1;
      }
      break;
    }
    case Workload::kP5050:
    case Workload::kMemory: {
      for (u64 i = 0; i < my_ops; ++i) {
        if (rng.coin()) {
          (void)Adapter::enqueue(q, payload);  // full counts as an attempt
        } else {
          (void)Adapter::dequeue(q, out);
        }
        ++executed;
        // Fig 10's configuration: tiny random delays between operations.
        if (p.workload == Workload::kMemory) {
          tiny_random_delay(rng, p.max_delay_spins);
        }
      }
      break;
    }
    case Workload::kEmptyDeq: {
      for (u64 i = 0; i < my_ops; ++i) {
        (void)Adapter::dequeue(q, out);
        ++executed;
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
  PointResult result;
  result.threads = threads;
  std::vector<double> mops_samples, live_samples, peak_samples, rss_samples,
      alloc_samples;

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
    std::vector<std::thread> ts;
    ts.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        if (p.pin) pin_thread(t, pin_spec, topo);
        const u64 my_ops = per_thread + (t < remainder ? 1 : 0);
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) cpu_relax();
        executed[t] = detail::worker_body<Adapter>(*q, p, my_ops, t, run);
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
  return result;
}

}  // namespace wcq::bench
