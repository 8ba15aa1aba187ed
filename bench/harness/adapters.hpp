// Queue adapters for the benchmark harness: every queue from the paper's
// comparison set behind one uniform shape, constructed with the paper's §6
// parameters (ring 2^16 slots for wCQ/SCQ i.e. order 15; MAX_PATIENCE 16/64;
// LCRQ rings 2^12; YMC segments 2^10).
//
// WCQ_BENCH_ORDER overrides the wCQ/SCQ ring order for quick experiments.
#pragma once

#include <cstddef>

#include "baselines/cc_queue.hpp"
#include "baselines/crturn_queue.hpp"
#include "baselines/faa_queue.hpp"
#include "baselines/lcrq.hpp"
#include "baselines/ms_queue.hpp"
#include "baselines/ymc_queue.hpp"
#include "common/env.hpp"
#include "core/bounded_queue.hpp"
#include "core/scq.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wcq.hpp"
#include "core/wcq_llsc.hpp"
#include "scale/index_magazine.hpp"
#include "scale/sharded_queue.hpp"

namespace wcq::bench {

inline unsigned ring_order() {
  return static_cast<unsigned>(env_u64("WCQ_BENCH_ORDER", 15));
}

// Sharded front-end parameters. The shard count can be overridden
// programmatically (bench_sharding's sweep) ahead of the env/default.
inline unsigned g_sharded_shards = 0;  // 0 = use WCQ_BENCH_SHARDS (default 4)

inline unsigned sharded_shard_count() {
  if (g_sharded_shards != 0) return g_sharded_shards;
  return static_cast<unsigned>(env_u64("WCQ_BENCH_SHARDS", 4));
}

inline unsigned sharded_shard_order() {
  return static_cast<unsigned>(env_u64("WCQ_BENCH_SHARD_ORDER", 12));
}

namespace detail {

// Ring adapters transfer indices < capacity; bulk spans are masked through a
// fixed chunk so the adapter keeps the harness's "payload is arbitrary"
// contract without allocating.
template <typename Queue>
std::size_t ring_enqueue_bulk(Queue& q, const u64* v, std::size_t n) {
  constexpr std::size_t kChunk = 64;
  u64 masked[kChunk];
  const u64 mask = q.capacity() - 1;
  std::size_t done = 0;
  while (done < n) {
    const std::size_t span = n - done < kChunk ? n - done : kChunk;
    for (std::size_t i = 0; i < span; ++i) masked[i] = v[done + i] & mask;
    q.enqueue_bulk(masked, span);
    done += span;
  }
  return n;  // ring bulk enqueue inserts everything
}

}  // namespace detail

// Rings transfer indices < capacity; the harness masks payloads (the
// paper's benchmark does the same — throughput, not payload, is measured).
struct WcqAdapter {
  static constexpr const char* kName = "wCQ";
  using Queue = WCQ;
  static Queue* create() {
    WCQ::Options o;
    o.order = ring_order();
    return new Queue(o);
  }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& q, u64 v) {
    q.enqueue(v & (q.capacity() - 1));
    return true;
  }
  static bool dequeue(Queue& q, u64& out) {
    auto v = q.dequeue();
    if (!v) return false;
    out = *v;
    return true;
  }
  static std::size_t enqueue_bulk(Queue& q, const u64* v, std::size_t n) {
    return detail::ring_enqueue_bulk(q, v, n);
  }
  static std::size_t dequeue_bulk(Queue& q, u64* out, std::size_t n) {
    return q.dequeue_bulk(out, n);
  }
};

struct WcqLlscAdapter {
  static constexpr const char* kName = "wCQ-LLSC";
  using Queue = WCQLLSC;
  static Queue* create() {
    WCQLLSC::Options o;
    o.order = ring_order();
    return new Queue(o);
  }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& q, u64 v) {
    q.enqueue(v & (q.capacity() - 1));
    return true;
  }
  static bool dequeue(Queue& q, u64& out) {
    auto v = q.dequeue();
    if (!v) return false;
    out = *v;
    return true;
  }
  static std::size_t enqueue_bulk(Queue& q, const u64* v, std::size_t n) {
    return detail::ring_enqueue_bulk(q, v, n);
  }
  static std::size_t dequeue_bulk(Queue& q, u64* out, std::size_t n) {
    return q.dequeue_bulk(out, n);
  }
};

#if defined(WCQ_HAS_NATIVE_LLSC)
// Native AArch64 exclusive pairs (DESIGN.md §15, LLSC-NATIVE) — same ring,
// the granule ops go through ldaxp/stlxp instead of the simulated
// reservation table. Only exists on aarch64 builds; the harness picks it
// up automatically there and the panel gains a fourth backend column.
struct WcqLlscNativeAdapter {
  static constexpr const char* kName = "wCQ-LLSC-native";
  using Queue = WCQLLSCNative;
  static Queue* create() {
    WCQLLSCNative::Options o;
    o.order = ring_order();
    return new Queue(o);
  }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& q, u64 v) {
    q.enqueue(v & (q.capacity() - 1));
    return true;
  }
  static bool dequeue(Queue& q, u64& out) {
    auto v = q.dequeue();
    if (!v) return false;
    out = *v;
    return true;
  }
  static std::size_t enqueue_bulk(Queue& q, const u64* v, std::size_t n) {
    return detail::ring_enqueue_bulk(q, v, n);
  }
  static std::size_t dequeue_bulk(Queue& q, u64* out, std::size_t n) {
    return q.dequeue_bulk(out, n);
  }
};
#endif  // WCQ_HAS_NATIVE_LLSC

struct ScqAdapter {
  static constexpr const char* kName = "SCQ";
  using Queue = SCQ;
  static Queue* create() { return new Queue(ring_order()); }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& q, u64 v) {
    q.enqueue(v & (q.capacity() - 1));
    return true;
  }
  static bool dequeue(Queue& q, u64& out) {
    auto v = q.dequeue();
    if (!v) return false;
    out = *v;
    return true;
  }
  static std::size_t enqueue_bulk(Queue& q, const u64* v, std::size_t n) {
    return detail::ring_enqueue_bulk(q, v, n);
  }
  static std::size_t dequeue_bulk(Queue& q, u64* out, std::size_t n) {
    return q.dequeue_bulk(out, n);
  }
};

template <typename Q, const char* Name>
struct SimpleAdapter {
  static constexpr const char* kName = Name;
  using Queue = Q;
  static Queue* create() { return new Queue(); }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& q, u64 v) { return q.enqueue(v); }
  static bool dequeue(Queue& q, u64& out) {
    auto v = q.dequeue();
    if (!v) return false;
    out = *v;
    return true;
  }
};

inline constexpr char kFaaName[] = "FAA";
inline constexpr char kMsName[] = "MSQueue";
inline constexpr char kCcName[] = "CCQueue";
inline constexpr char kLcrqName[] = "LCRQ";
inline constexpr char kYmcName[] = "YMC";
inline constexpr char kCrTurnName[] = "CRTurn";

// Unbounded (Appendix A) queue, as an A/B pair over the segment pool
// (DESIGN.md §8): "UwCQ" recycles retired segments, "UwCQ-nopool" is the
// malloc/free-per-segment behavior. WCQ_BENCH_SEGMENT_ORDER (default 10,
// the paper's YMC segment size) sets elements per segment; small orders
// (4-6) maximize segment churn and make the pool's allocation-count win
// visible even in short runs.
inline unsigned unbounded_segment_order() {
  return static_cast<unsigned>(env_u64("WCQ_BENCH_SEGMENT_ORDER", 10));
}

template <bool Recycle, const char* Name>
struct UnboundedQueueAdapter {
  static constexpr const char* kName = Name;
  using Queue = UnboundedQueue<u64>;
  static Queue* create() {
    typename Queue::Options o;
    o.segment_order = unbounded_segment_order();
    o.recycle = Recycle;
    return new Queue(o);
  }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& q, u64 v) { return q.enqueue(v); }
  static bool dequeue(Queue& q, u64& out) {
    auto v = q.dequeue();
    if (!v) return false;
    out = *v;
    return true;
  }
};

inline constexpr char kUnboundedName[] = "UwCQ";
inline constexpr char kUnboundedNoPoolName[] = "UwCQ-nopool";

// Fig 2 bounded value queue, as an A/B pair over the per-thread index
// magazines (DESIGN.md §9): "Bounded" claims/recycles free indices through
// its magazine, "Bounded-nomag" is the plain double-ring behavior. The
// shared-ring F&A counters (ring_faa in the report) are the comparison
// metric — the magazine's amortization claim is about coherence traffic,
// not wall-clock, so it holds on 1-core CI hosts too.
// WCQ_BENCH_BOUNDED_ORDER (default 12) sets capacity; WCQ_BENCH_MAGAZINE
// (default 16) the per-thread magazine slots.
inline unsigned bounded_order() {
  return static_cast<unsigned>(env_u64("WCQ_BENCH_BOUNDED_ORDER", 12));
}

inline std::size_t bounded_magazine_capacity() {
  return static_cast<std::size_t>(env_u64("WCQ_BENCH_MAGAZINE", 16));
}

template <bool Mag, const char* Name>
struct BoundedQueueAdapter {
  static constexpr const char* kName = Name;
  using Queue = BoundedQueue<u64, WCQ>;
  static Queue* create() {
    typename Queue::Options o{bounded_order()};
    o.magazine.enabled = Mag;
    o.magazine.capacity = bounded_magazine_capacity();
    return new Queue(o);
  }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& q, u64 v) { return q.enqueue(v); }
  static bool dequeue(Queue& q, u64& out) {
    auto v = q.dequeue();
    if (!v) return false;
    out = *v;
    return true;
  }
  static std::size_t enqueue_bulk(Queue& q, const u64* v, std::size_t n) {
    return q.enqueue_bulk(v, n);
  }
  static std::size_t dequeue_bulk(Queue& q, u64* out, std::size_t n) {
    return q.dequeue_bulk(out, n);
  }
};

inline constexpr char kBoundedName[] = "Bounded";
inline constexpr char kBoundedNoMagName[] = "Bounded-nomag";

using BoundedAdapter = BoundedQueueAdapter<true, kBoundedName>;
using BoundedNoMagAdapter = BoundedQueueAdapter<false, kBoundedNoMagName>;

// Explicit-session variant of the Fig 2 bounded queue (DESIGN.md §10):
// identical configuration to "Bounded", but every worker acquires one
// session handle at attach time and every operation takes it. The A/B
// metric is `registry` (tid()/high_water() lookups per op): the implicit
// path resolves the thread_local tid once per operation, the handle path
// only on the amortized help-check refresh — the per-op difference the
// handle refactor exists to produce, and wall-clock-independent like the
// magazine counters. CI gates the handle series at ≤1 lookup/op.
struct BoundedHandleAdapter {
  static constexpr const char* kName = "Bounded-handle";
  using Queue = BoundedQueue<u64, WCQ>;
  using Handle = typename Queue::Handle;
  static Queue* create() {
    typename Queue::Options o{bounded_order()};
    o.magazine.enabled = true;
    o.magazine.capacity = bounded_magazine_capacity();
    return new Queue(o);
  }
  static void destroy(Queue* q) { delete q; }
  static Handle attach(Queue& q) { return q.acquire(); }
  static bool enqueue(Queue& q, Handle& h, u64 v) { return q.enqueue(h, v); }
  static bool dequeue(Queue& q, Handle& h, u64& out) {
    auto v = q.dequeue(h);
    if (!v) return false;
    out = *v;
    return true;
  }
  static std::size_t enqueue_bulk(Queue& q, Handle& h, const u64* v,
                                  std::size_t n) {
    return q.enqueue_bulk(h, v, n);
  }
  static std::size_t dequeue_bulk(Queue& q, Handle& h, u64* out,
                                  std::size_t n) {
    return q.dequeue_bulk(h, out, n);
  }
};

// Sharded front-end (src/scale/): a value queue (no index masking), shard
// count from g_sharded_shards / WCQ_BENCH_SHARDS, per-shard capacity
// 2^WCQ_BENCH_SHARD_ORDER. Full is real backpressure here, so enqueue's
// boolean matters to the workloads.
struct ShardedAdapter {
  static constexpr const char* kName = "Sharded-wCQ";
  using Queue = ShardedQueue<u64, WCQ>;
  static Queue* create() {
    return new Queue(sharded_shard_count(), sharded_shard_order());
  }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& q, u64 v) { return q.enqueue(v); }
  static bool dequeue(Queue& q, u64& out) {
    auto v = q.dequeue();
    if (!v) return false;
    out = *v;
    return true;
  }
  static std::size_t enqueue_bulk(Queue& q, const u64* v, std::size_t n) {
    return q.enqueue_bulk(v, n);
  }
  static std::size_t dequeue_bulk(Queue& q, u64* out, std::size_t n) {
    return q.dequeue_bulk(out, n);
  }
};

using FaaAdapter = SimpleAdapter<FAAQueue, kFaaName>;
using MsAdapter = SimpleAdapter<MSQueue, kMsName>;
using CcAdapter = SimpleAdapter<CCQueue, kCcName>;
using LcrqAdapter = SimpleAdapter<LCRQ, kLcrqName>;
using YmcAdapter = SimpleAdapter<YMCQueue, kYmcName>;
using CrTurnAdapter = SimpleAdapter<CRTurnQueue, kCrTurnName>;
using UnboundedAdapter = UnboundedQueueAdapter<true, kUnboundedName>;
using UnboundedNoPoolAdapter =
    UnboundedQueueAdapter<false, kUnboundedNoPoolName>;

}  // namespace wcq::bench
