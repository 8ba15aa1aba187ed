// Queue adapters for the benchmark harness: every queue from the paper's
// comparison set behind one uniform shape, constructed with the paper's §6
// parameters (ring 2^16 slots for wCQ/SCQ i.e. order 15; MAX_PATIENCE 16/64;
// LCRQ rings 2^12; YMC segments 2^10).
//
// WCQ_BENCH_ORDER overrides the wCQ/SCQ ring order for quick experiments.
#pragma once

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

namespace wcq::bench {

inline unsigned ring_order() {
  return static_cast<unsigned>(env_u64("WCQ_BENCH_ORDER", 15));
}

// Rings transfer indices < capacity; the harness masks payloads (the
// paper's benchmark does the same — throughput, not payload, is measured).
template <typename Ring, const char* Name>
struct RingAdapter {
  static constexpr const char* kName = Name;
  using Queue = Ring;
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

inline constexpr char kWcqName[] = "wCQ";
inline constexpr char kWcqLlscName[] = "wCQ-LLSC";
inline constexpr char kScqName[] = "SCQ";
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

using WcqAdapter = RingAdapter<WCQ, kWcqName>;
using WcqLlscAdapter = RingAdapter<WCQLLSC, kWcqLlscName>;
#if defined(WCQ_HAS_NATIVE_LLSC)
// Native AArch64 exclusive pairs (DESIGN.md §15, LLSC-NATIVE) — same ring,
// the granule ops go through ldaxp/stlxp instead of the simulated
// reservation table. Only exists on aarch64 builds; the harness picks it
// up automatically there and the panel gains a fourth backend column.
inline constexpr char kWcqLlscNativeName[] = "wCQ-LLSC-native";
using WcqLlscNativeAdapter = RingAdapter<WCQLLSCNative, kWcqLlscNativeName>;
#endif
using ScqAdapter = RingAdapter<SCQ, kScqName>;
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
