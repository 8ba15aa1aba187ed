// MpscRing — the SCQ index ring (core/scq.hpp, paper Fig 3) specialized for
// a single consumer. Degree specialization, not a new algorithm: the
// producer side is SCQ's verbatim (Tail F&A + entry CAS), while everything
// the MPMC dequeue path needed only to referee *between dequeuers* is
// deleted outright (full argument: DESIGN.md §13):
//
//   - Head F&A            → plain load + release store. Head has one writer;
//                           reserving ranks speculatively is pointless when
//                           no rival can claim them first.
//   - Threshold           → deleted, member and all. The 3n-1 bound exists
//                           so concurrent dequeuers that burn ranks on an
//                           empty ring still detect emptiness in finite
//                           steps; the single consumer never burns a rank on
//                           emptiness (it peeks before committing), so the
//                           counter guards nothing observable.
//   - consume fetch_or    → plain release store. A live (cycle, pos) rank
//                           has exactly one eligible dequeuer — us — and no
//                           producer touches a live slot, so there is no RMW
//                           race to win.
//   - catchup             → deleted. Head never overshoots Tail (the
//                           consumer stops at Tail instead of racing past
//                           it), so there is nothing to pull forward.
//   - IsSafe stripping    → unreachable. The consumer never leaves a live
//                           older-cycle element behind Head, so producers
//                           never need the Head consultation IsSafe=0 forces
//                           (and consequently never load Head at all on the
//                           common path).
//
// The consumer-side contract is enforced, not assumed: a SessionGuard binds
// the first dequeuing thread and traps any second consumer (death-tested in
// tests/test_mpsc_ring.cpp). reset()/release_sessions() are the exclusive-
// access rebind points, which is what lets recycled UnboundedQueue segments
// and BoundedQueue's destructor drain change the consuming thread.
//
// Progress: the producer side inherits SCQ's operation-wise lock-freedom;
// the consumer is obstruction-free against producers in the same transient
// sense as SCQ's dequeue (a dead rank costs one CAS, and ranks only go dead
// when some producer made progress past them).
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>

#include "common/align.hpp"
#include "common/backoff.hpp"
#include "common/event.hpp"
#include "core/entry.hpp"
#include "core/remap.hpp"
#include "core/session_guard.hpp"

namespace wcq {

class MpscRing {
 public:
  // Session handle (DESIGN.md §10): stateless, as for SCQ — the consumer
  // identity lives in the SessionGuard (keyed by thread, not by handle) so
  // that the same handle value cannot be used to smuggle a second consumer.
  struct Handle {};

  Handle handle() { return Handle{}; }
  Handle handle_for(unsigned /*tid*/) { return Handle{}; }

  // `order`: capacity = 2^order indices over 2^(order+1) slots, as SCQ.
  explicit MpscRing(unsigned order, bool cache_remap = true)
      : codec_(order),
        remap_(codec_.ring_size(), sizeof(std::atomic<u64>), cache_remap),
        entries_(codec_.ring_size(), kCacheLine) {
    for (u64 i = 0; i < codec_.ring_size(); ++i) {
      entries_[i].store(codec_.initial(), std::memory_order_relaxed);
    }
    tail_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    head_.value.store(codec_.ring_size(), std::memory_order_relaxed);
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  u64 capacity() const { return codec_.half(); }
  u64 ring_size() const { return codec_.ring_size(); }

  // --- producer side (any thread; SCQ verbatim minus the re-arm) -----------

  // Inserts `index` (< capacity()). Never fails; the caller guarantees at
  // most capacity() live indices. The backoff exists for the same reason as
  // SCQ's: a failed rank means the consumer ⊥-marked the slot and producers
  // must let it run.
  void enqueue(u64 index) {
    Backoff bo;
    while (!try_enq(index)) bo.pause();
  }

  // Batch insert (DESIGN.md §7 contract): one Tail F&A per span; unusable
  // ranks are abandoned and the affected indices fall back to singles.
  // Unlike SCQ there is no deferred re-arm to flush — the span needs no
  // epilogue at all.
  void enqueue_bulk(const u64* indices, std::size_t n) {
    if (n == 0) return;
    if (n == 1) return enqueue(indices[0]);
    WCQ_EVENT(kTailFaa);
    const u64 base = tail_.value.fetch_add(n, std::memory_order_seq_cst);
    std::size_t done = 0;
    for (std::size_t k = 0; k < n && done < n; ++k) {
      if (enq_at(base + k, indices[done])) ++done;
    }
    for (; done < n; ++done) enqueue(indices[done]);
  }

  // --- consumer side (one bound thread; traps otherwise) -------------------

  // Removes and returns the oldest index, or nullopt when empty. Performs
  // zero F&As and zero threshold RMWs — the property bench/check_pipeline.py
  // gates on. Peek-before-commit: the consumer inspects rank Head WITHOUT
  // reserving it, so an empty probe burns nothing and needs no threshold to
  // stay O(1).
  std::optional<u64> dequeue() {
    consumer_.enter("MpscRing", "consumer");
    u64 h = head_.value.load(std::memory_order_relaxed);
    const u64 h0 = h;
    for (;;) {
      u64 index;
      switch (step_at(h, index)) {
        case Step::kGot:
          head_.value.store(h + 1, std::memory_order_release);
          return index;
        case Step::kEmpty:
          // Publish any dead ranks we skipped so the next probe (and the
          // head() introspection producers never read) starts past them.
          if (h != h0) head_.value.store(h, std::memory_order_release);
          return std::nullopt;
        case Step::kSkip:
          ++h;
          break;
      }
    }
  }

  // Batch remove: up to `n` indices with ONE Head publish for the whole
  // span (the single-writer analogue of SCQ's one-F&A-per-span). Partial
  // return does not imply emptiness only in the sense that later elements
  // may land immediately after we stop; within the call the scan is exact.
  std::size_t dequeue_bulk(u64* out, std::size_t n) {
    if (n == 0) return 0;
    consumer_.enter("MpscRing", "consumer");
    const u64 h0 = head_.value.load(std::memory_order_relaxed);
    u64 h = h0;
    std::size_t got = 0;
    while (got < n) {
      u64 index;
      const Step s = step_at(h, index);
      if (s == Step::kEmpty) break;
      if (s == Step::kGot) out[got++] = index;
      ++h;  // kGot and kSkip both advance past the rank
    }
    if (h != h0) head_.value.store(h, std::memory_order_release);
    return got;
  }

  // Handle overloads, one call shape across all Ring parameters.
  void enqueue(Handle&, u64 index) { enqueue(index); }
  std::optional<u64> dequeue(Handle&) { return dequeue(); }
  void enqueue_bulk(Handle&, const u64* indices, std::size_t n) {
    enqueue_bulk(indices, n);
  }
  std::size_t dequeue_bulk(Handle&, u64* out, std::size_t n) {
    return dequeue_bulk(out, n);
  }

  // Re-initialize to the freshly-constructed state (DESIGN.md §8
  // precondition: exclusive access, publishing edge belongs to the caller).
  // Also an ownership rebind point: the recycled ring's consumer may be a
  // different thread than the retired ring's.
  void reset() {
    for (u64 i = 0; i < codec_.ring_size(); ++i) {
      entries_[i].store(codec_.initial(), std::memory_order_relaxed);
    }
    tail_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    head_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    consumer_.release();
  }

  // Clear session bindings without touching ring contents. Exclusive-access
  // only; lets a destructor or straggler drain running on an arbitrary
  // thread adopt the consumer role (BoundedQueue::destroy_stragglers).
  void release_sessions() { consumer_.release(); }

  // --- introspection hooks (tests / benches) -------------------------------
  u64 head() const { return head_.value.load(std::memory_order_acquire); }
  u64 tail() const { return tail_.value.load(std::memory_order_acquire); }

 private:
  enum class Step { kGot, kEmpty, kSkip };

  bool try_enq(u64 index) {
    WCQ_EVENT(kTailFaa);
    const u64 t = tail_.value.fetch_add(1, std::memory_order_seq_cst);
    return enq_at(t, index);
  }

  // SCQ's enq_at minus the threshold re-arm. The Head consultation on
  // IsSafe=0 is kept byte-for-byte even though §13 shows the consumer never
  // clears IsSafe — keeping the producer identical to SCQ's means the §13
  // argument only has to reason about deletions on the consumer side.
  bool enq_at(u64 t, u64 index) {
    const u64 j = remap_(codec_.pos_of(t));
    const u64 cycle_t = codec_.cycle_of(t);
    u64 raw = entries_[j].load(std::memory_order_acquire);
    for (;;) {
      const Entry e = codec_.unpack(raw);
      if (e.cycle < cycle_t &&
          (e.safe || head_.value.load(std::memory_order_seq_cst) <= t) &&
          !codec_.is_live_index(e.index)) {
        const u64 fresh = codec_.pack(cycle_t, true, true, index);
        WCQ_EVENT(kEntryUpdate);
        if (!entries_[j].compare_exchange_strong(raw, fresh,
                                                 std::memory_order_seq_cst)) {
          continue;  // re-check with the observed entry
        }
        return true;
      }
      return false;
    }
  }

  // Examine one head rank without having reserved it. Outcomes:
  //   kGot   — rank held a live element for our cycle; it has been consumed
  //            (plain release store; no rival dequeuer exists) and the
  //            caller must advance past the rank.
  //   kSkip  — rank is dead (superseded cycle, or ⊥-marked by us just now);
  //            advance past it and look at the next.
  //   kEmpty — Tail <= h with the rank unfilled: no completed-unconsumed
  //            enqueue exists (§13 linearization argument), and Head must
  //            NOT advance — the rank stays claimable by a future enqueue.
  Step step_at(u64 h, u64& index_out) {
    const u64 j = remap_(codec_.pos_of(h));
    const u64 cycle_h = codec_.cycle_of(h);
    u64 raw = entries_[j].load(std::memory_order_acquire);
    for (;;) {
      WCQ_EVENT(kEntryUpdate);
      const Entry e = codec_.unpack(raw);
      if (e.cycle == cycle_h) {
        if (codec_.is_live_index(e.index)) {
          // Consume. A (pos, cycle) rank has one eligible consumer and
          // producers refuse live slots (enq_at's !is_live_index arm), so
          // between our acquire load and this store nobody else can write
          // the slot: a plain release store replaces SCQ's fetch_or.
          entries_[j].store(
              codec_.pack(cycle_h, e.safe, e.enq, codec_.bottom_c()),
              std::memory_order_release);
          index_out = e.index;
          return Step::kGot;
        }
        return Step::kSkip;  // our own earlier ⊥-mark; nothing can land now
      }
      if (e.cycle > cycle_h) {
        // The slot was reused for a later cycle, which proves every rank of
        // our cycle at this position is dead.
        return Step::kSkip;
      }
      // e.cycle < cycle_h: rank h's enqueuer has not delivered. Decide
      // empty-vs-late by Tail; the seq_cst load orders against producers'
      // seq_cst Tail F&As, making the "no completed enqueue" claim exact.
      WCQ_EVENT(kThresholdCheck);
      if (tail_.value.load(std::memory_order_seq_cst) <= h) {
        return Step::kEmpty;
      }
#if defined(WCQ_ANALYSIS_MUTATE_MPSC)
      // Mutation self-test (DESIGN.md §13): skip the dead rank WITHOUT
      // ⊥-marking it. A descheduled rank-h producer can then land its
      // element behind Head where it is lost forever; tests/analysis must
      // catch the resulting non-linearizable empty.
      return Step::kSkip;
#else
      // Producers are already past this rank (Tail > h) but rank h's owner
      // may still land late; ⊥-mark the slot so it cannot deliver behind
      // Head. CAS, not a store: this is the one consumer write that races a
      // producer (the late owner landing right now) — on failure re-examine,
      // the element may have just arrived.
      const u64 dead = codec_.pack(cycle_h, e.safe, e.enq, codec_.bottom());
      if (entries_[j].compare_exchange_strong(raw, dead,
                                              std::memory_order_seq_cst,
                                              std::memory_order_acquire)) {
        return Step::kSkip;
      }
#endif
    }
  }

  EntryCodec codec_;
  CacheRemap remap_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> tail_;
  // Head is consumer-private for writes; producers read it only on the
  // IsSafe=0 slow arm, which §13 shows is unreachable here — the separate
  // cache line is kept so the consumer's publishes never bounce Tail's line.
  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> head_;
  SessionGuard consumer_;
  AlignedArray<std::atomic<u64>> entries_;
};

}  // namespace wcq
