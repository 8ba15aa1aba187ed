// SCQ — the lock-free Scalable Circular Queue of Nikolaev (DISC'19), exactly
// as reproduced in the wCQ paper's Figure 3. It is both (a) the substrate
// wCQ's fast path is built from and (b) one of the benchmark subjects.
//
// SCQ is an index ring: it stores values in [0, capacity()) ("indices"),
// which in the full queue (core/bounded_queue.hpp, paper Fig 2) refer into a
// separate data array. The ring physically holds 2n slots but the caller
// must keep at most n = capacity() indices live — that invariant is what
// lets Enqueue skip full-queue checks and what makes the 3n-1 Threshold
// bound (paper §2) valid.
//
// Progress: operation-wise lock-free. Dequeue on an empty queue is O(1)
// after the Threshold short-circuit kicks in (the property behind Fig 11a).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <optional>

#include "common/align.hpp"
#include "common/backoff.hpp"
#include "common/event.hpp"
#include "core/entry.hpp"
#include "core/remap.hpp"

namespace wcq {

class SCQ {
 public:
  // Session handle (DESIGN.md §10). SCQ keeps no per-thread state — no
  // thread records, no registry use — so its handle is empty; it exists so
  // the Fig 2 layers can thread one handle type through any Ring uniformly.
  struct Handle {};

  Handle handle() { return Handle{}; }
  Handle handle_for(unsigned /*tid*/) { return Handle{}; }
  // `order`: capacity = 2^order indices; the ring allocates 2^(order+1)
  // slots. The paper's benchmark configuration is order 15 (2^16 slots).
  explicit SCQ(unsigned order, bool cache_remap = true)
      : codec_(order),
        remap_(codec_.ring_size(), sizeof(std::atomic<u64>), cache_remap),
        entries_(codec_.ring_size(), kCacheLine) {
    for (u64 i = 0; i < codec_.ring_size(); ++i) {
      entries_[i].store(codec_.initial(), std::memory_order_relaxed);
    }
    tail_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    head_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    threshold_.value.store(-1, std::memory_order_release);  // empty
  }

  SCQ(const SCQ&) = delete;
  SCQ& operator=(const SCQ&) = delete;

  u64 capacity() const { return codec_.half(); }
  u64 ring_size() const { return codec_.ring_size(); }

  // Inserts `index` (< capacity()). Never fails; the caller guarantees at
  // most capacity() live indices (Fig 2's fq/aq usage provides that).
  // try_enq only fails while a dequeuer that ⊥-marked the target slot has
  // not yet caught up, so on oversubscribed hosts the retry loop must back
  // off to let that (descheduled) dequeuer run.
  void enqueue(u64 index) {
    u64 tail_unused;
    Backoff bo;
    while (!try_enq(index, tail_unused)) bo.pause();
  }

  // Removes and returns the oldest index, or nullopt when empty.
  std::optional<u64> dequeue() {
    WCQ_EVENT(kThresholdCheck);
    if (threshold_.value.load(std::memory_order_acquire) < 0) {
      return std::nullopt;  // empty fast-exit (Fig 3 line 7)
    }
    for (;;) {
      u64 index;
      switch (try_deq(index)) {
        case DeqStatus::kOk:
          return index;
        case DeqStatus::kEmpty:
          return std::nullopt;
        case DeqStatus::kRetry:
          break;
      }
    }
  }

  // Handle overloads: SCQ's handle is stateless, so these forward. They give
  // BoundedQueue one call shape across all Ring parameters.
  void enqueue(Handle&, u64 index) { enqueue(index); }
  std::optional<u64> dequeue(Handle&) { return dequeue(); }
  void enqueue_bulk(Handle&, const u64* indices, std::size_t n) {
    enqueue_bulk(indices, n);
  }
  std::size_t dequeue_bulk(Handle&, u64* out, std::size_t n) {
    return dequeue_bulk(out, n);
  }

  // Batch insert (DESIGN.md §7, the BasicWCQ contract): all `n` indices are
  // inserted. One Tail F&A reserves n consecutive ranks and the threshold is
  // re-armed once for the whole span; a rank whose slot is unusable is
  // abandoned (exactly as a failed try_enq abandons its rank) and the
  // affected indices fall back to the single-op path. Deferring the re-arm
  // is safe for the same reason as in BasicWCQ: the bulk call has not
  // returned, so a dequeuer reading the stale negative threshold linearizes
  // its "empty" before these enqueues.
  void enqueue_bulk(const u64* indices, std::size_t n) {
    if (n == 0) return;
    if (n == 1) return enqueue(indices[0]);
    WCQ_EVENT(kTailFaa);
    const u64 base = tail_.value.fetch_add(n, std::memory_order_seq_cst);
    std::size_t done = 0;
    for (std::size_t k = 0; k < n && done < n; ++k) {
      if (enq_at(base + k, indices[done], /*reset_thld=*/false)) ++done;
    }
    reset_threshold();  // one re-arm for the whole span
    for (; done < n; ++done) enqueue(indices[done]);
  }

  // Batch remove (DESIGN.md §7): pops up to `n` indices into `out` with one
  // Head F&A for the whole span. Returns the number actually dequeued; fewer
  // than n does not imply emptiness (a rank can be contended away, the same
  // transient a single-op retry absorbs) — partial success is the batch
  // contract. Every reserved rank is processed (see deq_at).
  std::size_t dequeue_bulk(u64* out, std::size_t n) {
    if (n == 0) return 0;
    WCQ_EVENT(kThresholdCheck);
    if (threshold_.value.load(std::memory_order_acquire) < 0) {
      return 0;  // empty fast-exit, no ranks burned
    }
    if (n == 1) {
      const auto v = dequeue();
      if (!v) return 0;
      out[0] = *v;
      return 1;
    }
    WCQ_EVENT(kHeadFaa);
    const u64 base = head_.value.fetch_add(n, std::memory_order_seq_cst);
    std::size_t got = 0;
    for (std::size_t k = 0; k < n; ++k) {
      u64 idx;
      if (deq_at(base + k, idx) == DeqStatus::kOk) out[got++] = idx;
    }
    return got;
  }

  // Re-initialize the ring to its freshly-constructed (empty) state so it can
  // be reused, e.g. by a recycled UnboundedQueue segment (DESIGN.md §8).
  //
  // Precondition: the caller has exclusive access — no concurrent operation
  // is in flight and none can start until the reset is published (the segment
  // pool provides this via hazard-pointer grace + release/acquire hand-off).
  // All stores are relaxed; the publishing edge belongs to the caller.
  void reset() {
    for (u64 i = 0; i < codec_.ring_size(); ++i) {
      entries_[i].store(codec_.initial(), std::memory_order_relaxed);
    }
    tail_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    head_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    threshold_.value.store(-1, std::memory_order_relaxed);  // empty
  }

  // Fill a freshly constructed or reset ring with 0..capacity()-1, leaving
  // exactly the state capacity() uncontended fast-path enqueues would: the
  // entry for rank R+i holds {cycle_of(R+i), IsSafe=1, Enq=1, i}, Tail is
  // R+n, Head stays R and Threshold is armed at 3n-1. Plain stores instead
  // of n F&A/CAS rounds — BoundedQueue's fq fill (DESIGN.md §8).
  //
  // Precondition: exclusive access to an empty ring at its initial counters,
  // as after construction or reset(). The threshold store is a release, as
  // in the constructor; a recycled segment's publishing edge is the
  // caller's, as for reset().
  void prefill() {
    const u64 r = codec_.ring_size();
    assert(tail() == r && head() == r);
    for (u64 i = 0; i < capacity(); ++i) {
      entries_[remap_(codec_.pos_of(r + i))].store(
          codec_.pack(codec_.cycle_of(r + i), true, true, i),
          std::memory_order_relaxed);
    }
    tail_.value.store(r + capacity(), std::memory_order_relaxed);
    threshold_.value.store(threshold_max(), std::memory_order_release);
  }

  // --- introspection hooks (tests / benches) -------------------------------
  i64 threshold() const {
    return threshold_.value.load(std::memory_order_acquire);
  }
  u64 head() const { return head_.value.load(std::memory_order_acquire); }
  u64 tail() const { return tail_.value.load(std::memory_order_acquire); }

 private:
  enum class DeqStatus { kOk, kEmpty, kRetry };

  i64 threshold_max() const {
    // 3n - 1 for a 2n-slot ring holding at most n indices (paper §2).
    return static_cast<i64>(codec_.half() * 3 - 1);
  }

  // Fig 3, try_enq. Returns true on success; false means "F&A again"
  // (the slot was unusable for this tail value).
  bool try_enq(u64 index, u64& tail_out) {
    WCQ_EVENT(kTailFaa);
    const u64 t = tail_.value.fetch_add(1, std::memory_order_seq_cst);
    tail_out = t;
    return enq_at(t, index, /*reset_thld=*/true);
  }

  // Process one already-reserved tail rank (single-op and bulk paths share
  // this; bulk spans defer the threshold re-arm to the end of the span).
  bool enq_at(u64 t, u64 index, bool reset_thld) {
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
          continue;  // Fig 3 line 25: re-check with the observed entry
        }
        if (reset_thld) reset_threshold();
        return true;
      }
      return false;
    }
  }

  void reset_threshold() {
    // Relaxed dirty pre-check (DESIGN.md §15 THLD-PRECHECK): the same
    // argument as BasicWCQ::reset_threshold's PR 4 downgrade, which this
    // mirrors — the pre-check only *skips* the re-arm when it reads
    // threshold_max, a value some thread's re-arm stored; staleness or
    // store-buffer reordering can under-arm the budget by at most the
    // handful of seq_cst RMWs one drain window admits, well inside the 3n-1
    // slack. All cross-thread ordering flows through the guarded store,
    // which stays seq_cst.
    if (threshold_.value.load(std::memory_order_relaxed) != threshold_max()) {
      WCQ_EVENT(kThresholdArm);
#if defined(WCQ_ANALYSIS_MUTATE_THRESHOLD)
      // Mutation self-test (DESIGN.md §11): model the re-arm downgraded to a
      // relaxed store whose visibility is delayed past the next scheduling
      // point. tests/analysis must catch the false-empty window this opens.
      analysis::mutate_deferred_store(&threshold_.value, threshold_max());
#else
      threshold_.value.store(threshold_max(), std::memory_order_seq_cst);
#endif
    }
  }

  // Fig 3, try_deq.
  DeqStatus try_deq(u64& index_out) {
    WCQ_EVENT(kHeadFaa);
    const u64 h = head_.value.fetch_add(1, std::memory_order_seq_cst);
    return deq_at(h, index_out);
  }

  // Process one already-reserved head rank. As in BasicWCQ::deq_at, every
  // reserved rank MUST pass through here: a claimed rank whose slot holds a
  // cycle-matching element is the only dequeuer that will ever consume it,
  // so abandoning a reservation would leak the element forever.
  DeqStatus deq_at(u64 h, u64& index_out) {
    const u64 j = remap_(codec_.pos_of(h));
    const u64 cycle_h = codec_.cycle_of(h);
    u64 raw = entries_[j].load(std::memory_order_acquire);
    for (;;) {
      WCQ_EVENT(kEntryUpdate);
      const Entry e = codec_.unpack(raw);
      if (e.cycle == cycle_h) {
        // Our enqueuer arrived first: consume (atomic OR keeps Cycle/IsSafe).
        entries_[j].fetch_or(codec_.consume_mask(), std::memory_order_seq_cst);
        index_out = e.index;
        return DeqStatus::kOk;
      }
      u64 fresh;
      if (!codec_.is_live_index(e.index)) {
        // Mark the slot with our cycle so our (late) enqueuer skips it.
        fresh = codec_.pack(cycle_h, e.safe, e.enq, codec_.bottom());
      } else {
        // An older-cycle element is still here; strip IsSafe so enqueuers
        // must consult Head before reusing the slot.
        fresh = codec_.pack(e.cycle, false, e.enq, e.index);
      }
      if (e.cycle < cycle_h) {
        if (!entries_[j].compare_exchange_strong(raw, fresh,
                                                 std::memory_order_seq_cst)) {
          continue;
        }
        const u64 t = tail_.value.load(std::memory_order_seq_cst);
        if (t <= h + 1) {
          catchup(t, h + 1);
          WCQ_EVENT(kThresholdDec);
          threshold_.value.fetch_sub(1, std::memory_order_seq_cst);
          return DeqStatus::kEmpty;
        }
      }
      WCQ_EVENT(kThresholdDec);
      if (threshold_.value.fetch_sub(1, std::memory_order_seq_cst) <= 0) {
        return DeqStatus::kEmpty;
      }
      return DeqStatus::kRetry;
    }
  }

  // Fig 3, catchup: pull Tail forward to Head after draining past it. Purely
  // a contention optimization; iterations are capped (harmless, and wCQ
  // requires the cap for wait-freedom — paper §3.2 "Bounding catchup").
  void catchup(u64 tail, u64 head) {
    for (int i = 0; i < kCatchupMax; ++i) {
      WCQ_EVENT(kCatchup);
      if (tail_.value.compare_exchange_strong(tail, head,
                                              std::memory_order_seq_cst)) {
        return;
      }
      // Relaxed re-loads (DESIGN.md §15 CATCHUP-RELOAD): they only steer
      // this bounded heuristic — a stale pair either retries the CAS (which
      // re-validates and publishes with seq_cst) or exits early, and early
      // exit is always correct for a pure contention optimization.
      head = head_.value.load(std::memory_order_relaxed);
      tail = tail_.value.load(std::memory_order_relaxed);
      if (tail >= head) return;
    }
  }

  static constexpr int kCatchupMax = 8;

  EntryCodec codec_;
  CacheRemap remap_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> tail_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> head_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<i64>> threshold_;
  AlignedArray<std::atomic<u64>> entries_;
};

}  // namespace wcq
