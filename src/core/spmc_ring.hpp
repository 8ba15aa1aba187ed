// SpmcRing — the SCQ index ring specialized for a single producer; the dual
// of core/mpsc_ring.hpp. The dequeue side is SCQ's verbatim — multiple
// consumers still need rank reservation (Head F&A), the threshold emptiness
// bound, ⊥-marking AND IsSafe stripping — while the producer side exploits
// the single-writer guarantee (full argument: DESIGN.md §13):
//
//   - Tail F&A     → plain load + seq_cst store. One writer means the store
//                    occupies exactly the slot in Tail's modification order
//                    the F&A would have, so the Fig 3 proof shape survives;
//                    seq_cst is kept because dequeuers' emptiness check
//                    (deq_at's Tail load) orders against it.
//   - catchup      → deleted from the dequeue path: dequeuers may not write
//                    a producer-owned Tail. The producer runs the moral
//                    equivalent itself — it starts each reservation from
//                    max(Tail, Head), which it can do with plain loads.
//   - threshold    → KEPT, including the re-arm: it referees concurrent
//                    consumers, which this ring still has. Only its writer
//                    set shrank (one producer re-arms, many consumers
//                    decrement).
//
// A SessionGuard binds the first enqueuing thread and traps any second
// producer (death-tested in tests/test_spmc_ring.cpp); reset() and
// release_sessions() are the exclusive-access rebind points.
//
// Progress: consumers inherit SCQ's lock-freedom among themselves; the
// producer is wait-free for the reservation itself (no rival can invalidate
// its Tail store) and lock-free overall (a ⊥-marked rank costs a retry,
// which implies a consumer progressed).
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

class SpmcRing {
 public:
  // Session handle (DESIGN.md §10): stateless, as for SCQ/MpscRing.
  struct Handle {};

  Handle handle() { return Handle{}; }
  Handle handle_for(unsigned /*tid*/) { return Handle{}; }

  // `order`: capacity = 2^order indices over 2^(order+1) slots, as SCQ.
  explicit SpmcRing(unsigned order, bool cache_remap = true)
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

  SpmcRing(const SpmcRing&) = delete;
  SpmcRing& operator=(const SpmcRing&) = delete;

  u64 capacity() const { return codec_.half(); }
  u64 ring_size() const { return codec_.ring_size(); }

  // --- producer side (one bound thread; traps otherwise) -------------------

  // Inserts `index` (< capacity()). Never fails; caller guarantees at most
  // capacity() live indices. Performs zero Tail F&As and zero CAS loops on
  // Tail — reservation is a single-writer store. The entry CAS in enq_at
  // remains (it races consumers' ⊥-marks), as does the backoff on a dead
  // rank for SCQ's reason.
  void enqueue(u64 index) {
    consumer_guarded_enqueue(&index, 1);
  }

  // Batch insert (DESIGN.md §7 contract): one Tail store per span, one
  // threshold re-arm per span, fallback singles for abandoned ranks.
  void enqueue_bulk(const u64* indices, std::size_t n) {
    if (n == 0) return;
    consumer_guarded_enqueue(indices, n);
  }

  // --- consumer side (any thread; SCQ verbatim minus catchup) --------------

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

  // Batch remove: one Head F&A per span, partial-success contract as SCQ.
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
  // precondition: exclusive access; publishing edge belongs to the caller).
  // Also the producer-ownership rebind point.
  void reset() {
    for (u64 i = 0; i < codec_.ring_size(); ++i) {
      entries_[i].store(codec_.initial(), std::memory_order_relaxed);
    }
    tail_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    head_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    threshold_.value.store(-1, std::memory_order_relaxed);  // empty
    producer_.release();
  }

  // Clear session bindings without touching ring contents (exclusive-access
  // only) — lets ctor pre-fill and destructor paths on arbitrary threads
  // act as the producer once the real producer is gone.
  void release_sessions() { producer_.release(); }

  // --- introspection hooks (tests / benches) -------------------------------
  i64 threshold() const {
    return threshold_.value.load(std::memory_order_acquire);
  }
  u64 head() const { return head_.value.load(std::memory_order_acquire); }
  u64 tail() const { return tail_.value.load(std::memory_order_acquire); }

 private:
  enum class DeqStatus { kOk, kEmpty, kRetry };

  i64 threshold_max() const {
    return static_cast<i64>(codec_.half() * 3 - 1);  // 3n - 1 (paper §2)
  }

  // Single-producer reservation + span insert. Reservation starts from
  // max(Tail, Head): consumers can no longer catchup-CAS Tail, so a drained
  // ring would otherwise leave Head arbitrarily far ahead and force the
  // producer to walk every dead rank in between. Both loads are relaxed
  // (DESIGN.md §15 SPMC-CATCHUP): Tail is producer-private, and Head only
  // seeds a starting rank — Head is monotonic, so a stale read is merely
  // lower, and every rank between a stale and the live Head is dead: enq_at
  // rejects it (⊥-mark/cycle check, with its own seq_cst Head consultation
  // on the unsafe arm) and the producer walks forward. Wasted probes, never
  // a wrong insert.
  void consumer_guarded_enqueue(const u64* indices, std::size_t n) {
    producer_.enter("SpmcRing", "producer");
    u64 t = tail_.value.load(std::memory_order_relaxed);
    const u64 hd = head_.value.load(std::memory_order_relaxed);
    if (t < hd) t = hd;  // producer-side catchup: ranks below Head are dead
    if (n > 1) {
      // Bulk span: reserve n ranks with one store, defer the re-arm.
      WCQ_EVENT(kTailStore);
      tail_.value.store(t + n, std::memory_order_seq_cst);
      std::size_t done = 0;
      for (std::size_t k = 0; k < n && done < n; ++k) {
        if (enq_at(t + k, indices[done], /*reset_thld=*/false)) ++done;
      }
      reset_threshold();  // one re-arm for the whole span
      for (; done < n; ++done) single_enqueue(indices[done]);
      return;
    }
    single_enqueue_from(t, indices[0]);
  }

  void single_enqueue(u64 index) {
    single_enqueue_from(tail_.value.load(std::memory_order_relaxed), index);
  }

  void single_enqueue_from(u64 t, u64 index) {
    Backoff bo;
    for (;;) {
      // Reserve rank t: the single-writer store is the F&A's slot in Tail's
      // modification order (DESIGN.md §13).
      WCQ_EVENT(kTailStore);
      tail_.value.store(t + 1, std::memory_order_seq_cst);
      if (enq_at(t, index, /*reset_thld=*/true)) return;
      ++t;  // rank went dead under a consumer's ⊥-mark; take the next
      bo.pause();
    }
  }

  // SCQ's enq_at, unchanged: the entry CAS stays because it races consumer
  // ⊥-marks, and the IsSafe/Head consultation stays because multi-consumer
  // stripping is still live in this ring.
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
          continue;  // re-check with the observed entry
        }
        if (reset_thld) reset_threshold();
        return true;
      }
      return false;
    }
  }

  // Threshold re-arm (DESIGN.md §15 SPMC-REARM): single producer ⇒ single
  // writer of threshold_max. The dirty pre-check is relaxed (§15
  // THLD-PRECHECK, the same PR 4 argument wCQ and SCQ carry) and the store
  // is downgraded seq_cst → release: consumers only read threshold through
  // seq_cst fetch_subs, and a fetch_sub that reads-from this store
  // synchronizes-with it, so the producer's earlier entry publication
  // (seq_cst CAS, sequenced-before the store) is visible before any
  // consumer can act on the re-armed budget. A consumer that decrements
  // *before* the store lands sees the stale budget — a history seq_cst also
  // admits (the store merely lands later in S) and one the 3n-1 slack
  // already tolerates. On x86 this turns the re-arm's xchg into a plain
  // mov in the producer's per-span path. Weakening further than release is
  // the WCQ_ANALYSIS_MUTATE_RELAXED mutation, which tests/analysis must
  // catch (the §15 falsifiability contract).
  void reset_threshold() {
    if (threshold_.value.load(std::memory_order_relaxed) != threshold_max()) {
      WCQ_EVENT(kThresholdArm);
#if defined(WCQ_ANALYSIS_MUTATE_RELAXED)
      // Mutation self-test: the argued release store over-weakened to a
      // relaxed store whose visibility is deferred past the next scheduling
      // point — the false-empty window the PCT explorer must catch.
      analysis::mutate_deferred_store(&threshold_.value, threshold_max());
#else
      threshold_.value.store(threshold_max(), std::memory_order_release);
#endif
    }
  }

  // Fig 3, try_deq — SCQ verbatim.
  DeqStatus try_deq(u64& index_out) {
    WCQ_EVENT(kHeadFaa);
    const u64 h = head_.value.fetch_add(1, std::memory_order_seq_cst);
    return deq_at(h, index_out);
  }

  // SCQ's deq_at with exactly one edit: the catchup call is gone (Tail is
  // producer-owned; see header comment). The threshold decrement that
  // accompanied it stays — it is the emptiness accounting among consumers,
  // not part of catchup.
  DeqStatus deq_at(u64 h, u64& index_out) {
    const u64 j = remap_(codec_.pos_of(h));
    const u64 cycle_h = codec_.cycle_of(h);
    u64 raw = entries_[j].load(std::memory_order_acquire);
    for (;;) {
      WCQ_EVENT(kEntryUpdate);
      const Entry e = codec_.unpack(raw);
      if (e.cycle == cycle_h) {
        entries_[j].fetch_or(codec_.consume_mask(), std::memory_order_seq_cst);
        index_out = e.index;
        return DeqStatus::kOk;
      }
      u64 fresh;
      if (!codec_.is_live_index(e.index)) {
        fresh = codec_.pack(cycle_h, e.safe, e.enq, codec_.bottom());
      } else {
        fresh = codec_.pack(e.cycle, false, e.enq, e.index);
      }
      if (e.cycle < cycle_h) {
        if (!entries_[j].compare_exchange_strong(raw, fresh,
                                                 std::memory_order_seq_cst)) {
          continue;
        }
        const u64 t = tail_.value.load(std::memory_order_seq_cst);
        if (t <= h + 1) {
          // No catchup: the producer pulls Tail forward itself on its next
          // reservation (consumer_guarded_enqueue's max(Tail, Head)).
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

  EntryCodec codec_;
  CacheRemap remap_;
  // Tail is producer-private for writes; consumers read it (seq_cst) on the
  // emptiness arm, so it keeps its own line to spare them the entry array's
  // traffic.
  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> tail_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> head_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<i64>> threshold_;
  SessionGuard producer_;
  AlignedArray<std::atomic<u64>> entries_;
};

}  // namespace wcq
