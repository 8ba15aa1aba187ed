// BoundedQueue<T> — the paper's Fig 2 indirection pattern.
//
// SCQ/wCQ rings transfer *indices*; real payloads live in a separate data
// array referenced by those indices. Two rings are used: `fq` holds free
// indices (initially full: 0..n-1) and `aq` holds allocated ones. Enqueue =
// take a free index, write the payload, publish the index through aq;
// Dequeue = take an index from aq, read the payload, recycle the index
// through fq. Because at most n indices exist, the rings' "Enqueue never
// checks full" precondition holds by construction, and "queue full" is
// simply "fq empty".
//
// Index magazines (DESIGN.md §9): fq is a free list — FIFO order among free
// indices is unobservable — so with Options::magazine (the default) each
// thread caches recently-freed indices in a private magazine
// (scale/index_magazine.hpp) and the fq half of every operation's
// shared-ring cost (seq_cst F&A + threshold traffic) amortizes to one bulk
// refill/spill per half-magazine span. The "full" contract relaxes
// accordingly: an enqueue that finds its magazine and fq empty performs one
// bounded reclaim sweep over all magazines (stealing a cached index) before
// reporting full, so cached-but-unused indices can never wedge the queue and
// UnboundedQueue segments never finalize before their exact capacity is
// live. A thread-exit hook flushes a dying thread's magazine back to fq, so
// no index leaks across thread churn (capacity stays exact).
//
// Session handles (DESIGN.md §10): every per-(queue, thread) lookup this
// layer and the rings below it used to repeat per operation — the registry
// tid, the wCQ thread-record pointer, the magazine block — lives in one
// `Handle`. `acquire()` returns an owned handle (flushes its magazine back
// to fq on destruction and pins the queue: destroying the queue first is a
// diagnosed abort); `handle_for(tid)` builds an unowned per-op view by
// chunk lookups and arithmetic for composed layers that already know their
// tid (UnboundedQueue segments, the implicit wrappers). The implicit API is
// unchanged and costs exactly one registry lookup per operation — it
// resolves the thread_local tid once and derives the session from it, which
// is equivalent to (and safer than) caching handles in thread_local storage
// (see DESIGN.md §10 for the equivalence argument).
//
// The progress property is inherited from the Ring parameter: wait-free with
// WCQ (default), lock-free with SCQ. Magazine operations are bounded scans
// and every magazine↔ring interaction uses the existing wait-free paths, so
// the composition's progress class is unchanged.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/align.hpp"
#include "core/scq.hpp"
#include "core/wcq.hpp"
#include "runtime/thread_registry.hpp"
#include "scale/index_magazine.hpp"

namespace wcq {

template <typename T, typename Ring = WCQ>
class BoundedQueue {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "payloads move across threads; moves must not throw");

 public:
  struct Options {
    // Capacity = 2^order elements.
    unsigned order;
    // Per-thread free-index magazines; `magazine.capacity` is clamped to
    // IndexMagazines::kMaxSlots and to capacity/4 (tiny rings get tiny or no
    // magazines, keeping the full/finalize transition prompt). Disabled
    // reproduces the plain Fig 2 double-ring behavior exactly.
    IndexMagazines::Config magazine{};
  };

  // Per-thread session (DESIGN.md §10): dense tid, both rings' sessions and
  // the magazine block, resolved once. Move-only. An *owned* handle (from
  // acquire()) flushes its magazine back to fq on destruction — the exit
  // hook remains as the fallback for implicit use — and participates in
  // lifetime checking: the queue aborts with a diagnostic if destroyed
  // while owned handles are live, turning a handle-outlives-queue bug into
  // a deterministic failure instead of a use-after-free. Views from
  // handle_for() carry no ownership and may be built per operation.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& o) noexcept
        : q_(o.q_), tid_(o.tid_), aq_h_(o.aq_h_), fq_h_(o.fq_h_),
          mag_(o.mag_), owned_(o.owned_) {
      o.q_ = nullptr;
      o.owned_ = false;
    }
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        release();
        q_ = o.q_;
        tid_ = o.tid_;
        aq_h_ = o.aq_h_;
        fq_h_ = o.fq_h_;
        mag_ = o.mag_;
        owned_ = o.owned_;
        o.q_ = nullptr;
        o.owned_ = false;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { release(); }

    unsigned tid() const { return tid_; }
    bool owned() const { return owned_; }

   private:
    friend class BoundedQueue;
    Handle(BoundedQueue* q, unsigned tid, bool owned)
        : q_(q), tid_(tid), aq_h_(q->aq_.handle_for(tid)),
          fq_h_(q->fq_.handle_for(tid)),
          mag_(q->mags_.block_for(tid)), owned_(owned) {}

    void release() {
      if (owned_ && q_ != nullptr) {
        q_->handle_released(*this);
      }
      q_ = nullptr;
      owned_ = false;
    }

    BoundedQueue* q_ = nullptr;
    unsigned tid_ = 0;
    typename Ring::Handle aq_h_{};
    typename Ring::Handle fq_h_{};
    std::atomic<u64>* mag_ = nullptr;  // null when magazines are disabled
    bool owned_ = false;
  };

  explicit BoundedQueue(Options opt)
      : aq_(opt.order),
        fq_(opt.order),
        data_(aq_.capacity(), kCacheLine),
        mags_(effective_magazine_capacity(opt.magazine, aq_.capacity())) {
    fq_.prefill();
    if (mags_.enabled()) {
      // A dying thread flushes its cached free indices back to fq; without
      // this an index could only be recovered by a (full-edge) reclaim
      // sweep, and repeated churn would strand capacity in dead magazines.
      // Explicit handles flush earlier, on handle destruction; the hook is
      // the safety net for implicit use and for handles that outlive their
      // thread's last operation.
      hook_handle_ = ThreadRegistry::register_exit_hook(
          &BoundedQueue::exit_hook_cb, this);
    }
  }

  explicit BoundedQueue(unsigned order) : BoundedQueue(Options{order}) {}

  ~BoundedQueue() {
    const int live = live_handles_.load(std::memory_order_acquire);
    if (live != 0) {
      // A live owned handle holds pointers into this queue; letting the
      // destructor proceed would leave it dangling and its eventual flush
      // would scribble on freed memory. Fail deterministically instead.
      std::fprintf(stderr,
                   "wcq: BoundedQueue destroyed with %d live session "
                   "handle(s); destroy handles before their queue\n",
                   live);
      std::abort();
    }
    if (mags_.enabled()) {
      // Blocks until any in-flight exit flush completes; after this no
      // thread can touch fq_/mags_ through the hook path.
      ThreadRegistry::unregister_exit_hook(hook_handle_);
    }
    destroy_stragglers();
  }

  // Re-initialize to the freshly-constructed state: destroy any payloads
  // still in flight, rewind both rings, and prefill fq with 0..n-1. Same
  // exclusivity precondition as the rings' reset() — this is the bounded
  // layer of the segment-recycling path (DESIGN.md §8), where the hazard
  // grace period guarantees no thread can still touch this queue... with one
  // exception: a thread-exit hook (or an owned handle's destructor) needs no
  // hazard to flush a magazine, so the magazine/fq rewind serializes with
  // flushes on this queue's flush lock. Either the flush completed first
  // (its indices land in the old fq and are discarded by the rewind) or it
  // runs after (the magazine is already empty — a no-op); both orders
  // preserve the exactly-one-of-each-index invariant (DESIGN.md §9). The
  // lock is per-queue and taken only here and in the flush paths — never by
  // enqueue/dequeue — so operation progress is unaffected and resets of
  // unrelated queues do not serialize.
  void reset() {
    destroy_stragglers();
    aq_.reset();
    if (mags_.enabled()) {
      const std::lock_guard<std::mutex> lk(mag_flush_mu_);
      reset_free_indices();
    } else {
      reset_free_indices();
    }
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  u64 capacity() const { return aq_.capacity(); }

  // --- session acquisition (DESIGN.md §10) ---------------------------------

  // Owned per-thread session for the calling thread: one registry lookup
  // now, zero on every subsequent handle operation (steady state). The
  // handle must be destroyed before the queue (checked) and used only on
  // this thread.
  Handle acquire() {
    live_handles_.fetch_add(1, std::memory_order_acq_rel);
    return Handle(this, ThreadRegistry::tid(), /*owned=*/true);
  }

  // Unowned per-op session view for a known tid: three chunk-pointer loads
  // and arithmetic, no registry access, no flush-on-destroy. Composed layers
  // (UnboundedQueue segments, ShardedQueue sweeps) and the implicit wrappers
  // use this.
  Handle handle_for(unsigned tid) {
    return Handle(this, tid, /*owned=*/false);
  }

  // --- operations ----------------------------------------------------------

  // Returns false when the queue is full.
  bool enqueue(T value) { return enqueue_movable(value); }
  bool enqueue(Handle& h, T value) { return enqueue_movable(h, value); }

  // Enqueue by reference: on success `value` is moved-from, on failure it is
  // left intact. Callers that retarget a rejected element (ShardedQueue's
  // spill sweep) need the failure case to preserve ownership, which the
  // by-value overload cannot.
  bool enqueue_movable(T& value) {
    Handle h = handle_for(ThreadRegistry::tid());
    return enqueue_movable(h, value);
  }

  bool enqueue_movable(Handle& h, T& value) {
    u64 idx;
    if (!claim_index(h, idx)) return false;
    ::new (static_cast<void*>(slot(idx))) T(std::move(value));
    aq_.enqueue(h.aq_h_, idx);
    return true;
  }

  // Returns nullopt when the queue is empty.
  std::optional<T> dequeue() {
    Handle h = handle_for(ThreadRegistry::tid());
    return dequeue(h);
  }

  std::optional<T> dequeue(Handle& h) {
    const auto idx = aq_.dequeue(h.aq_h_);
    if (!idx) return std::nullopt;
    T* p = slot(*idx);
    std::optional<T> out{std::move(*p)};
    p->~T();
    release_index(h, *idx);
    return out;
  }

  // Read-only readiness hint: false when a dequeue would have found the data
  // ring empty at the time of the reads, true when an element may be ready
  // (an enqueuer may still sit between its Tail F&A and its entry write).
  // Two acquire loads and no store, so a blocking receiver can poll it
  // without burning Head ranks or Threshold budget (Channel, DESIGN.md §14).
  // Every value is still taken by a real dequeue; the hint only gates when
  // to try one. `h` keeps the signature uniform with ShardedQueue's.
  bool maybe_nonempty(const Handle& /*h*/) const {
    return aq_.tail() > aq_.head();
  }

  // Batch insert (DESIGN.md §7): enqueues up to `n` values from `first`,
  // returning how many were taken. Exactly the first `ret` elements are
  // moved-from (a const source is copied instead); partial success means the
  // queue filled up mid-span. Free indices are claimed from the caller's
  // magazine first, then through the rings' bulk paths in chunks, so the
  // per-operation Tail/Head F&A and threshold traffic amortize across the
  // span.
  template <typename U,
            std::enable_if_t<std::is_same_v<std::remove_const_t<U>, T>, int> = 0>
  std::size_t enqueue_bulk(U* first, std::size_t n) {
    Handle h = handle_for(ThreadRegistry::tid());
    return enqueue_bulk(h, first, n);
  }

  template <typename U,
            std::enable_if_t<std::is_same_v<std::remove_const_t<U>, T>, int> = 0>
  std::size_t enqueue_bulk(Handle& h, U* first, std::size_t n) {
    std::size_t done = 0;
    u64 idx[kBulkChunk];
    while (done < n) {
      const std::size_t want = std::min(n - done, kBulkChunk);
      const std::size_t got = claim_indices(h, idx, want);
      if (got == 0) break;  // full
      for (std::size_t k = 0; k < got; ++k) {
        ::new (static_cast<void*>(slot(idx[k]))) T(std::move(first[done + k]));
      }
      aq_.enqueue_bulk(h.aq_h_, idx, got);
      done += got;
      if (got < want) break;
    }
    return done;
  }

  // Batch remove (DESIGN.md §7): move-assigns up to `n` elements into `out`
  // and returns how many. Fewer than `n` does not prove emptiness (the ring
  // bulk path may cede contended ranks); use dequeue() for an authoritative
  // empty answer.
  std::size_t dequeue_bulk(T* out, std::size_t n) {
    Handle h = handle_for(ThreadRegistry::tid());
    return dequeue_bulk(h, out, n);
  }

  std::size_t dequeue_bulk(Handle& h, T* out, std::size_t n) {
    static_assert(std::is_nothrow_move_assignable_v<T>,
                  "dequeue_bulk assigns into caller storage");
    std::size_t done = 0;
    u64 idx[kBulkChunk];
    while (done < n) {
      const std::size_t want = std::min(n - done, kBulkChunk);
      const std::size_t got = aq_.dequeue_bulk(h.aq_h_, idx, want);
      if (got == 0) break;  // empty (or fully contended)
      for (std::size_t k = 0; k < got; ++k) {
        T* p = slot(idx[k]);
        out[done + k] = std::move(*p);
        p->~T();
      }
      release_indices(h, idx, got);
      done += got;
      if (got < want) break;
    }
    return done;
  }

  // Ring access for diagnostics (e.g., threshold inspection in tests).
  const Ring& aq() const { return aq_; }
  const Ring& fq() const { return fq_; }
  // Free indices currently cached in magazines (exact at quiescence).
  std::size_t magazine_cached() const { return mags_.cached_total(); }
  std::size_t magazine_capacity() const { return mags_.capacity(); }
  // Owned session handles currently alive (test hook).
  int live_handles() const {
    return live_handles_.load(std::memory_order_acquire);
  }

 private:
  // Bulk spans are staged through a fixed stack buffer of indices so the
  // batch paths never allocate; larger caller spans just loop chunks.
  static constexpr std::size_t kBulkChunk = 64;

  static std::size_t effective_magazine_capacity(
      const IndexMagazines::Config& cfg, u64 ring_capacity) {
    if (!cfg.enabled) return 0;
    const std::size_t by_ring = static_cast<std::size_t>(ring_capacity / 4);
    return std::min(cfg.capacity, by_ring);
  }

  // --- free-index claim/release (the fq half of Fig 2) ----------------------

  // Claim one free index: magazine, then fq (refilling the magazine through
  // one bulk dequeue), then the reclaim sweep. False = queue full.
  bool claim_index(Handle& h, u64& idx) {
    if (h.mag_ == nullptr) {
      const auto i = fq_.dequeue(h.fq_h_);
      if (!i) return false;
      idx = *i;
      return true;
    }
    if (mags_.try_take_at(h.mag_, idx)) return true;  // steady state: no ring op
    if (refill_claim(h, idx)) return true;
    return mags_.steal_for(h.tid_, idx);
  }

  // One bulk fq dequeue refills the magazine and yields the caller's index:
  // the Head F&A and threshold decrement amortize across the span.
  bool refill_claim(Handle& h, u64& idx) {
    u64 buf[IndexMagazines::kMaxSlots + 1];
    const std::size_t want = 1 + mags_.refill_span();
    const std::size_t got = fq_.dequeue_bulk(h.fq_h_, buf, want);
    if (got == 0) {
      // The bulk path may cede contended ranks without proving emptiness;
      // the single-op dequeue is the authoritative answer (and is an O(1)
      // threshold check when fq is truly empty).
      const auto i = fq_.dequeue(h.fq_h_);
      if (!i) return false;
      idx = *i;
      return true;
    }
    idx = buf[0];
    for (std::size_t k = 1; k < got; ++k) {
      // Cannot overflow in practice (only the owner puts, and it just saw
      // its magazine empty); the fq fallback keeps a lost index impossible.
      if (!mags_.try_put_at(h.mag_, buf[k])) fq_.enqueue(h.fq_h_, buf[k]);
    }
    return true;
  }

  // Claim up to `want` indices for a bulk span: magazine first, fq bulk for
  // the remainder, reclaim sweep before concluding full.
  std::size_t claim_indices(Handle& h, u64* idx, std::size_t want) {
    std::size_t got = 0;
    if (h.mag_ != nullptr) got = mags_.take_some_at(h.mag_, idx, want);
    if (got < want) {
      got += fq_.dequeue_bulk(h.fq_h_, idx + got, want - got);
    }
    if (got == 0) {
      // The bulk path may cede contended ranks without proving emptiness;
      // a single-op dequeue is the authoritative full answer (and an O(1)
      // threshold check when fq is truly empty). This applies with or
      // without magazines — the reclaim sweep additionally recovers a
      // cached index before "full" is concluded.
      if (const auto i = fq_.dequeue(h.fq_h_)) {
        idx[got++] = *i;
      } else if (h.mag_ != nullptr) {
        if (u64 s; mags_.steal_for(h.tid_, s)) idx[got++] = s;
      }
    }
    return got;
  }

  // Recycle one freed index: cache it; when the magazine is past its
  // high-water mark (full), spill half back through one bulk fq enqueue so
  // the Tail F&A and threshold re-arm amortize across the spilled span.
  void release_index(Handle& h, u64 idx) {
    if (h.mag_ == nullptr) {
      fq_.enqueue(h.fq_h_, idx);
      return;
    }
    if (mags_.try_put_at(h.mag_, idx)) return;
    u64 buf[IndexMagazines::kMaxSlots];
    const std::size_t n = mags_.take_some_at(h.mag_, buf, mags_.spill_span());
    if (n > 0) fq_.enqueue_bulk(h.fq_h_, buf, n);
    if (!mags_.try_put_at(h.mag_, idx)) fq_.enqueue(h.fq_h_, idx);
  }

  // Recycle a bulk span: top the magazine up, send the rest through one fq
  // bulk enqueue.
  void release_indices(Handle& h, const u64* idx, std::size_t n) {
    std::size_t k = 0;
    if (h.mag_ != nullptr) {
      while (k < n && mags_.try_put_at(h.mag_, idx[k])) ++k;
    }
    if (k < n) fq_.enqueue_bulk(h.fq_h_, idx + k, n - k);
  }

 public:
  // Flush `tid`'s magazine back to fq, serialized with reset() by this
  // queue's flush lock — a flush landing mid-rewind would duplicate free
  // indices (DESIGN.md §9). Shared by the thread-exit hook (which runs on
  // the exiting thread, whose tid is still valid), an owned handle's
  // destructor, and the sharded front-end's session teardown. Public so
  // composed layers can return a released session's cached capacity
  // promptly; safe to call from any thread at any time.
  //
  // The fq enqueue runs through the *calling* thread's ring session, never
  // `tid`'s: a handle may be destroyed on a different thread than the one
  // that used it (or after that thread exited and its tid was recycled to
  // a live thread), and driving the ring through records_[tid] from here
  // would race that thread's concurrent operations. The magazine side is
  // already cross-thread safe (drain_tid takes slots by CAS). Lock order
  // is registry hook lock → flush lock; nothing takes them in the other
  // order.
  void flush_magazine(unsigned tid) {
    if (!mags_.enabled()) return;
    const std::lock_guard<std::mutex> lk(mag_flush_mu_);
    u64 buf[IndexMagazines::kMaxSlots];
    const std::size_t got =
        mags_.drain_tid(tid, buf, IndexMagazines::kMaxSlots);
    if (got > 0) {
      typename Ring::Handle fq_h = fq_.handle_for(ThreadRegistry::tid());
      fq_.enqueue_bulk(fq_h, buf, got);
    }
  }

 private:
  static void exit_hook_cb(void* ctx, unsigned tid) {
    static_cast<BoundedQueue*>(ctx)->flush_magazine(tid);
  }

  // Owned-handle teardown (DESIGN.md §10): the exit hook's flush moves onto
  // handle destruction, so a pool worker releasing its session returns its
  // cached indices immediately instead of at thread exit. Destruction on a
  // different thread than the one that used the handle is safe — see
  // flush_magazine's cross-thread contract.
  void handle_released(Handle& h) {
    flush_magazine(h.tid_);
    live_handles_.fetch_sub(1, std::memory_order_acq_rel);
  }

  // Magazine + fq rewind (under the flush lock when magazines are on).
  void reset_free_indices() {
    mags_.clear();
    fq_.reset();
    fq_.prefill();
  }

  // Destroy any payloads still in flight. Single-threaded drain: successful
  // dequeues never burn threshold, so this loop empties the queue exactly.
  void destroy_stragglers() {
    while (auto idx = aq_.dequeue()) {
      slot(*idx)->~T();
    }
  }

  struct alignas(alignof(T)) Storage {
    unsigned char bytes[sizeof(T)];
  };

  T* slot(u64 idx) {
    assert(idx < data_.size());
    return std::launder(reinterpret_cast<T*>(data_[idx].bytes));
  }

  Ring aq_;
  Ring fq_;
  AlignedArray<Storage> data_;
  IndexMagazines mags_;
  // Serializes magazine flushes (exit hook, handle destruction) against
  // reset()'s magazine/fq rewind. Never touched by enqueue/dequeue, so the
  // operations' progress class is untouched; contention is session
  // teardown × this queue's reset, both rare.
  std::mutex mag_flush_mu_;
  std::uint64_t hook_handle_ = 0;
  std::atomic<int> live_handles_{0};
};

}  // namespace wcq
