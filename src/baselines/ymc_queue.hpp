// YMCQueue — a Yang & Mellor-Crummey-style queue (PPoPP'16), the paper's
// main wait-free comparison point.
//
// YMC realizes the "infinite array queue" (paper Fig 1) directly: a linked
// list of fixed-size segments forms a conceptually infinite cell array;
// Enqueue F&As a global enqueue index (Ei) and CASes its value into cell i,
// Dequeue F&As a dequeue index (Di) and either takes the value or poisons
// the cell (⊤) so the late enqueuer retries at a later rank.
//
// Reproduction notes (DESIGN.md §4): the original's wait-free slow path
// (enqueue/dequeue request descriptors + peer helping) is replaced by
// lock-free retry, and segment reclamation uses hazard pointers instead of
// the original's handle-scan scheme. What the wCQ paper's evaluation
// depends on is preserved:
//   * F&A-class throughput — the fast path is YMC's fast path verbatim;
//   * segment churn and reclamation lag visible to the Fig 10 memory bench
//     (segments allocate as indices advance and free only once every
//     in-flight operation has moved past them), including the headline
//     weakness: a stalled thread inside an operation pins segments and
//     retired memory indefinitely.
//
// Cell states: kBot (vacant) / kTop (poisoned) / value. Segments are
// allocated via the alloc meter (Fig 10) and retired through HazardDomain.
#pragma once

#include <atomic>
#include <optional>

#include "common/align.hpp"
#include "common/alloc_meter.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

class YMCQueue {
 public:
  static constexpr unsigned kSegOrder = 10;  // 1024 cells/segment (as in YMC)
  static constexpr u64 kSegCells = u64{1} << kSegOrder;

  YMCQueue() {
    first_seg_.store(Segment::create(0), std::memory_order_relaxed);
  }

  ~YMCQueue() {
    Segment* s = first_seg_.load(std::memory_order_relaxed);
    while (s != nullptr) {
      Segment* next = s->next.load(std::memory_order_relaxed);
      Segment::destroy(s);
      s = next;
    }
  }

  YMCQueue(const YMCQueue&) = delete;
  YMCQueue& operator=(const YMCQueue&) = delete;

  bool enqueue(u64 value) {
    HazardDomain& hp = HazardDomain::global();
    Segment* seg = acquire_start_segment(hp);
    for (;;) {
      const u64 i = ei_.value.fetch_add(1, std::memory_order_seq_cst);
      seg = walk_to(hp, seg, i >> kSegOrder);
      std::atomic<u64>& cell = seg->cells[i & (kSegCells - 1)];
      u64 expected = kBot;
      if (cell.compare_exchange_strong(expected, value,
                                       std::memory_order_seq_cst)) {
        hp.clear_all();
        return true;
      }
      // Cell poisoned by an overshooting dequeuer; take the next rank.
    }
  }

  std::optional<u64> dequeue() {
    HazardDomain& hp = HazardDomain::global();
    Segment* seg = acquire_start_segment(hp);
    for (;;) {
      const u64 i = di_.value.fetch_add(1, std::memory_order_seq_cst);
      seg = walk_to(hp, seg, i >> kSegOrder);
      std::atomic<u64>& cell = seg->cells[i & (kSegCells - 1)];
      // Give an in-flight enqueuer of this rank a brief chance, then poison.
      u64 v = cell.load(std::memory_order_acquire);
      for (int spin = 0; v == kBot && spin < kSpinBeforePoison; ++spin) {
        v = cell.load(std::memory_order_acquire);
      }
      if (v == kBot) {
        u64 expected = kBot;
        if (!cell.compare_exchange_strong(expected, kTop,
                                          std::memory_order_seq_cst)) {
          v = expected;  // the enqueuer won the race after all
        } else {
          v = kTop;
        }
      }
      if (v != kTop) {
        hp.clear_all();
        maybe_reclaim(i);
        return v;
      }
      // Poisoned a vacant cell: if no enqueuer is ahead, report empty and
      // pull Ei forward (the fixState analogue) so enqueuers do not crawl
      // rank-by-rank through poisoned cells.
      u64 e = ei_.value.load(std::memory_order_seq_cst);
      if (e <= i + 1) {
        while (e < i + 1 && !ei_.value.compare_exchange_weak(
                                e, i + 1, std::memory_order_seq_cst)) {
        }
        hp.clear_all();
        maybe_reclaim(i);
        return std::nullopt;
      }
    }
  }

  // Test hook: number of segments currently linked.
  u64 live_segments() const {
    u64 n = 0;
    for (Segment* s = first_seg_.load(std::memory_order_acquire); s != nullptr;
         s = s->next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

 private:
  static constexpr u64 kBot = ~u64{0};
  static constexpr u64 kTop = ~u64{0} - 1;
  static constexpr int kSpinBeforePoison = 64;
  static constexpr u64 kReclaimMask = 4 * kSegCells - 1;  // scan cadence
  // Hazard slots used during an operation (scratch; cleared on exit).
  static constexpr unsigned kHpSeg = 0;
  static constexpr unsigned kHpHop = 1;

  struct Segment {
    u64 id;
    std::atomic<Segment*> next{nullptr};
    std::atomic<u64> cells[kSegCells];

    static Segment* create(u64 seg_id) {
      Segment* s =
          static_cast<Segment*>(alloc_meter::allocate(sizeof(Segment)));
      s->id = seg_id;
      new (&s->next) std::atomic<Segment*>(nullptr);
      for (u64 i = 0; i < kSegCells; ++i) {
        s->cells[i].store(kBot, std::memory_order_relaxed);
      }
      return s;
    }
    static void destroy(Segment* s) {
      alloc_meter::deallocate(s, sizeof(Segment));
    }
    static void retire_cb(void* p) { destroy(static_cast<Segment*>(p)); }
  };

  // Protect and return the current first segment. protect() validates the
  // pointer against the source, and maybe_reclaim() never unlinks a
  // protected segment, so until we clear the slot the segment stays linked
  // — and with it every segment after it (only a prefix is ever unlinked).
  // Every rank this operation can draw lies in or after it.
  Segment* acquire_start_segment(HazardDomain& hp) {
    return hp.protect(kHpSeg, first_seg_);
  }

  // Hand-over-hand protected walk to segment `want` (allocating missing
  // segments at the end of the list). On return the result is protected by
  // kHpSeg, which the caller keeps until its cell access is done. `seg` is
  // protected and therefore linked, so its successor is linked too and the
  // hop needs no validation beyond publishing it: `next` cannot be unlinked
  // (let alone freed) while `seg` is still held.
  Segment* walk_to(HazardDomain& hp, Segment* seg, u64 want) {
    while (seg->id < want) {
      Segment* next = hp.protect(kHpHop, seg->next);
      if (next == nullptr) {
        Segment* fresh = Segment::create(seg->id + 1);
        Segment* expected = nullptr;
        if (seg->next.compare_exchange_strong(expected, fresh,
                                              std::memory_order_seq_cst)) {
          next = fresh;
        } else {
          Segment::destroy(fresh);
          next = hp.protect(kHpHop, seg->next);
        }
      }
      hp.set(kHpSeg, next);  // next stays protected by kHpHop during the move
      seg = next;
    }
    return seg;
  }

  // Unlink and retire every segment both indices have moved past, stopping
  // at the first segment an in-flight operation protects. Runs at a coarse
  // cadence under a CAS lock. The indices alone do not prove a segment
  // unused: an operation that drew its rank in segment w may still be
  // walking towards it from an older protected segment while both indices
  // run past w, and unlinking its path would leave it reading a freed
  // successor through a link that never changes. So each unlink is
  // published first and then checked against every hazard slot (the
  // hazard-pointer Dekker shape: a walker either validates against the new
  // first segment or is seen here); a protected segment is put back and the
  // sweep stops. A stalled in-flight operation therefore pins memory —
  // YMC's documented reclamation weakness.
  void maybe_reclaim(u64 rank) {
    if ((rank & kReclaimMask) != 0) return;
    bool expected = false;
    if (!reclaiming_.value.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      return;
    }
    u64 min_id = ei_.value.load(std::memory_order_seq_cst) >> kSegOrder;
    const u64 di_id = di_.value.load(std::memory_order_seq_cst) >> kSegOrder;
    if (di_id < min_id) min_id = di_id;
    HazardDomain& hp = HazardDomain::global();
    Segment* s = first_seg_.load(std::memory_order_acquire);
    while (s->id < min_id) {
      Segment* next = s->next.load(std::memory_order_acquire);
      if (next == nullptr) break;
      first_seg_.store(next, std::memory_order_seq_cst);
      if (hp.is_protected(s)) {
        first_seg_.store(s, std::memory_order_release);
        break;
      }
      hp.retire(s, &Segment::retire_cb);
      s = next;
    }
    reclaiming_.value.store(false, std::memory_order_release);
  }

  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> ei_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> di_;
  alignas(kDestructiveRange) std::atomic<Segment*> first_seg_;
  CacheAligned<std::atomic<bool>> reclaiming_;
};

}  // namespace wcq
