// Per-thread state sized by the threads that use a queue, not by
// ThreadRegistry::kMaxThreads (DESIGN.md §8/§9).
//
// wCQ's help records and the index magazines are per-(queue, tid) arrays.
// Allocating them for every possible tid up front made per-thread state the
// bulk of a small queue's footprint. TidChunks keeps a fixed table of
// kMaxThreads / 8 chunk pointers instead; a chunk holds the elements of 8
// consecutive tids and is allocated, metered and constructed the first time
// one of those tids asks for it:
//
//  * get(tid) installs the tid's chunk if needed: the caller allocates and
//    constructs a chunk, then installs it with one acq_rel CAS from null. A
//    caller that loses the race destroys its own chunk and uses the
//    winner's, so exactly one chunk per index survives. No loop: the install
//    is one bounded allocation per (queue, chunk), never per operation.
//  * peek(tid) is one acquire load; it returns null for a chunk nobody has
//    installed. Scanners use it and skip null chunks: a tid whose chunk is
//    absent has never written anything there.
//
// The acquire load pairs with the install CAS, so whoever sees a chunk
// pointer also sees the constructed elements behind it. Installed chunks stay
// until the owner is destroyed (a recycled segment keeps them).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <new>

#include "common/align.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

template <typename T>
class TidChunks {
 public:
  static constexpr unsigned kTidsPerChunk = 8;
  static constexpr unsigned kChunks =
      ThreadRegistry::kMaxThreads / kTidsPerChunk;

  // `stride` elements per tid; each chunk is one allocation aligned to
  // `alignment`.
  TidChunks(std::size_t stride, std::size_t alignment)
      : stride_(stride), alignment_(alignment) {}

  ~TidChunks() {
    for (auto& c : chunks_) destroy(c.load(std::memory_order_relaxed));
  }

  TidChunks(const TidChunks&) = delete;
  TidChunks& operator=(const TidChunks&) = delete;

  // The `stride` elements of `tid`, installing its chunk on first use.
  // Traps on a tid the registry can never hand out.
  T* get(unsigned tid) {
    if (tid >= ThreadRegistry::kMaxThreads) [[unlikely]] {
      assert(false && "thread id exceeds ThreadRegistry::kMaxThreads");
      __builtin_trap();
    }
    std::atomic<T*>& slot = chunks_[tid / kTidsPerChunk];
    T* c = slot.load(std::memory_order_acquire);
    if (c == nullptr) [[unlikely]] c = install(slot);
    return c + (tid % kTidsPerChunk) * stride_;
  }

  // The elements of `tid`, or null when its chunk is not installed.
  T* peek(unsigned tid) const {
    assert(tid < ThreadRegistry::kMaxThreads);
    T* c = chunks_[tid / kTidsPerChunk].load(std::memory_order_acquire);
    return c == nullptr ? nullptr : c + (tid % kTidsPerChunk) * stride_;
  }

  // Install every chunk holding a tid below `n`. Owners call this at
  // construction with the registry high water, so threads already
  // registered never race to install a chunk mid-run.
  void install_below(unsigned n) {
    for (unsigned t = 0; t < n; t += kTidsPerChunk) (void)get(t);
  }

  // Call f(elements) for each tid of each installed chunk. Every element
  // ever written lies in an installed chunk, so exclusive-access rewinds
  // and diagnostics visit exactly the state that can differ from new.
  template <typename F>
  void for_each(F&& f) const {
    for (unsigned t = 0; t < ThreadRegistry::kMaxThreads;
         t += kTidsPerChunk) {
      T* c = peek(t);
      if (c == nullptr) continue;
      for (unsigned i = 0; i < kTidsPerChunk; ++i) f(c + i * stride_);
    }
  }

  // Metered bytes of one chunk.
  std::size_t chunk_bytes() const {
    return AlignedArray<T>::round_up(elems() * sizeof(T), alignment_);
  }

 private:
  std::size_t elems() const { return kTidsPerChunk * stride_; }

  // Out of line: sessions are built on every UnboundedQueue segment
  // operation, and only a tid's first session on a queue gets here.
  [[gnu::noinline]] T* install(std::atomic<T*>& slot) {
    T* mine = create();
    T* c = nullptr;
    if (slot.compare_exchange_strong(c, mine, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return mine;
    }
    destroy(mine);  // lost the race; `c` is the winner's chunk
    return c;
  }

  T* create() const {
    T* c = static_cast<T*>(
        alloc_meter::allocate_aligned(chunk_bytes(), alignment_));
    for (std::size_t i = 0; i < elems(); ++i) new (c + i) T();
    return c;
  }

  void destroy(T* c) const {
    if (c == nullptr) return;
    for (std::size_t i = elems(); i > 0; --i) c[i - 1].~T();
    alloc_meter::deallocate_aligned(c, chunk_bytes());
  }

  std::size_t stride_;
  std::size_t alignment_;
  // Read on every handle build and help scan, written once per chunk.
  alignas(kCacheLine) std::atomic<T*> chunks_[kChunks] = {};
};

}  // namespace wcq
