// ShardedQueue<T, Ring> — a topology-aware sharded front-end over Fig 2
// bounded queues (DESIGN.md §7, §12).
//
// wCQ's bounded-memory rings are the building block; this composes a
// power-of-two number of BoundedQueue<T, Ring> shards so that unrelated
// threads stop contending on one Head/Tail pair. Policy:
//
//  * Placement — shards are assigned to NUMA nodes in contiguous groups
//    (shard i belongs to node i*m/n for m nodes, n shards), and on a real
//    multi-node machine each group's backing store is constructed by a
//    helper thread pinned to the owning node, so first-touch puts the ring
//    arrays in that node's memory.
//  * Affinity — every operation starts at the caller's *home shard*: the
//    thread's current node selects the local shard group, the dense
//    registry tid picks within it (`group[tid % group_size]`). On a flat
//    (single-node) topology this degenerates to the pre-topology
//    `tid & (shards-1)`. A session handle (DESIGN.md §10) resolves the node
//    and the whole sweep order once at acquire() and caches one
//    BoundedQueue session per shard, so the handle path resolves nothing
//    per operation; the implicit path resolves tid and node once per call.
//  * Stealing — when the home shard is empty (dequeue) or full (enqueue),
//    the operation sweeps the remaining shards exactly once,
//    hierarchically: first the rest of the local node's group (rotated to
//    start after home), then each remote node's group, nearest node first
//    by the topology's distance matrix. "Empty"/"full" is reported only
//    after the full sweep fails, so an element visible in any shard before
//    the sweep began is found — the reordering of visits relative to the
//    flat ring sweep does not weaken that contract (DESIGN.md §12). The
//    sweep stays bounded (one visit per shard), preserving the rings'
//    progress guarantee per operation.
//  * Accounting — an operation that *succeeds* on a shard of a different
//    node than the caller's emits one kRemoteSteal event, which bumps the
//    thread-local remote_steal counter: crossing the interconnect is the
//    expensive event worth gating on, failed remote probes are not.
//  * Batching — enqueue_bulk/dequeue_bulk forward to the shards' batch
//    paths (one ring F&A per chunk instead of per element), spilling the
//    unplaced/unfilled remainder across the same hierarchical sweep.
//
// Ordering contract: each shard is an independent FIFO queue. Elements
// routed through one shard retain per-producer FIFO order; the composition
// does not define a global order across shards (the usual partitioned-queue
// trade: Jiffy-style sharded consumers re-merge by key or don't care).
// Emptiness is likewise per-sweep: a concurrent enqueue racing the sweep may
// be missed, exactly as a dequeue racing a single queue's enqueue may be.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cpu.hpp"
#include "common/event.hpp"
#include "common/topology.hpp"
#include "core/bounded_queue.hpp"
#include "core/wcq.hpp"
#include "runtime/thread_registry.hpp"
#include "scale/index_magazine.hpp"

namespace wcq {

template <typename T, typename Ring = WCQ>
class ShardedQueue {
 public:
  using Shard = BoundedQueue<T, Ring>;

  // Per-thread session (DESIGN.md §10, §12): the caller's node and full
  // hierarchical sweep order resolved once at acquire(), plus one unowned
  // BoundedQueue session per shard — the sweep then touches neither the
  // registry nor the topology. Move-only; the queue aborts if destroyed
  // while owned handles are live (same lifetime contract as the shard
  // handles). Releasing the session flushes this tid's magazine in every
  // shard back to the shard's fq, so a pool worker's cached capacity
  // returns immediately, not at thread exit.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& o) noexcept
        : q_(o.q_), tid_(o.tid_), node_(o.node_),
          sweep_(std::move(o.sweep_)), home_(o.home_),
          shards_(std::move(o.shards_)), owned_(o.owned_) {
      o.q_ = nullptr;
      o.owned_ = false;
    }
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        release();
        q_ = o.q_;
        tid_ = o.tid_;
        node_ = o.node_;
        home_ = o.home_;
        sweep_ = std::move(o.sweep_);
        shards_ = std::move(o.shards_);
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
    // The node this session resolved at acquire(); a thread that migrates
    // afterwards keeps its original placement (sessions are cheap — reacquire
    // to re-home).
    unsigned node() const { return node_; }
    // The session's cached home shard (satellite of DESIGN.md §10: the
    // implicit path recomputes this from the registry tid and current node
    // once per call; the handle never does).
    unsigned home_shard() const { return home_; }
   private:
    friend class ShardedQueue;
    Handle(ShardedQueue* q, unsigned tid, bool owned)
        : q_(q), tid_(tid), node_(q->topo_->current_node()),
          sweep_(q->sweep_order(node_, tid)), home_(sweep_.front()),
          owned_(owned) {
      shards_.reserve(q->shards_.size());
      for (auto& s : q->shards_) shards_.push_back(s->handle_for(tid));
    }

    void release() {
      if (owned_ && q_ != nullptr) {
        // Same ownership transfer as BoundedQueue::acquire()'s handle: the
        // session returns its cached free indices now; the thread-exit
        // hook remains the fallback for implicit use.
        for (auto& s : q_->shards_) s->flush_magazine(tid_);
        q_->live_handles_.fetch_sub(1, std::memory_order_acq_rel);
      }
      q_ = nullptr;
      owned_ = false;
    }

    ShardedQueue* q_ = nullptr;
    unsigned tid_ = 0;
    unsigned node_ = 0;
    std::vector<unsigned> sweep_;  // full hierarchical visit order
    unsigned home_ = 0;
    std::vector<typename Shard::Handle> shards_;
    bool owned_ = false;
  };

  struct Options {
    // Rounded up to a power of two (at least 1).
    unsigned shards = 4;
    // Each shard is an independent BoundedQueue of capacity 2^shard_order.
    unsigned shard_order = 12;
    // Per-thread free-index magazines inside each shard (DESIGN.md §9);
    // home-shard affinity means a thread's magazine hits concentrate on one
    // shard, exactly the locality magazines reward.
    IndexMagazines::Config magazine{};
    // Placement source; nullptr means the process topology
    // (Topology::instance(), i.e. WCQ_TOPOLOGY or the live machine). Tests
    // inject simulated shapes here without touching the environment.
    const Topology* topology = nullptr;
  };

  explicit ShardedQueue(Options opt)
      : topo_(opt.topology != nullptr ? opt.topology
                                      : &Topology::instance()) {
    const unsigned n = std::bit_ceil(opt.shards == 0 ? 1u : opt.shards);
    mask_ = n - 1;
    const unsigned m = topo_->node_count();

    // Contiguous groups: shard i -> node i*m/n. With m > n the trailing
    // nodes own no shards and their threads start the sweep at the nearest
    // node that does; with m <= n every node owns >= floor(n/m) shards.
    shard_node_.resize(n);
    for (unsigned i = 0; i < n; ++i) {
      shard_node_[i] =
          static_cast<unsigned>(static_cast<u64>(i) * m / n);
    }
    local_.assign(m, {});
    for (unsigned i = 0; i < n; ++i) local_[shard_node_[i]].push_back(i);

    // Canonical per-node visit order: own group first, then each remote
    // node's group nearest-first (Topology::remote_order). Every shard
    // appears exactly once; per-(thread, node) sweeps only rotate the
    // leading local segment.
    order_.resize(m);
    for (unsigned t = 0; t < m; ++t) {
      auto& ord = order_[t];
      ord = local_[t];
      for (unsigned r : topo_->remote_order(t)) {
        ord.insert(ord.end(), local_[r].begin(), local_[r].end());
      }
    }

    shards_.resize(n);
    auto build_range = [&](unsigned lo, unsigned hi) {
      for (unsigned i = lo; i < hi; ++i) {
        shards_[i] = std::make_unique<Shard>(
            typename Shard::Options{opt.shard_order, opt.magazine});
      }
    };
    if (m > 1 && !topo_->simulated()) {
      // First-touch: one builder thread per node group, pinned to the
      // owning node, so each group's ring arrays fault into that node's
      // memory. Simulated topologies skip this — their nodes have no
      // distinct physical memory to touch.
      std::vector<std::thread> builders;
      for (unsigned t = 0; t < m; ++t) {
        if (local_[t].empty()) continue;
        const unsigned lo = local_[t].front();
        const unsigned hi = local_[t].back() + 1;
        builders.emplace_back([this, build_range, t, lo, hi] {
          pin_thread(0,
                     Topology::PinSpec{Topology::PinPolicy::kNode, t},
                     *topo_);
          build_range(lo, hi);
        });
      }
      for (auto& b : builders) b.join();
    } else {
      build_range(0, n);
    }
  }

  ShardedQueue(unsigned shards, unsigned shard_order)
      : ShardedQueue(Options{shards, shard_order}) {}

  ~ShardedQueue() {
    const int live = live_handles_.load(std::memory_order_acquire);
    if (live != 0) {
      std::fprintf(stderr,
                   "wcq: ShardedQueue destroyed with %d live session "
                   "handle(s); destroy handles before their queue\n",
                   live);
      std::abort();
    }
  }

  ShardedQueue(const ShardedQueue&) = delete;
  ShardedQueue& operator=(const ShardedQueue&) = delete;

  unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }
  u64 capacity() const { return shard_count() * shards_[0]->capacity(); }
  Shard& shard(unsigned i) { return *shards_[i]; }
  const Shard& shard(unsigned i) const { return *shards_[i]; }
  const Topology& topology() const { return *topo_; }

  // Node owning shard `i` under this queue's placement.
  unsigned shard_node(unsigned i) const { return shard_node_[i]; }

  // The full hierarchical visit order for a thread `tid` on `node`: the
  // local group rotated to start at the home shard, then remote groups
  // nearest-node-first. Exposed for tests; Handle caches exactly this.
  std::vector<unsigned> sweep_order(unsigned node, unsigned tid) const {
    const Sweep sw = sweep_for(node, tid);
    std::vector<unsigned> out(sw.n);
    for (unsigned s = 0; s < sw.n; ++s) out[s] = sw.at(s);
    return out;
  }

  // Home shard for a thread `tid` homed on `node`: its slot in the node's
  // local group (the flat-topology case reduces to tid & (shards-1)), or
  // the nearest populated node's first shard when `node` owns none.
  unsigned home_shard_for(unsigned node, unsigned tid) const {
    return sweep_for(node, tid).at(0);
  }
  // The calling thread's home shard (tests pin expectations to this; stays
  // consistent with Handle::home_shard() for a handle acquired here).
  unsigned home_shard() const {
    return home_shard_for(topo_->current_node(), ThreadRegistry::tid());
  }

  // Owned per-thread session: one registry lookup and one topology
  // resolution now, none per operation.
  Handle acquire() {
    live_handles_.fetch_add(1, std::memory_order_acq_rel);
    return Handle(this, ThreadRegistry::tid(), /*owned=*/true);
  }

  // --- operations ----------------------------------------------------------

  // False only after every shard rejected the element during one sweep.
  bool enqueue(T value) { return enqueue_movable(value); }

  bool enqueue(Handle& h, T value) { return enqueue_movable(h, value); }

  // Value-preserving variant (mirrors BoundedQueue::enqueue_movable): `value`
  // is moved from only on success, so retry loops — the blocking Channel send
  // path — can re-offer the same element after a full sweep failed.
  bool enqueue_movable(Handle& h, T& value) {
    return enqueue_movable(sweep_for(h), value);
  }
  bool enqueue_movable(T& value) {
    return enqueue_movable(sweep_here(), value);
  }

  // Nullopt only after a full steal sweep found every shard empty.
  std::optional<T> dequeue() { return dequeue(sweep_here()); }
  std::optional<T> dequeue(Handle& h) { return dequeue(sweep_for(h)); }

  // Read-only readiness hint (BoundedQueue::maybe_nonempty) over the shards
  // the session's dequeue sweep visits: true if any of them may hold an
  // element.
  bool maybe_nonempty(const Handle& h) const {
    for (const unsigned i : h.sweep_) {
      if (shards_[i]->maybe_nonempty(h.shards_[i])) return true;
    }
    return false;
  }

  // Batch insert: places up to `n` elements (home shard first, spilling the
  // remainder across the sweep) and returns how many were taken; exactly the
  // first `ret` elements of `first` are moved-from. Partial success means
  // every shard filled up during the sweep. Remote accounting is per shard
  // visit that transferred at least one element, not per element.
  template <typename U,
            std::enable_if_t<std::is_same_v<std::remove_const_t<U>, T>, int> = 0>
  std::size_t enqueue_bulk(U* first, std::size_t n) {
    return enqueue_bulk(sweep_here(), first, n);
  }
  template <typename U,
            std::enable_if_t<std::is_same_v<std::remove_const_t<U>, T>, int> = 0>
  std::size_t enqueue_bulk(Handle& h, U* first, std::size_t n) {
    return enqueue_bulk(sweep_for(h), first, n);
  }

  // Batch remove: fills `out` from the home shard first, then steals across
  // the sweep. Returns how many were dequeued; fewer than `n` does not prove
  // emptiness (see the shard-level contract), dequeue() does.
  std::size_t dequeue_bulk(T* out, std::size_t n) {
    return dequeue_bulk(sweep_here(), out, n);
  }
  std::size_t dequeue_bulk(Handle& h, T* out, std::size_t n) {
    return dequeue_bulk(sweep_for(h), out, n);
  }

 private:
  using ShardHandle = typename Shard::Handle;

  // One hierarchical sweep, unmaterialized: visit s < local_n walks `local`
  // rotated to start at `rot`, later visits read `rest[s]` (DESIGN.md §12).
  // The implicit path builds it from the node's canonical order per call
  // without allocating; a handle's cached order is an unrotated `local`.
  // `node` is the session node remote steals are judged against;
  // `sessions` is the handle's per-shard sessions, or nullptr to build an
  // unowned view from `tid` per visit.
  struct Sweep {
    const unsigned* local;
    unsigned local_n;
    unsigned rot;
    const unsigned* rest;
    unsigned n;
    unsigned node;
    unsigned tid;
    ShardHandle* sessions;

    unsigned at(unsigned s) const {
      if (s >= local_n) return rest[s];
      const unsigned k = rot + s;
      return local[k < local_n ? k : k - local_n];
    }
  };

  Sweep sweep_for(unsigned node, unsigned tid) const {
    const auto& loc = local_[node];
    const auto L = static_cast<unsigned>(loc.size());
    return Sweep{loc.data(), L, L != 0 ? tid % L : 0, order_[node].data(),
                 shard_count(), node, tid, nullptr};
  }
  Sweep sweep_here() const {
    return sweep_for(topo_->current_node(), ThreadRegistry::tid());
  }
  static Sweep sweep_for(Handle& h) {
    const auto n = static_cast<unsigned>(h.sweep_.size());
    return Sweep{h.sweep_.data(), n, 0, h.sweep_.data(), n,
                 h.node_, h.tid_, h.shards_.data()};
  }

  // The steal sweep behind every operation: visit shards in order until
  // `want` elements moved. `visit(shard, session, done)` runs one shard
  // operation and returns how many elements it moved; a visit that moved
  // any on a shard homed off the session's node is one remote steal.
  template <typename Visit>
  std::size_t sweep(const Sweep& sw, std::size_t want, Visit visit) {
    std::size_t done = 0;
    for (unsigned s = 0; s < sw.n && done < want; ++s) {
      const unsigned i = sw.at(s);
      ShardHandle view;
      if (sw.sessions == nullptr) view = shards_[i]->handle_for(sw.tid);
      const std::size_t got = visit(
          *shards_[i], sw.sessions != nullptr ? sw.sessions[i] : view, done);
      if (got != 0 && shard_node_[i] != sw.node) WCQ_EVENT(kRemoteSteal);
      done += got;
    }
    return done;
  }

  bool enqueue_movable(const Sweep& sw, T& value) {
    return sweep(sw, 1, [&](Shard& q, ShardHandle& qh, std::size_t) {
             return std::size_t{q.enqueue_movable(qh, value)};
           }) != 0;
  }

  std::optional<T> dequeue(const Sweep& sw) {
    std::optional<T> v;
    sweep(sw, 1, [&](Shard& q, ShardHandle& qh, std::size_t) {
      v = q.dequeue(qh);
      return std::size_t{v.has_value()};
    });
    return v;
  }

  template <typename U>
  std::size_t enqueue_bulk(const Sweep& sw, U* first, std::size_t n) {
    return sweep(sw, n, [&](Shard& q, ShardHandle& qh, std::size_t done) {
      return q.enqueue_bulk(qh, first + done, n - done);
    });
  }

  std::size_t dequeue_bulk(const Sweep& sw, T* out, std::size_t n) {
    return sweep(sw, n, [&](Shard& q, ShardHandle& qh, std::size_t done) {
      return q.dequeue_bulk(qh, out + done, n - done);
    });
  }

  const Topology* topo_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<unsigned> shard_node_;           // shard -> owning node
  std::vector<std::vector<unsigned>> local_;   // node -> its shard group
  std::vector<std::vector<unsigned>> order_;   // node -> canonical sweep
  unsigned mask_ = 0;
  std::atomic<int> live_handles_{0};
};

}  // namespace wcq
