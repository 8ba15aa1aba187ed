// ShardedQueue (src/scale/, DESIGN.md §7) tests.
//
// The composition's contract is weaker than a single queue's — no global
// FIFO across shards — so the checks split into:
//   * exactly-once under MPMC traffic (the count-style harness guarantee),
//   * per-shard FIFO: items that went through one shard stay in per-producer
//     order inside it,
//   * sweep semantics: emptiness/fullness only after a full steal sweep,
//   * batch partial-success semantics at the full/empty edges.
#include "scale/sharded_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "mpmc_harness.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

TEST(ShardedQueue, ShardCountRoundsUpToPowerOfTwo) {
  ShardedQueue<u64> q3(3, 4);
  EXPECT_EQ(q3.shard_count(), 4u);
  ShardedQueue<u64> q0(0, 4);
  EXPECT_EQ(q0.shard_count(), 1u);
  ShardedQueue<u64> q8(8, 4);
  EXPECT_EQ(q8.shard_count(), 8u);
  EXPECT_EQ(q8.capacity(), 8u * q8.shard(0).capacity());
}

TEST(ShardedQueue, SingleThreadFifo) {
  // One thread keeps one home shard, so single-threaded use is strict FIFO.
  ShardedQueue<u64> q(4, 6);
  testing::run_sequential_fifo(q, q.shard(0).capacity());
}

TEST(ShardedQueue, SingleThreadWraparound) {
  ShardedQueue<u64> q(2, 4);
  testing::run_sequential_wraparound(q, q.shard(0).capacity(), 100);
}

TEST(ShardedQueue, SpillsToOtherShardsWhenHomeFull) {
  ShardedQueue<u64> q(4, 3);
  // A single thread can fill the ENTIRE composition: once home is full the
  // sweep spills to the other shards; enqueue fails only when all are full.
  for (u64 i = 0; i < q.capacity(); ++i) {
    ASSERT_TRUE(q.enqueue(i)) << "spill failed at " << i;
  }
  EXPECT_FALSE(q.enqueue(999)) << "all shards full: enqueue must fail";
  // Everything is retrievable (home + steal sweep), exactly once.
  std::vector<bool> seen(q.capacity(), false);
  for (u64 i = 0; i < q.capacity(); ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_LT(*v, q.capacity());
    ASSERT_FALSE(seen[*v]);
    seen[*v] = true;
  }
  EXPECT_FALSE(q.dequeue().has_value()) << "empty only after full sweep";
}

TEST(ShardedQueue, StealFindsElementFromForeignShard) {
  ShardedQueue<u64> q(8, 4);
  // Plant one element in every shard directly; a consumer thread (whatever
  // its home shard) must find all of them via the steal sweep.
  for (unsigned s = 0; s < q.shard_count(); ++s) {
    ASSERT_TRUE(q.shard(s).enqueue(u64{s} + 100));
  }
  std::thread consumer([&] {
    std::vector<bool> found(q.shard_count(), false);
    for (unsigned s = 0; s < q.shard_count(); ++s) {
      auto v = q.dequeue();
      ASSERT_TRUE(v.has_value()) << "steal sweep missed an element";
      found[*v - 100] = true;
    }
    for (unsigned s = 0; s < q.shard_count(); ++s) EXPECT_TRUE(found[s]);
    EXPECT_FALSE(q.dequeue().has_value());
  });
  consumer.join();
}

TEST(ShardedQueue, ReadinessHintCoversTheSweep) {
  // maybe_nonempty() answers for every shard the session's dequeue sweep
  // visits, not just the home shard (Channel over ShardedQueue polls it).
  ShardedQueue<u64> q(4, 4);
  auto h = q.acquire();
  EXPECT_FALSE(q.maybe_nonempty(h));
  const unsigned foreign = (h.home_shard() + 1) % q.shard_count();
  ASSERT_TRUE(q.shard(foreign).enqueue(7));
  EXPECT_TRUE(q.maybe_nonempty(h)) << "element in a non-home shard";
  auto v = q.dequeue(h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7u);
  EXPECT_FALSE(q.maybe_nonempty(h));
}

TEST(ShardedQueue, BulkPartialSuccessAtFullAndEmpty) {
  ShardedQueue<u64> q(2, 3);  // capacity 16 total
  std::vector<u64> in(q.capacity() + 5);
  for (u64 i = 0; i < in.size(); ++i) in[i] = i;
  // Overfilling span: exactly capacity() accepted, the tail rejected.
  EXPECT_EQ(q.enqueue_bulk(in.data(), in.size()), q.capacity());
  EXPECT_FALSE(q.enqueue(777));
  // Over-draining span: exactly capacity() returned.
  std::vector<u64> out(in.size(), ~u64{0});
  const std::size_t got = q.dequeue_bulk(out.data(), out.size());
  EXPECT_EQ(got, q.capacity());
  std::vector<bool> seen(q.capacity(), false);
  for (std::size_t i = 0; i < got; ++i) {
    ASSERT_LT(out[i], q.capacity());
    ASSERT_FALSE(seen[out[i]]);
    seen[out[i]] = true;
  }
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_EQ(q.dequeue_bulk(out.data(), 4), 0u) << "bulk dequeue on empty";
}

TEST(ShardedQueue, MoveOnlyPayload) {
  ShardedQueue<std::unique_ptr<int>, WCQ> q(2, 3);
  ASSERT_TRUE(q.enqueue(std::make_unique<int>(7)));
  // Fill home so a later enqueue must spill: ownership must survive the
  // failed enqueue_movable attempts along the sweep.
  while (q.enqueue(std::make_unique<int>(0))) {
  }
  u64 drained = 0;
  while (q.dequeue()) ++drained;
  EXPECT_EQ(drained, q.capacity());
}

// ---- multi-threaded (stress tier via the *Mpmc* name pattern) -------------

TEST(ShardedQueueMpmc, ExactlyOnceFourPlusThreads) {
  ShardedQueue<u64> q(4, 10);
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 20000;
  // Exactly-once holds globally; FIFO does not cross shards.
  testing::run_mpmc_exactly_once(q, cfg, /*check_fifo=*/false);
}

TEST(ShardedQueueMpmc, ExactlyOnceTinyShardsBackpressure) {
  ShardedQueue<u64> q(4, 2);  // 16 slots total: constant spill + steal
  testing::MpmcConfig cfg;
  cfg.producers = 3;
  cfg.consumers = 3;
  cfg.items_per_producer = 8000;
  testing::run_mpmc_exactly_once(q, cfg, /*check_fifo=*/false);
}

TEST(ShardedQueueMpmc, BulkExactlyOnce) {
  ShardedQueue<u64> q(4, 9);
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 16000;
  testing::run_mpmc_bulk_exactly_once(q, cfg, /*max_batch=*/16,
                                      /*check_fifo=*/false);
}

TEST(ShardedQueueMpmc, PerShardFifoFourProducers) {
  // Producers stamp (producer, seq) tags; after the run each shard is
  // drained directly and every producer's sequence must be increasing
  // WITHIN that shard — the ordering contract the front-end does promise.
  ShardedQueue<u64> q(4, 12);
  constexpr unsigned kProducers = 4;
  // Spill is fine: a sequential producer's items land in each shard in
  // program order no matter how the sweep routes them, so the per-shard
  // check holds with or without overflow into neighbors. When the scaled
  // item count outgrows the composition a concurrent drainer makes room,
  // checking the same property on the prefix it consumes.
  const u64 per_producer = testing::scale_items(20000);
  const bool fits = kProducers * per_producer <= q.capacity() / 2;
  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::atomic<u64> drained_during{0};
  std::thread drainer;  // only needed when the items outgrow the capacity
  std::map<unsigned, std::map<unsigned, u64>> drain_last;  // shard -> p -> seq
  if (!fits) {
    drainer = std::thread([&] {
      // Drain from each shard directly (not via the sweep) so the per-shard
      // FIFO property can be checked on the fly for the drained prefix.
      Backoff bo;
      while (!done.load(std::memory_order_acquire)) {
        bool any = false;
        for (unsigned s = 0; s < q.shard_count(); ++s) {
          if (auto v = q.shard(s).dequeue()) {
            const unsigned p = static_cast<unsigned>(*v >> 32);
            const u64 seq = *v & 0xFFFFFFFFu;
            auto& last = drain_last[s];
            const auto it = last.find(p);
            if (it != last.end()) {
              ASSERT_GT(seq, it->second) << "per-shard FIFO (drain) shard "
                                         << s << " producer " << p;
            }
            last[p] = seq;
            drained_during.fetch_add(1, std::memory_order_relaxed);
            any = true;
          }
        }
        if (any) {
          bo.reset();
        } else {
          bo.pause();
        }
      }
    });
  }
  std::vector<std::thread> ts;
  for (unsigned p = 0; p < kProducers; ++p) {
    ts.emplace_back([&, p] {
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      for (u64 i = 0; i < per_producer; ++i) {
        bo.reset();
        while (!q.enqueue(testing::tag(p, i))) bo.pause();
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& t : ts) t.join();
  done.store(true, std::memory_order_release);
  if (drainer.joinable()) drainer.join();

  u64 total = drained_during.load();
  for (unsigned s = 0; s < q.shard_count(); ++s) {
    std::map<unsigned, u64> last_seq;
    while (auto v = q.shard(s).dequeue()) {
      const unsigned p = static_cast<unsigned>(*v >> 32);
      const u64 seq = *v & 0xFFFFFFFFu;
      ASSERT_LT(p, kProducers);
      const auto it = last_seq.find(p);
      if (it != last_seq.end()) {
        ASSERT_GT(seq, it->second)
            << "per-shard FIFO violated in shard " << s << " producer " << p;
      }
      last_seq[p] = seq;
      ++total;
    }
  }
  EXPECT_EQ(total, kProducers * per_producer);
  EXPECT_FALSE(q.dequeue().has_value());
}

}  // namespace
}  // namespace wcq
