// Topology-aware ShardedQueue tests (DESIGN.md §12).
//
// Everything here injects a simulated Topology through
// ShardedQueue::Options::topology and stages threads on nominal nodes with
// ScopedThreadNode, so the multi-node placement logic runs deterministically
// on any host:
//   * placement: contiguous shard->node groups,
//   * visit order: local group (rotated to the home shard) before remote
//     groups, nearest node first, each shard exactly once,
//   * remote_steal accounting: successful remote completions only,
//   * handle caching: node and sweep are fixed at acquire(),
//   * the MPMC exactly-once / per-shard-FIFO contracts survive cross-node
//     traffic and stealing.
#include "scale/sharded_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "common/op_counters.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "mpmc_harness.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

Topology two_node() { return *Topology::from_spec("0-1;2-3"); }

template <typename T = u64>
ShardedQueue<T> make_queue(const Topology& topo, unsigned shards,
                           unsigned order) {
  typename ShardedQueue<T>::Options opt;
  opt.shards = shards;
  opt.shard_order = order;
  opt.topology = &topo;
  return ShardedQueue<T>(std::move(opt));
}

TEST(ShardedTopology, ShardsPartitionAcrossNodesContiguously) {
  const Topology topo = two_node();
  auto q4 = make_queue(topo, 4, 4);
  EXPECT_EQ(q4.shard_node(0), 0u);
  EXPECT_EQ(q4.shard_node(1), 0u);
  EXPECT_EQ(q4.shard_node(2), 1u);
  EXPECT_EQ(q4.shard_node(3), 1u);
  auto q8 = make_queue(topo, 8, 4);
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(q8.shard_node(i), i < 4 ? 0u : 1u) << "shard " << i;
  }
}

TEST(ShardedTopology, VisitOrderLocalBeforeRemoteEachShardOnce) {
  const Topology topo = two_node();
  auto q = make_queue(topo, 4, 4);
  // Node 0 owns shards {0,1}, node 1 owns {2,3}; tid rotates the local
  // leading segment, the remote tail is the canonical group order.
  EXPECT_EQ(q.sweep_order(0, 0), (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(q.sweep_order(0, 1), (std::vector<unsigned>{1, 0, 2, 3}));
  EXPECT_EQ(q.sweep_order(1, 0), (std::vector<unsigned>{2, 3, 0, 1}));
  EXPECT_EQ(q.sweep_order(1, 5), (std::vector<unsigned>{3, 2, 0, 1}));
  // Bounded sweep: every (node, tid) visits each shard exactly once.
  for (unsigned node = 0; node < 2; ++node) {
    for (unsigned tid = 0; tid < 8; ++tid) {
      auto sweep = q.sweep_order(node, tid);
      ASSERT_EQ(sweep.size(), q.shard_count());
      EXPECT_EQ(sweep.front(), q.home_shard_for(node, tid));
      std::sort(sweep.begin(), sweep.end());
      EXPECT_EQ(sweep, (std::vector<unsigned>{0, 1, 2, 3}));
    }
  }
}

TEST(ShardedTopology, VisitOrderFlatTopologyMatchesLegacyRing) {
  // One node: the hierarchy degenerates to the pre-topology ring sweep
  // starting at tid & (shards-1).
  const Topology topo = Topology::flat(4);
  auto q = make_queue(topo, 4, 4);
  for (unsigned tid = 0; tid < 8; ++tid) {
    const auto sweep = q.sweep_order(0, tid);
    for (unsigned s = 0; s < 4; ++s) {
      EXPECT_EQ(sweep[s], (tid + s) & 3u) << "tid " << tid << " step " << s;
    }
  }
}

TEST(ShardedTopology, VisitOrderCrossesNearestNodeFirst) {
  // The asym fixture's distance matrix says node 2's nearest remote is node
  // 1 (d=21) then node 0 (d=31) — the reverse of ring order. 4 shards over
  // 3 nodes: node 0 owns {0,1}, node 1 owns {2}, node 2 owns {3}.
  const auto topo = Topology::from_sysfs(
      std::string(WCQ_TEST_FIXTURE_DIR) + "/sysfs/asym", /*simulated=*/true);
  ASSERT_TRUE(topo.has_value());
  auto q = make_queue(*topo, 4, 4);
  EXPECT_EQ(q.shard_node(2), 1u);
  EXPECT_EQ(q.shard_node(3), 2u);
  EXPECT_EQ(q.sweep_order(2, 0), (std::vector<unsigned>{3, 2, 0, 1}));
}

TEST(ShardedTopology, NodesWithoutShardsStartAtNearestPopulatedNode) {
  // 4 nodes, 2 shards: nodes 1 and 3 own nothing. Their sweeps start at the
  // nearest populated node's group and still cover every shard once.
  const auto topo = Topology::from_spec("0;1;2;3");
  ASSERT_TRUE(topo.has_value());
  auto q = make_queue(*topo, 2, 4);
  EXPECT_EQ(q.shard_node(0), 0u);
  EXPECT_EQ(q.shard_node(1), 2u);
  // Ring remote order for node 1 is [2, 3, 0]; node 2 owns shard 1.
  EXPECT_EQ(q.sweep_order(1, 7), (std::vector<unsigned>{1, 0}));
  EXPECT_EQ(q.home_shard_for(1, 3), 1u);
  EXPECT_EQ(q.home_shard_for(3, 3), 0u);  // node 3's nearest is node 0
}

TEST(ShardedTopology, HomeShardFollowsStagedNode) {
  const Topology topo = two_node();
  auto q = make_queue(topo, 4, 4);
  const unsigned tid = ThreadRegistry::tid();
  {
    ScopedThreadNode on_node0(0);
    EXPECT_EQ(q.home_shard(), q.home_shard_for(0, tid));
    EXPECT_EQ(q.shard_node(q.home_shard()), 0u);
  }
  {
    ScopedThreadNode on_node1(1);
    EXPECT_EQ(q.home_shard(), q.home_shard_for(1, tid));
    EXPECT_EQ(q.shard_node(q.home_shard()), 1u);
  }
}

TEST(ShardedTopology, RemoteStealCountsOnlySuccessfulRemoteOps) {
  const Topology topo = two_node();
  auto q = make_queue(topo, 4, 4);
  ScopedThreadNode on_node1(1);
  const u64 base = opcount::snapshot().remote_steal;

  // A failed full sweep probes every remote shard but completes nothing.
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_EQ(opcount::snapshot().remote_steal, base);

  // Local traffic: enqueue lands on the home shard (node 1), dequeue finds
  // it there. No interconnect crossing, no count.
  ASSERT_TRUE(q.enqueue(7));
  ASSERT_EQ(q.dequeue(), std::optional<u64>(7));
  EXPECT_EQ(opcount::snapshot().remote_steal, base);

  // An element planted on a node-0 shard is only reachable by stealing.
  ASSERT_TRUE(q.shard(0).enqueue(42));
  ASSERT_EQ(q.dequeue(), std::optional<u64>(42));
  EXPECT_EQ(opcount::snapshot().remote_steal, base + 1);
}

TEST(ShardedTopology, RemoteSpillOnEnqueueCountsAsSteal) {
  // 2 shards, one per node; stage on node 1 so shard 1 is home. Filling it
  // locally is free; the first spill onto node 0's shard crosses the
  // interconnect and must count.
  const Topology topo = two_node();
  auto q = make_queue(topo, 2, 3);
  ScopedThreadNode on_node1(1);
  const u64 base = opcount::snapshot().remote_steal;
  const u64 cap = q.shard(1).capacity();
  for (u64 i = 0; i < cap; ++i) ASSERT_TRUE(q.enqueue(i));
  EXPECT_EQ(opcount::snapshot().remote_steal, base);
  ASSERT_TRUE(q.enqueue(cap));  // home full: spills to shard 0 (node 0)
  EXPECT_EQ(opcount::snapshot().remote_steal, base + 1);
}

TEST(ShardedTopology, HandleCachesNodeAndSweepAtAcquire) {
  const Topology topo = two_node();
  auto q = make_queue(topo, 4, 4);
  ScopedThreadNode on_node1(1);
  auto h = q.acquire();
  EXPECT_EQ(h.node(), 1u);
  EXPECT_EQ(h.home_shard(), q.home_shard_for(1, h.tid()));
  EXPECT_EQ(q.shard_node(h.home_shard()), 1u);

  // The session keeps its acquire()-time placement after the thread
  // migrates: ops and their remote accounting stay relative to node 1.
  ScopedThreadNode migrated(0);
  const u64 base = opcount::snapshot().remote_steal;
  ASSERT_TRUE(q.shard(h.home_shard()).enqueue(11));
  ASSERT_EQ(q.dequeue(h), std::optional<u64>(11));  // home hit: not remote
  EXPECT_EQ(opcount::snapshot().remote_steal, base);
  ASSERT_TRUE(q.shard(0).enqueue(22));  // node 0: remote *to the handle*
  ASSERT_EQ(q.dequeue(h), std::optional<u64>(22));
  EXPECT_EQ(opcount::snapshot().remote_steal, base + 1);
}

// ---- cross-node MPMC (stress tier via the *Mpmc* name pattern) -------------

// Adapter staging each harness thread on a nominal node (tid % nodes) for
// the duration of every operation, so producers and consumers split across
// the simulated topology and the steal path carries real traffic.
template <typename Q>
struct NodeStaged {
  Q& q;
  unsigned nodes;
  unsigned stage() const { return ThreadRegistry::tid() % nodes; }
  bool enqueue(u64 v) {
    ScopedThreadNode s(stage());
    return q.enqueue(v);
  }
  std::optional<u64> dequeue() {
    ScopedThreadNode s(stage());
    return q.dequeue();
  }
  std::size_t enqueue_bulk(u64* first, std::size_t n) {
    ScopedThreadNode s(stage());
    return q.enqueue_bulk(first, n);
  }
  std::size_t dequeue_bulk(u64* out, std::size_t n) {
    ScopedThreadNode s(stage());
    return q.dequeue_bulk(out, n);
  }
};

TEST(ShardedTopologyMpmc, ExactlyOnceAcrossTwoNodes) {
  const Topology topo = two_node();
  auto q = make_queue(topo, 4, 10);
  NodeStaged<decltype(q)> staged{q, topo.node_count()};
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 20000;
  testing::run_mpmc_exactly_once(staged, cfg, /*check_fifo=*/false);
}

TEST(ShardedTopologyMpmc, ExactlyOnceTinyShardsCrossNodeBackpressure) {
  // 16 slots total: constant spill and steal across the node boundary.
  const Topology topo = two_node();
  auto q = make_queue(topo, 4, 2);
  NodeStaged<decltype(q)> staged{q, topo.node_count()};
  testing::MpmcConfig cfg;
  cfg.producers = 3;
  cfg.consumers = 3;
  cfg.items_per_producer = 8000;
  testing::run_mpmc_exactly_once(staged, cfg, /*check_fifo=*/false);
}

TEST(ShardedTopologyMpmc, BulkExactlyOnceAcrossTwoNodes) {
  const Topology topo = two_node();
  auto q = make_queue(topo, 4, 9);
  NodeStaged<decltype(q)> staged{q, topo.node_count()};
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 16000;
  testing::run_mpmc_bulk_exactly_once(staged, cfg, /*max_batch=*/16,
                                      /*check_fifo=*/false);
}

TEST(ShardedTopologyMpmc, HandleSessionsAcrossTwoNodes) {
  // Sessions acquired on both nodes: two producers and two consumers, each
  // with a handle homed on its staged node; exactly-once must hold through
  // the cached sweeps.
  const Topology topo = two_node();
  auto q = make_queue(topo, 4, 10);
  constexpr unsigned kProducers = 2, kConsumers = 2;
  const u64 per_producer = testing::scale_items(16000);
  const u64 total = per_producer * kProducers;
  std::atomic<u64> consumed{0};
  std::vector<std::vector<u64>> logs(kConsumers);
  std::vector<std::thread> ts;
  for (unsigned p = 0; p < kProducers; ++p) {
    ts.emplace_back([&, p] {
      ScopedThreadNode stage(p % 2);
      auto h = q.acquire();
      Backoff bo;
      for (u64 i = 0; i < per_producer; ++i) {
        bo.reset();
        while (!q.enqueue(h, testing::tag(p, i))) bo.pause();
      }
    });
  }
  for (unsigned c = 0; c < kConsumers; ++c) {
    ts.emplace_back([&, c] {
      ScopedThreadNode stage(c % 2);
      auto h = q.acquire();
      auto& log = logs[c];
      Backoff bo;
      while (consumed.load(std::memory_order_relaxed) < total) {
        if (auto v = q.dequeue(h)) {
          log.push_back(*v);
          consumed.fetch_add(1, std::memory_order_relaxed);
          bo.reset();
        } else {
          bo.pause();
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  ASSERT_EQ(consumed.load(), total);
  EXPECT_FALSE(q.dequeue().has_value());
  testing::MpmcConfig cfg;
  cfg.producers = kProducers;
  cfg.consumers = kConsumers;
  testing::check_consumer_logs(logs, cfg, per_producer, /*check_fifo=*/false);
}

// Placement gate (DESIGN.md §12): 4 workers staged on node 0 of the
// simulated 0-1;2-3 topology run a seeded 50/50 mix. Each homes on a node-0
// shard and node 1's shards are never populated, so not one call may
// complete on a remote shard. The shards hold every enqueue of the run, so
// a home shard never fills and no spill is legitimate either.
TEST(ShardedTopologyMpmc, NodeConfinedP5050CompletesNothingRemotely) {
  constexpr unsigned kThreads = 4;
  constexpr u64 kOpsPerThread = 4000;
  const Topology topo = two_node();
  auto q = make_queue(topo, 4, 14);
  ASSERT_GE(q.shard(0).capacity(), kThreads * kOpsPerThread);
  std::atomic<u64> remote{0}, full{0};
  std::atomic<unsigned> homed_off_node{0};
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ScopedThreadNode on_node0(0);
      if (q.shard_node(q.home_shard()) != 0) homed_off_node.fetch_add(1);
      Xoshiro256 rng{0x70b0ULL + t};
      const u64 before = opcount::snapshot().remote_steal;
      for (u64 i = 0; i < kOpsPerThread; ++i) {
        if (!rng.coin()) {
          (void)q.dequeue();
        } else if (!q.enqueue(i)) {
          full.fetch_add(1);
        }
      }
      remote.fetch_add(opcount::snapshot().remote_steal - before);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(homed_off_node.load(), 0u);
  EXPECT_EQ(full.load(), 0u);
  EXPECT_EQ(remote.load(), 0u);
}

TEST(ShardedTopologyMpmc, PerShardFifoAcrossTwoNodes) {
  // Producers staged on alternating nodes; after the run each shard must
  // still hold every producer's items in increasing sequence order — the
  // hierarchical sweep reroutes items but never reorders one producer's
  // items within a shard.
  const Topology topo = two_node();
  auto q = make_queue(topo, 4, 12);
  constexpr unsigned kProducers = 4;
  const u64 per_producer =
      std::min<u64>(testing::scale_items(8000),
                    q.capacity() / (2 * kProducers));
  std::atomic<bool> start{false};
  std::vector<std::thread> ts;
  for (unsigned p = 0; p < kProducers; ++p) {
    ts.emplace_back([&, p] {
      ScopedThreadNode stage(p % 2);
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

  u64 total = 0;
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
