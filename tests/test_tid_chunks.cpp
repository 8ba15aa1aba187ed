// Per-thread state in chunks of 8 tids (common/tid_chunks.hpp, DESIGN.md
// §8/§9).
//
// wCQ help records and magazine blocks are allocated per chunk of 8 tids,
// the first time one of those tids uses the queue, instead of for every
// possible tid. These tests pin the three properties that depend on it:
//
//  * memory follows the formula: entries + data + one chunk set per
//    installed chunk index + a constant, with no kMaxThreads term;
//  * racing first uses of one chunk leave exactly one chunk and leak none;
//  * scanners skip chunks that are not installed and go on: the help scan
//    and finalize_request still reach a request one chunk past a gap.
//
// The binary is built with WCQ_ANALYSIS=1 (tests/CMakeLists.txt): the gap
// test stalls threads at chosen ring events through the analysis hook.
#include "common/tid_chunks.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/alloc_meter.hpp"
#include "common/event.hpp"
#include "core/bounded_queue.hpp"
#include "core/wcq.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

constexpr unsigned kChunk = TidChunks<int>::kTidsPerChunk;

// First chunk index a queue built now leaves uninstalled: construction
// installs the chunks below the registry high water.
unsigned first_uninstalled_chunk() {
  (void)ThreadRegistry::tid();
  return (ThreadRegistry::high_water() + kChunk - 1) / kChunk;
}

std::int64_t round_up(std::int64_t v, std::int64_t a) {
  return (v + a - 1) / a * a;
}

// --- the primitive ---------------------------------------------------------

// Tids visited by for_each: 8 per installed chunk.
template <typename T>
unsigned installed_tids(const TidChunks<T>& c) {
  unsigned n = 0;
  c.for_each([&n](T*) { ++n; });
  return n;
}

TEST(TidChunks, GetInstallsOnFirstUsePeekDoesNot) {
  const std::int64_t base = alloc_meter::live_bytes();
  {
    TidChunks<std::atomic<u64>> c(3, kCacheLine);
    EXPECT_EQ(installed_tids(c), 0u);
    EXPECT_EQ(c.peek(10), nullptr);
    EXPECT_EQ(installed_tids(c), 0u) << "peek must not install";
    EXPECT_EQ(alloc_meter::live_bytes() - base, 0);

    std::atomic<u64>* e10 = c.get(10);
    ASSERT_NE(e10, nullptr);
    EXPECT_EQ(installed_tids(c), kChunk);
    EXPECT_EQ(c.peek(10), e10);
    EXPECT_EQ(c.get(10), e10) << "a second get must not reinstall";
    EXPECT_EQ(c.get(8) + 2 * 3, e10) << "tids of one chunk share it";
    EXPECT_EQ(c.peek(7), nullptr) << "chunk 0 is still absent";
    EXPECT_EQ(e10->load(), 0u) << "elements are constructed";
    EXPECT_EQ(c.chunk_bytes(), 3 * kChunk * sizeof(u64));
    EXPECT_EQ(alloc_meter::live_bytes() - base,
              static_cast<std::int64_t>(c.chunk_bytes()));

    c.install_below(9);  // chunks 0 and 1; 1 is already there
    EXPECT_EQ(installed_tids(c), 2 * kChunk);
  }
  EXPECT_EQ(alloc_meter::live_bytes(), base) << "chunks leaked";
}

// --- memory follows the formula --------------------------------------------

// Metered bytes of a BoundedQueue<u64>: both rings' entry pairs, the payload
// array, and per installed chunk index two 8-record ring chunks (a record is
// one 128-byte destructive range) plus one chunk of 8 magazine blocks. No
// term scales with ThreadRegistry::kMaxThreads.
TEST(TidChunksMemory, BoundedQueueBytesFollowChunkFormula) {
  const unsigned k0 = first_uninstalled_chunk();
  ASSERT_LT((k0 + 1) * kChunk, ThreadRegistry::kMaxThreads);
  std::int64_t constant = -1;
  for (unsigned order : {4u, 10u}) {
    const std::int64_t base = alloc_meter::live_bytes();
    BoundedQueue<u64> q(BoundedQueue<u64>::Options{order});
    const auto bytes = [&] { return alloc_meter::live_bytes() - base; };
    const std::int64_t n = std::int64_t{1} << order;
    const std::int64_t entries = 2 * (2 * n) * 16;
    const std::int64_t data = round_up(n * 8, kCacheLine);
    const std::int64_t mag_block =
        round_up(1 + static_cast<std::int64_t>(q.magazine_capacity()), 8) * 8;
    ASSERT_GT(q.magazine_capacity(), 0u);
    const std::int64_t chunk_set =
        2 * kChunk * std::int64_t{kDestructiveRange} + kChunk * mag_block;

    const std::int64_t c = bytes() - entries - data - k0 * chunk_set;
    if (constant < 0) constant = c;
    EXPECT_EQ(c, constant) << "order " << order << ": the constant moved";
    EXPECT_GE(c, 0) << "order " << order;
    EXPECT_LT(c, chunk_set) << "order " << order;

    // A tid in an installed chunk adds nothing.
    {
      auto h = q.handle_for(k0 * kChunk - 1);
      ASSERT_TRUE(q.enqueue(h, 1));
      ASSERT_EQ(q.dequeue(h).value(), 1u);
    }
    EXPECT_EQ(bytes(), entries + data + k0 * chunk_set + c);
    // The first tid of the next chunk adds exactly one chunk of each kind.
    {
      auto h = q.handle_for(k0 * kChunk);
      ASSERT_TRUE(q.enqueue(h, 2));
      ASSERT_EQ(q.dequeue(h).value(), 2u);
    }
    EXPECT_EQ(bytes(), entries + data + (k0 + 1) * chunk_set + c);
    // And its chunk-mates add nothing more.
    {
      auto h = q.handle_for(k0 * kChunk + kChunk - 1);
      ASSERT_TRUE(q.enqueue(h, 3));
      ASSERT_EQ(q.dequeue(h).value(), 3u);
    }
    EXPECT_EQ(bytes(), entries + data + (k0 + 1) * chunk_set + c);
  }
}

// Eight threads take sessions in one uninstalled chunk at the same moment
// and run operations on them. Each of the queue's three per-thread tables
// (aq records, fq records, magazines) must end with exactly one new chunk,
// and destroying the queue must return every metered byte.
TEST(TidChunksMemory, ConcurrentFirstUseInstallsExactlyOneChunk) {
  const unsigned k = first_uninstalled_chunk();
  ASSERT_LT((k + 1) * kChunk, ThreadRegistry::kMaxThreads);
  const std::int64_t base = alloc_meter::live_bytes();
  for (int round = 0; round < 20; ++round) {
    // Order 8: eight magazines of 16 cannot strand the capacity, so no
    // enqueue may report full (the reclaim sweep does not see these tids).
    BoundedQueue<u64> q(BoundedQueue<u64>::Options{8});
    const std::int64_t built = alloc_meter::live_bytes();
    const std::int64_t mag_block =
        round_up(1 + static_cast<std::int64_t>(q.magazine_capacity()), 8) * 8;
    const std::int64_t chunk_set =
        2 * kChunk * std::int64_t{kDestructiveRange} + kChunk * mag_block;

    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::atomic<unsigned> failed{0};
    std::vector<std::thread> ts;
    for (unsigned i = 0; i < kChunk; ++i) {
      ts.emplace_back([&, i] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        auto h = q.handle_for(k * kChunk + i);
        for (u64 v = 0; v < 50; ++v) {
          if (!q.enqueue(h, v) || !q.dequeue(h)) failed.fetch_add(1);
        }
      });
    }
    while (ready.load() < kChunk) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto& t : ts) t.join();
    EXPECT_EQ(failed.load(), 0u);
    ASSERT_EQ(alloc_meter::live_bytes() - built, chunk_set)
        << "round " << round << ": not exactly one chunk per table survived";
  }
  EXPECT_EQ(alloc_meter::live_bytes(), base) << "a losing chunk leaked";
}

// --- scans cross an uninstalled chunk --------------------------------------

// Which ring event each role's thread stops at (the rest run free).
enum Role : int {
  kFree = 0,
  kStallAtCatchup,   // dequeuer: after ⊥-marking the slot, before catchup
  kStallAtSlowHelp,  // requester: request published, slow_F&A not started
  kStallAtProduce,   // helper: request's index produced (Enq=0), no FIN yet
  kConsumer,         // counts finalize_request hits on the requester's record
};
thread_local Role t_role = kFree;

struct Gate {
  std::atomic<bool> stalled{false};
  std::atomic<bool> open{false};
  void block() {
    stalled.store(true, std::memory_order_release);
    while (!open.load(std::memory_order_acquire)) std::this_thread::yield();
  }
};

struct Scene {
  unsigned req_tid = 0;
  u64 req_index = 7;
  Gate dequeuer, requester, helper;
  std::atomic<int> finalize_hits{0};
  std::atomic<bool> dequeuer_done{false};
  std::atomic<bool> helper_done{false};
  std::atomic<bool> release_parked{false};
  std::vector<std::thread> threads;
  const analysis::EventHooks hooks{&Scene::on_event, this};

  Scene() { analysis::install(&hooks); }
  // Opens every gate and joins everything, so a failed expectation cannot
  // leave a stalled thread behind. Declared after the queue and everything
  // the threads use, so it runs first.
  ~Scene() {
    for (Gate* g : {&dequeuer, &requester, &helper}) {
      g->open.store(true, std::memory_order_release);
    }
    release_parked.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    analysis::uninstall();
  }

  static void on_event(void* ctx, Event kind, u64, u64 aux) {
    auto* s = static_cast<Scene*>(ctx);
    switch (t_role) {
      case kStallAtCatchup:
        if (kind == Event::kCatchup && !s->dequeuer.stalled) {
          s->dequeuer.block();
        }
        break;
      case kStallAtSlowHelp:
        if (kind == Event::kSlowHelp && !s->requester.stalled) {
          s->requester.block();
        }
        break;
      case kStallAtProduce:
        if (kind == Event::kRankProduced && aux == s->req_index &&
            !s->helper.stalled) {
          s->helper.block();
        }
        break;
      case kConsumer:
        if (kind == Event::kSlowLocal && aux == s->req_tid) {
          s->finalize_hits.fetch_add(1);
        }
        break;
      case kFree:
        break;
    }
  }
};

bool wait_until(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// A tid one chunk past an uninstalled chunk leaves a pending slow-path
// enqueue. Another tid's help scan must still reach it and produce its
// index, and the consumer of that Enq=0 entry must still find the request
// in finalize_request. Both scans run over [0, high_water), which parked
// threads raise past the request's tid; nobody uses a tid of the gap chunk
// on this ring, so it stays absent.
TEST(TidChunksHelping, HelpAndFinalizeReachPastAnUninstalledChunk) {
  const unsigned gap = first_uninstalled_chunk();
  ASSERT_LT((gap + 1) * kChunk, ThreadRegistry::kMaxThreads);
  WCQ::Options o;
  o.order = 3;
  o.enq_patience = 1;  // one failed rank sends the enqueue to the slow path
  o.help_delay = 1;    // every operation checks one help candidate
  WCQ q(o);
  auto mine = q.handle();
  std::atomic<unsigned> registered{0};
  unsigned hw = 0;
  Scene s;
  s.req_tid = (gap + 1) * kChunk;

  // Raise the high water past the request's tid. Tids are handed out
  // lowest-free first, so the parked threads also hold every tid of the
  // gap chunk.
  for (unsigned i = 0; i < 31 && ThreadRegistry::high_water() <= s.req_tid;
       ++i) {
    s.threads.emplace_back([&] {
      (void)ThreadRegistry::tid();
      registered.fetch_add(1, std::memory_order_release);
      while (!s.release_parked.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    while (registered.load(std::memory_order_acquire) <= i) {
      std::this_thread::yield();
    }
  }
  hw = ThreadRegistry::high_water();
  if (hw <= s.req_tid) {
    // Only when earlier tests in this process left the high water far above
    // the live threads; ctest runs every test in a fresh process.
    GTEST_SKIP() << "31 parked threads cannot raise the high water past tid "
                 << s.req_tid;
  }

  q.enqueue(mine, 0);  // arms the threshold; the ring is empty again after
  ASSERT_EQ(q.dequeue(mine).value(), 0u);

  // 1. A dequeuer takes the next Head rank, ⊥-marks its slot and stops
  //    before it can move Tail past it.
  s.threads.emplace_back([&] {
    t_role = kStallAtCatchup;
    auto h = q.handle();
    (void)q.dequeue(h);
    s.dequeuer_done.store(true, std::memory_order_release);
  });
  ASSERT_TRUE(wait_until(s.dequeuer.stalled));

  // 2. The requester's Tail F&A lands on that ⊥-marked rank, its one fast
  //    attempt fails, and it stops with the request published.
  s.threads.emplace_back([&] {
    t_role = kStallAtSlowHelp;
    auto h = q.handle_for(s.req_tid);
    q.enqueue(h, s.req_index);
  });
  ASSERT_TRUE(wait_until(s.requester.stalled));
  ASSERT_TRUE(q.any_pending());
  s.dequeuer.open.store(true, std::memory_order_release);
  ASSERT_TRUE(wait_until(s.dequeuer_done));

  // 3. A helper runs enqueue/dequeue pairs; its help scan must reach the
  //    request within a few passes over [0, hw) and stop right after
  //    producing the request's index.
  s.threads.emplace_back([&] {
    t_role = kStallAtProduce;
    auto h = q.handle();
    for (unsigned i = 0; i < 4 * hw && !s.helper.stalled.load(); ++i) {
      q.enqueue(h, 1);
      (void)q.dequeue(h);
    }
    s.helper_done.store(true, std::memory_order_release);
  });
  const auto helped = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
      if (s.helper.stalled.load()) return true;
      if (s.helper_done.load()) return false;
      std::this_thread::yield();
    }
    return false;
  };
  ASSERT_TRUE(helped()) << "no help scan reached tid " << s.req_tid
                        << " past uninstalled chunk " << gap;

  // 4. Consuming the Enq=0 entry must finalize the request. If the helper
  //    stopped inside its dequeue, its own index 1 is ahead of it.
  t_role = kConsumer;
  auto got = q.dequeue(mine);
  if (got == std::optional<u64>(1)) got = q.dequeue(mine);
  t_role = kFree;
  EXPECT_EQ(got, std::optional<u64>(s.req_index));
  EXPECT_GE(s.finalize_hits.load(), 1)
      << "finalize_request did not reach tid " << s.req_tid
      << " past uninstalled chunk " << gap;

  s.helper.open.store(true, std::memory_order_release);
  s.requester.open.store(true, std::memory_order_release);
  ASSERT_TRUE(wait_until(s.helper_done));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (q.any_pending() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(q.any_pending());
  EXPECT_FALSE(q.dequeue(mine).has_value()) << "an index was duplicated";
}

}  // namespace
}  // namespace wcq
