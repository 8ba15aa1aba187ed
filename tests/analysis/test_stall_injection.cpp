// Stall/fault injection (DESIGN.md §14): suspend one thread indefinitely at
// a scheduling point and verify the progress claims that "wait-free" and
// "close() terminates every waiter" actually make:
//
//   * a suspended peer never blocks others — while the victim sits frozen
//     mid-operation, every other worker finishes its entire workload
//     (steps_during_stall > 0 witnesses real work against the stalled peer,
//     and no watchdog means nobody spun waiting for it);
//   * close() wakes every parked waiter even with a peer stalled — the
//     drain terminates, nothing is lost;
//   * a "killed" consumer on a sharded channel — a receiver that stalls and
//     then abandons its remaining work (the resume handler models the kill:
//     it does nothing further). The producer completes every send, and the
//     surviving receiver's steal sweep drains every shard, so the two
//     receivers account for every element exactly once.
//
// The PctScheduler's stall mode (Config::stall_victim/stall_after) freezes
// the victim the first time it reaches its N-th own scheduling point; the
// victim resumes only when no other worker can run, i.e. after its peers
// proved they never needed it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "pct_scheduler.hpp"
#include "runtime/channel.hpp"
#include "scale/sharded_queue.hpp"

namespace wcq {
namespace {

using analysis_test::PctScheduler;

// Victim receiver frozen mid-dequeue; producer + second receiver complete
// the entire workload against it; close() terminates everyone.
TEST(StallInjection, SuspendedReceiverNeverBlocksOthers) {
  constexpr unsigned kCount = 16;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Channel<std::uint64_t> ch(2u);
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.workers = 3;
    cfg.stall_victim = 2;
    // Vary the freeze site with the seed so the victim stalls at different
    // depths of its dequeue/park machinery across the sweep.
    cfg.stall_after = 1 + (seed * 7) % 60;
    std::uint64_t got_live = 0, got_victim = 0;
    std::uint64_t sum = 0;
    bool stall_seen_by_victim = false;
    {
      PctScheduler sched(cfg);
      std::thread producer([&] {
        sched.attach(0);
        {
          auto h = ch.acquire();
          for (unsigned i = 0; i < kCount; ++i) ch.send(h, i);
          ch.close();
        }
        sched.finish();
      });
      std::thread live([&] {
        sched.attach(1);
        {
          auto h = ch.acquire();
          std::uint64_t out = 0;
          while (ch.recv(h, out) == ChanStatus::kOk) {
            ++got_live;
            sum += out;
          }
        }
        sched.finish();
      });
      std::thread victim([&] {
        sched.attach(2);
        {
          auto h = ch.acquire();
          std::uint64_t out = 0;
          while (ch.recv(h, out) == ChanStatus::kOk) {
            ++got_victim;
            sum += out;
          }
        }
        stall_seen_by_victim = sched.stall_hit();
        sched.finish();
      });
      producer.join();
      live.join();
      victim.join();
      ASSERT_FALSE(sched.watchdog_fired())
          << "a worker waited on the stalled victim, seed " << seed;
      ASSERT_TRUE(sched.stall_hit()) << "stall never triggered, seed " << seed;
      ASSERT_GT(sched.steps_during_stall(), 0u)
          << "no work completed during the stall window, seed " << seed;
    }
    (void)stall_seen_by_victim;
    EXPECT_EQ(got_live + got_victim, kCount) << "seed " << seed;
    EXPECT_EQ(sum, std::uint64_t{kCount} * (kCount - 1) / 2)
        << "seed " << seed;
    EXPECT_EQ(ch.stats().stranded, 0u)
        << "close() lost a parked waiter, seed " << seed;
  }
}

// Victim producer frozen mid-enqueue. The peers cannot reach quiescence
// without it (the victim co-owns the close), so this shape uses the bounded
// suspension: the victim resumes after 2000 peer steps — ample for the other
// producer to finish its whole script and the consumer to drain everything
// available and park — and the bound stays far enough below the virtual-park
// budget (4096) that the parked consumer is woken by the resumed victim's
// next send rather than stranded.
TEST(StallInjection, SuspendedSenderNeverBlocksOthers) {
  constexpr unsigned kCount = 8;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Channel<std::uint64_t> ch(2u);
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.workers = 3;
    cfg.stall_victim = 0;
    cfg.stall_after = 1 + (seed * 11) % 40;
    cfg.stall_duration = 2000;
    std::uint64_t received = 0;
    std::atomic<unsigned> senders_left{2};
    {
      PctScheduler sched(cfg);
      std::vector<std::thread> threads;
      for (unsigned s = 0; s < 2; ++s) {
        threads.emplace_back([&, s] {
          sched.attach(s);
          {
            auto h = ch.acquire();
            for (unsigned i = 0; i < kCount; ++i) {
              ch.send(h, std::uint64_t{s} * kCount + i);
            }
            if (senders_left.fetch_sub(1) == 1) ch.close();
          }
          sched.finish();
        });
      }
      threads.emplace_back([&] {
        sched.attach(2);
        {
          auto h = ch.acquire();
          std::uint64_t out = 0;
          while (ch.recv(h, out) == ChanStatus::kOk) ++received;
        }
        sched.finish();
      });
      for (auto& t : threads) t.join();
      ASSERT_FALSE(sched.watchdog_fired()) << "seed " << seed;
      ASSERT_TRUE(sched.stall_hit()) << "seed " << seed;
      ASSERT_TRUE(sched.stall_resumed()) << "seed " << seed;
      ASSERT_GT(sched.steps_during_stall(), 0u) << "seed " << seed;
    }
    // The resumed victim completes its remaining sends and whichever sender
    // finishes last performs the close — so the full count arrives.
    EXPECT_EQ(received, 2u * kCount) << "seed " << seed;
    EXPECT_EQ(ch.stats().stranded, 0u) << "seed " << seed;
  }
}

// Killed consumer: receiver 1 stalls and, on resume, abandons its loop
// (models a consumer that died mid-shift) while holding an ordinary MPMC
// session. The producer completes every send; the survivor's steal sweep
// visits every shard, so nothing is stranded in the dead receiver's home
// shard, and the two receivers account for every element exactly once.
TEST(StallInjection, KilledConsumerDoesNotWedgeProducers) {
  using SQ = ShardedQueue<std::uint64_t>;
  constexpr unsigned kCount = 24;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Channel<std::uint64_t, SQ> ch(SQ::Options{.shards = 2, .shard_order = 2});
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.workers = 3;
    cfg.stall_victim = 1;
    cfg.stall_after = 1 + (seed * 13) % 50;
    std::uint64_t got_live = 0, got_victim = 0;
    std::uint64_t sum = 0;
    {
      PctScheduler sched(cfg);
      std::thread producer([&] {
        sched.attach(0);
        {
          auto h = ch.acquire();
          for (unsigned i = 0; i < kCount; ++i) ch.send(h, i);
          ch.close();
        }
        sched.finish();
      });
      std::thread victim([&] {
        sched.attach(1);
        {
          auto h = ch.acquire();
          std::uint64_t out = 0;
          for (;;) {
            if (sched.stall_resumed()) break;  // "killed": abandon the loop
            const auto s = ch.try_recv(h, out);
            if (s == ChanStatus::kClosed) break;
            if (s == ChanStatus::kOk) {
              ++got_victim;
              sum += out;
            }
          }
        }
        sched.finish();
      });
      std::thread live([&] {
        sched.attach(2);
        {
          auto h = ch.acquire();
          std::uint64_t out = 0;
          while (ch.recv(h, out) == ChanStatus::kOk) {
            ++got_live;
            sum += out;
          }
        }
        sched.finish();
      });
      producer.join();
      victim.join();
      live.join();
      ASSERT_FALSE(sched.watchdog_fired())
          << "a worker waited on the killed consumer, seed " << seed;
      ASSERT_TRUE(sched.stall_hit()) << "seed " << seed;
    }
    EXPECT_EQ(got_live + got_victim, kCount) << "seed " << seed;
    EXPECT_EQ(sum, std::uint64_t{kCount} * (kCount - 1) / 2)
        << "seed " << seed;
    EXPECT_FALSE(ch.queue().dequeue().has_value())
        << "element stranded in a shard, seed " << seed;
    EXPECT_EQ(ch.stats().stranded, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wcq
