// Backoff helper: the escalation ladder (spin rounds, then yield) and reset
// semantics that the livelock fixes in the test harness and queues rely on.
#include "common/backoff.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace wcq {
namespace {

TEST(Backoff, StartsInSpinPhase) {
  Backoff bo;
  EXPECT_EQ(bo.round(), 0u);
  EXPECT_EQ(bo.yields(), 0u);
  EXPECT_FALSE(bo.yielding());
}

TEST(Backoff, EscalatesToYieldAfterSpinRounds) {
  Backoff bo;
  for (std::uint32_t i = 0; i < Backoff::kSpinRounds; ++i) {
    EXPECT_FALSE(bo.yielding()) << "escalated early at round " << i;
    bo.pause();
  }
  EXPECT_TRUE(bo.yielding());
  EXPECT_EQ(bo.yields(), 0u) << "spin rounds must not yield";
  bo.pause();
  EXPECT_EQ(bo.yields(), 1u);
  bo.pause();
  EXPECT_EQ(bo.yields(), 2u);
}

TEST(Backoff, ResetRestartsTheLadder) {
  Backoff bo;
  for (std::uint32_t i = 0; i < Backoff::kSpinRounds + 3; ++i) bo.pause();
  EXPECT_TRUE(bo.yielding());
  bo.reset();
  EXPECT_FALSE(bo.yielding());
  EXPECT_EQ(bo.round(), 0u);
  bo.pause();
  EXPECT_EQ(bo.yields(), 3u) << "reset must not erase the yield count";
  EXPECT_EQ(bo.round(), 1u);
}

TEST(Backoff, CustomSpinRounds) {
  Backoff bo(2);
  EXPECT_EQ(bo.spin_rounds(), 2u);
  bo.pause();
  bo.pause();
  EXPECT_TRUE(bo.yielding());
  Backoff eager(0);  // yield immediately: pure-yield waiter
  EXPECT_TRUE(eager.yielding());
  eager.pause();
  EXPECT_EQ(eager.yields(), 1u);
}

TEST(Backoff, UntilHonorsDeadlineOnlyAfterSpinPhase) {
  // The deadline check is deferred to the yield phase: an already-expired
  // deadline still lets the cheap spin rounds run (they cost microseconds
  // and no clock read), and only the first would-be yield reports expiry.
  Backoff bo;
  const auto past = std::chrono::steady_clock::now() - std::chrono::hours(1);
  for (std::uint32_t i = 0; i < Backoff::kSpinRounds; ++i) {
    EXPECT_TRUE(bo.until(past)) << "spin round " << i << " checked the clock";
  }
  EXPECT_TRUE(bo.yielding());
  EXPECT_FALSE(bo.until(past));
  EXPECT_EQ(bo.yields(), 0u) << "expired deadline must not yield";
}

TEST(Backoff, UntilKeepsPausingBeforeDeadline) {
  Backoff bo(0);  // pure-yield ladder: every until() reads the clock
  const auto far = std::chrono::steady_clock::now() + std::chrono::hours(1);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bo.until(far));
  EXPECT_EQ(bo.yields(), 3u);
}

TEST(Backoff, UntilExpiresWithinTolerance) {
  // A waiter looping on until() stops within a bounded overshoot of the
  // deadline (the ladder's spin phase, microseconds — 1s is a generous CI
  // bound).
  Backoff bo;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  while (bo.until(deadline)) {
  }
  const auto overshoot = std::chrono::steady_clock::now() - deadline;
  EXPECT_GE(overshoot.count(), 0);
  EXPECT_LT(overshoot, std::chrono::seconds(1));
}

TEST(Backoff, PauseUntilEarlyExitStillAdvancesTheRound) {
  // A satisfied predicate cuts the spin train short but still costs the
  // round, so the spin budget before yielding is the plain ladder's.
  Backoff bo;
  int calls = 0;
  EXPECT_TRUE(bo.pause_until([&] { return ++calls > 0; }));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(bo.round(), 1u);
  EXPECT_TRUE(bo.pause_until([&] { return ++calls > 0; }));
  EXPECT_EQ(calls, 2) << "a true predicate ends the train at once";
  EXPECT_EQ(bo.round(), 2u);
}

TEST(Backoff, PauseUntilReachesYieldingAfterSpinRounds) {
  Backoff bo;
  const auto never = [] { return false; };
  for (std::uint32_t i = 0; i < Backoff::kSpinRounds; ++i) {
    EXPECT_FALSE(bo.yielding()) << "escalated early at round " << i;
    EXPECT_FALSE(bo.pause_until(never));
  }
  EXPECT_TRUE(bo.yielding());
  EXPECT_EQ(bo.yields(), 0u) << "spin rounds must not yield";
  int calls = 0;
  EXPECT_FALSE(bo.pause_until([&] { return ++calls > 0; }));
  EXPECT_EQ(calls, 0) << "the yield phase does not poll";
  EXPECT_EQ(bo.yields(), 1u);
}

TEST(Backoff, PauseUntilPollsAtMostTheRoundsRelaxCount) {
  // Round r polls once per cpu_relax(): 2^min(r, kMaxRelaxShift) times when
  // the predicate never holds, never more.
  Backoff bo;
  for (std::uint32_t r = 0; r < Backoff::kSpinRounds; ++r) {
    std::uint32_t calls = 0;
    bo.pause_until([&] {
      ++calls;
      return false;
    });
    const std::uint32_t shift =
        r < Backoff::kMaxRelaxShift ? r : Backoff::kMaxRelaxShift;
    EXPECT_EQ(calls, std::uint32_t{1} << shift) << "round " << r;
  }
}

TEST(Backoff, CpuRelaxExecutesOnThisIsa) {
  // cpu_relax() must emit a real instruction on every supported ISA (PAUSE
  // on x86, ISB on AArch64 — the aarch64 qemu CI job executes this path;
  // compiler barrier elsewhere) and never trap or block. One full spin
  // round's worth of calls is the smoke budget.
  for (int i = 0; i < (1 << Backoff::kMaxRelaxShift); ++i) cpu_relax();
  SUCCEED();
}

TEST(Backoff, LadderStillEscalatesPastTheSpinHint) {
  // Regression guard for the AArch64 ISB spin hint: a stronger (slower)
  // cpu_relax must not change the escalation contract — after kSpinRounds
  // pause() calls the ladder donates the quantum via
  // std::this_thread::yield(), which the 1-core livelock fix relies on.
  Backoff bo;
  while (!bo.yielding()) bo.pause();
  EXPECT_EQ(bo.round(), Backoff::kSpinRounds);
  EXPECT_EQ(bo.yields(), 0u);
  bo.pause();
  EXPECT_EQ(bo.yields(), 1u);
}

TEST(Backoff, HandoffCompletesOnOversubscribedHost) {
  // The livelock regression in miniature: two threads ping-pong a flag more
  // times than any plausible scheduling-quantum budget would allow if the
  // waiters never yielded. Completing at all (under the CTest timeout) is
  // the assertion; on a 1-core host this hangs without the yield escalation.
  std::atomic<int> turn{0};
  constexpr int kRounds = 2000;
  std::thread a([&] {
    Backoff bo;
    for (int i = 0; i < kRounds; ++i) {
      while (turn.load(std::memory_order_acquire) != 0) bo.pause();
      bo.reset();
      turn.store(1, std::memory_order_release);
    }
  });
  std::thread b([&] {
    Backoff bo;
    for (int i = 0; i < kRounds; ++i) {
      while (turn.load(std::memory_order_acquire) != 1) bo.pause();
      bo.reset();
      turn.store(0, std::memory_order_release);
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(turn.load(), 0);
}

}  // namespace
}  // namespace wcq
