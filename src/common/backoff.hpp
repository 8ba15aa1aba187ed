// Adaptive spin-then-yield backoff for unbounded retry loops.
//
// Busy-wait loops built on cpu_relax() alone livelock on oversubscribed
// machines: the spinning thread burns its whole scheduling quantum while the
// thread it waits for is runnable but descheduled. A 1-core CI runner is the
// worst case — every handoff costs a full quantum, so a loop that needs a
// peer to run (a producer waiting for a consumer to free a slot, a consumer
// waiting for a producer to publish) degrades from nanoseconds to ~100 ms
// per retry and a 10^5-item test hangs past any CTest timeout.
//
// Backoff escalates: the first kSpinRounds calls to pause() spin in
// userspace with an exponentially growing train of cpu_relax()es (so
// uncontended retries stay cheap and off the scheduler), after which every
// pause() calls std::this_thread::yield(), donating the remainder of the
// quantum to the starved peer.
//
// Usage:
//   Backoff bo;
//   while (!try_something()) bo.pause();
//
// Call reset() after real progress if the same Backoff guards successive
// waits (e.g. one per item in a producer loop).
//
// This helper is for loops whose progress depends on *another thread's*
// steps (blocking-by-construction waits, and lock-free retry loops under
// oversubscription). wCQ's wait-free fast path is patience-bounded and never
// waits on a peer; it does not use Backoff (see DESIGN.md §5).
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/cpu.hpp"

namespace wcq {

class Backoff {
 public:
  // pause() calls spent spinning before escalating to yield(). 2^0..2^6
  // cpu_relax()es per round: ~127 relaxes (~a few microseconds) total before
  // the first syscall — long enough to absorb cache-miss-length waits,
  // short enough that a descheduled peer costs one quantum, not many.
  static constexpr std::uint32_t kSpinRounds = 8;
  static constexpr std::uint32_t kMaxRelaxShift = 6;

  constexpr Backoff() = default;
  explicit constexpr Backoff(std::uint32_t spin_rounds)
      : spin_rounds_(spin_rounds) {}

  void pause() {
    if (round_ < spin_rounds_) {
      const std::uint32_t shift =
          round_ < kMaxRelaxShift ? round_ : kMaxRelaxShift;
      for (std::uint32_t i = 0; i < (std::uint32_t{1} << shift); ++i) {
        cpu_relax();
      }
      ++round_;
    } else {
      std::this_thread::yield();
      ++yields_;
    }
  }

  // pause() that ends its spin train early once `ready()` holds: the same
  // ladder (the round advances whether or not the train was cut short, so
  // the spin budget before yielding is unchanged), but the caller reacts
  // within one cpu_relax() of its condition turning true. `ready` is
  // evaluated at most 2^shift times per spin round and never in the yield
  // phase. Returns whether `ready()` held. Channel's blocking receive polls
  // a read-only readiness hint through this instead of retrying the
  // destructive dequeue every round (DESIGN.md §14).
  template <typename Ready>
  bool pause_until(Ready&& ready) {
    if (round_ >= spin_rounds_) {
      pause();
      return false;
    }
    const std::uint32_t shift =
        round_ < kMaxRelaxShift ? round_ : kMaxRelaxShift;
    ++round_;
    for (std::uint32_t i = 0; i < (std::uint32_t{1} << shift); ++i) {
      cpu_relax();
      if (ready()) return true;
    }
    return false;
  }

  // Deadline-aware pause() for spin-then-park loops (runtime/channel.hpp):
  // identical ladder, but returns false once `deadline` has passed so the
  // caller can stop retrying. The clock is read only after the spin rounds
  // are exhausted — the pure-spin phase stays syscall- and clock-free, at
  // the cost of overshooting a deadline by at most the ladder's few
  // microseconds of spinning.
  bool until(std::chrono::steady_clock::time_point deadline) {
    if (round_ >= spin_rounds_ &&
        std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    pause();
    return true;
  }

  // Restart the ladder after the guarded condition made progress.
  void reset() { round_ = 0; }

  // Introspection (tests).
  std::uint32_t spin_rounds() const { return spin_rounds_; }
  std::uint32_t round() const { return round_; }
  std::uint64_t yields() const { return yields_; }
  bool yielding() const { return round_ >= spin_rounds_; }

 private:
  std::uint32_t spin_rounds_ = kSpinRounds;
  std::uint32_t round_ = 0;
  std::uint64_t yields_ = 0;
};

}  // namespace wcq
