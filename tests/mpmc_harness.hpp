// Shared multi-producer/multi-consumer correctness harness.
//
// Every queue in this library (the wCQ/SCQ rings, the Fig 2 bounded queues,
// the unbounded queue, and all six baselines) is exercised through the same
// checks:
//
//   * exactly-once: every enqueued item is dequeued exactly once, nothing
//     is invented, nothing is lost;
//   * per-producer FIFO: items from one producer are observed in order by
//     whichever consumers receive them (FIFO linearizability implies this);
//   * terminal emptiness: after all items are consumed the queue reports
//     empty.
//
// Items are tagged (producer id << 32 | sequence) so both properties are
// checkable from the consumer side alone.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/align.hpp"  // u64/i64 aliases used below
#include "common/backoff.hpp"
#include "common/cpu.hpp"

namespace wcq::testing {

using u64 = std::uint64_t;

struct MpmcConfig {
  unsigned producers = 4;
  unsigned consumers = 4;
  u64 items_per_producer = 20000;
  bool pin = false;
};

// Scale a per-producer iteration count to the host. The counts written in
// the test files are tuned for an ~8-core machine; a 1-core CI runner gets
// 1/8 of them (still thousands of handoffs through every code path, but
// inside CTest timeouts), a 64-core box gets 8x (a real stress). Exactness
// assertions are unaffected: callers thread the scaled count through both
// the workload and the checks.
inline u64 scale_items(u64 base_per_producer) {
  static const unsigned hw = [] {
    unsigned h = std::thread::hardware_concurrency();
    if (h == 0) h = 1;
    return h < 64u ? h : 64u;
  }();
  constexpr unsigned kRefCores = 8;
  const u64 scaled = base_per_producer * hw / kRefCores;
  return scaled > 0 ? scaled : 1;
}

inline u64 tag(unsigned producer, u64 seq) {
  return (static_cast<u64>(producer) << 32) | seq;
}

// Post-run verification shared by the single-op and bulk harnesses:
// exactly-once always; per-producer FIFO when `check_fifo` (a sharded
// front-end routes one producer across shards, so only exactly-once holds
// globally — its per-shard FIFO is checked separately).
inline void check_consumer_logs(const std::vector<std::vector<u64>>& logs,
                                const MpmcConfig& cfg, u64 items_per_producer,
                                bool check_fifo) {
  std::vector<std::vector<u64>> seen(cfg.producers);
  for (unsigned c = 0; c < cfg.consumers; ++c) {
    std::vector<u64> last(cfg.producers, 0);
    std::vector<bool> has_last(cfg.producers, false);
    for (u64 v : logs[c]) {
      const unsigned p = static_cast<unsigned>(v >> 32);
      const u64 seq = v & 0xFFFFFFFFu;
      ASSERT_LT(p, cfg.producers) << "invented producer id";
      ASSERT_LT(seq, items_per_producer) << "invented sequence";
      if (check_fifo && has_last[p]) {
        ASSERT_GT(seq, last[p])
            << "per-producer FIFO violated within one consumer";
      }
      last[p] = seq;
      has_last[p] = true;
      seen[p].push_back(seq);
    }
  }
  for (unsigned p = 0; p < cfg.producers; ++p) {
    ASSERT_EQ(seen[p].size(), items_per_producer)
        << "producer " << p << " item count mismatch";
    std::vector<bool> mark(items_per_producer, false);
    for (u64 s : seen[p]) {
      ASSERT_FALSE(mark[s]) << "duplicate delivery of item " << s;
      mark[s] = true;
    }
  }
}

// Queue concept: bool enqueue(u64) (false = full, retry) and
// std::optional<u64> dequeue() (nullopt = empty).
template <typename Queue>
void run_mpmc_exactly_once(Queue& q, const MpmcConfig& cfg,
                           bool check_fifo = true) {
  const u64 items_per_producer = scale_items(cfg.items_per_producer);
  const u64 total = items_per_producer * cfg.producers;
  std::atomic<u64> consumed{0};
  std::atomic<bool> start{false};

  // Per-consumer logs of observed items, merged and checked afterwards.
  std::vector<std::vector<u64>> logs(cfg.consumers);

  std::vector<std::thread> threads;
  threads.reserve(cfg.producers + cfg.consumers);

  for (unsigned p = 0; p < cfg.producers; ++p) {
    threads.emplace_back([&, p] {
      if (cfg.pin) pin_thread(p);
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      for (u64 i = 0; i < items_per_producer; ++i) {
        bo.reset();
        while (!q.enqueue(tag(p, i))) bo.pause();  // full: wait for consumers
      }
    });
  }
  for (unsigned c = 0; c < cfg.consumers; ++c) {
    threads.emplace_back([&, c] {
      if (cfg.pin) pin_thread(cfg.producers + c);
      auto& log = logs[c];
      log.reserve(total / cfg.consumers + 16);
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      bo.reset();
      while (consumed.load(std::memory_order_relaxed) < total) {
        if (auto v = q.dequeue()) {
          log.push_back(*v);
          consumed.fetch_add(1, std::memory_order_relaxed);
          bo.reset();
        } else {
          bo.pause();  // empty: wait for producers
        }
      }
      // Terminal emptiness, probed from a consumer thread: once `consumed`
      // hit `total` nothing can reappear.
      ASSERT_FALSE(q.dequeue().has_value()) << "queue not empty at the end";
    });
  }

  start.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  ASSERT_EQ(consumed.load(), total);
  check_consumer_logs(logs, cfg, items_per_producer, check_fifo);
}

// Bulk-op linearizability harness: producers publish spans through
// enqueue_bulk (span lengths cycle through 1..max_batch, partial success
// retried from the unsent tail), consumers drain through dequeue_bulk. The
// exactly-once and per-producer-FIFO checks are the same as the single-op
// harness — batched spans must preserve program order end to end.
//
// Queue concept: size_t enqueue_bulk(u64*, size_t), size_t
// dequeue_bulk(u64*, size_t), std::optional<u64> dequeue() (for the terminal
// emptiness probe).
template <typename Queue>
void run_mpmc_bulk_exactly_once(Queue& q, const MpmcConfig& cfg,
                                unsigned max_batch = 16,
                                bool check_fifo = true) {
  constexpr unsigned kMaxSpan = 64;
  ASSERT_GE(max_batch, 1u);
  ASSERT_LE(max_batch, kMaxSpan);
  const u64 items_per_producer = scale_items(cfg.items_per_producer);
  const u64 total = items_per_producer * cfg.producers;
  std::atomic<u64> consumed{0};
  std::atomic<bool> start{false};
  std::vector<std::vector<u64>> logs(cfg.consumers);

  std::vector<std::thread> threads;
  threads.reserve(cfg.producers + cfg.consumers);

  for (unsigned p = 0; p < cfg.producers; ++p) {
    threads.emplace_back([&, p] {
      if (cfg.pin) pin_thread(p);
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      u64 buf[kMaxSpan];
      u64 next = 0;
      while (next < items_per_producer) {
        u64 span = 1 + (next + p) % max_batch;
        if (span > items_per_producer - next) span = items_per_producer - next;
        for (u64 k = 0; k < span; ++k) buf[k] = tag(p, next + k);
        std::size_t sent = 0;
        bo.reset();
        while (sent < span) {
          const std::size_t got = q.enqueue_bulk(buf + sent, span - sent);
          if (got == 0) {
            bo.pause();  // full: wait for consumers
          } else {
            bo.reset();
          }
          sent += got;
        }
        next += span;
      }
    });
  }
  for (unsigned c = 0; c < cfg.consumers; ++c) {
    threads.emplace_back([&, c] {
      if (cfg.pin) pin_thread(cfg.producers + c);
      auto& log = logs[c];
      log.reserve(total / cfg.consumers + 16);
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      u64 buf[kMaxSpan];
      u64 round = c;
      bo.reset();
      while (consumed.load(std::memory_order_relaxed) < total) {
        const u64 span = 1 + round++ % max_batch;
        const std::size_t got = q.dequeue_bulk(buf, span);
        if (got > 0) {
          log.insert(log.end(), buf, buf + got);
          consumed.fetch_add(got, std::memory_order_relaxed);
          bo.reset();
        } else {
          bo.pause();  // empty: wait for producers
        }
      }
      // In-thread terminal probe, as in run_mpmc_exactly_once.
      ASSERT_FALSE(q.dequeue().has_value()) << "queue not empty at the end";
    });
  }

  start.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  ASSERT_EQ(consumed.load(), total);
  check_consumer_logs(logs, cfg, items_per_producer, check_fifo);
}

// Count-based MPMC check on a raw index ring: each producer repeatedly
// enqueues its own id; totals per id must match exactly. A credit counter
// enforces the ring precondition (at most capacity() live indices): raw
// SCQ/wCQ Enqueue is only defined under that bound (paper §2, k <= n).
// `per_producer` is host-scaled like run_mpmc_exactly_once.
template <typename Ring>
void run_mpmc_count_exact(Ring& q, unsigned producers, unsigned consumers,
                          u64 per_producer) {
  ASSERT_LE(producers, q.capacity());
  per_producer = scale_items(per_producer);
  std::atomic<u64> consumed{0};
  std::atomic<i64> credits{static_cast<i64>(q.capacity())};
  const u64 total = per_producer * producers;
  std::vector<std::atomic<u64>> counts(producers);
  std::vector<std::thread> ts;
  for (unsigned p = 0; p < producers; ++p) {
    ts.emplace_back([&, p] {
      Backoff bo;
      for (u64 i = 0; i < per_producer; ++i) {
        while (credits.fetch_sub(1, std::memory_order_acquire) <= 0) {
          credits.fetch_add(1, std::memory_order_release);
          bo.pause();  // no credit: wait for a consumer to free one
        }
        bo.reset();
        q.enqueue(p);
      }
    });
  }
  for (unsigned c = 0; c < consumers; ++c) {
    ts.emplace_back([&] {
      Backoff bo;
      while (consumed.load(std::memory_order_relaxed) < total) {
        if (auto v = q.dequeue()) {
          ASSERT_LT(*v, producers);
          counts[*v].fetch_add(1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_relaxed);
          credits.fetch_add(1, std::memory_order_release);
          bo.reset();
        } else {
          bo.pause();  // empty: wait for a producer
        }
      }
      // In-thread terminal probe (see run_mpmc_exactly_once).
      EXPECT_FALSE(q.dequeue().has_value());
    });
  }
  for (auto& t : ts) t.join();
  for (unsigned p = 0; p < producers; ++p) {
    EXPECT_EQ(counts[p].load(), per_producer) << "producer " << p;
  }
}

// Single-threaded strict-FIFO check, applicable to every queue type.
template <typename Queue>
void run_sequential_fifo(Queue& q, u64 n) {
  ASSERT_FALSE(q.dequeue().has_value());
  for (u64 i = 0; i < n; ++i) ASSERT_TRUE(q.enqueue(i));
  for (u64 i = 0; i < n; ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i) << "FIFO order violated";
  }
  ASSERT_FALSE(q.dequeue().has_value());
}

// Interleaved enqueue/dequeue bursts exercising wraparound many times.
template <typename Queue>
void run_sequential_wraparound(Queue& q, u64 burst, u64 rounds) {
  u64 next_in = 0, next_out = 0;
  for (u64 r = 0; r < rounds; ++r) {
    for (u64 i = 0; i < burst; ++i) ASSERT_TRUE(q.enqueue(next_in++));
    for (u64 i = 0; i < burst; ++i) {
      auto v = q.dequeue();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(*v, next_out++);
    }
    ASSERT_FALSE(q.dequeue().has_value());
  }
}

}  // namespace wcq::testing
