// perfbench — the repository benchmark's measurement program.
//
// One process runs one workload for a fixed wall-clock budget and prints a
// single JSON line (see perfbench/README.md for the layer → metric →
// workload map). Every layer is measured from outside, through its public
// API and the counters it already exposes (opcount, alloc_meter,
// Channel::stats, UnboundedQueue::live_segments); nothing here reaches into
// a queue's internals.
//
//   perfbench --workload <pairs_1t|p5050_2t|window_2t|pingpong_2t>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics of the named workload.
// --trace 1 measures every per-layer metric: the uncontended ladder, a traced
// pass of each 2-thread workload, and the named workload once more untraced
// for trace.overhead_frac.
//
// Steadiness: an untraced run is kEpisodes episodes, each with fresh queues
// and threads; every measured phase is cut into fixed wall-clock slices and
// every end-to-end figure is the median over the slices of all episodes, so
// a burst of steal time on a shared host costs a slice, not the run.
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/faa_queue.hpp"
#include "common/alloc_meter.hpp"
#include "common/op_counters.hpp"
#include "common/rng.hpp"
#include "core/bounded_queue.hpp"
#include "core/scq.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wcq.hpp"
#include "runtime/channel.hpp"

namespace {

using wcq::u64;

// Ring sizes, scaled to a small shared host. pairs_1t and the ladder use a
// 2^10 ring, so the working set stays in the core's own caches and every
// nanosecond is the layer's own instructions and fences (a 2^16 ring streams
// through L2 into the shared L3 and its per-slice time swung ±10% with the
// neighbours' load). p5050_2t uses 2^10 too, so its random walk mixes within
// the warm-up and the full and empty edges fire at a steady rate for the
// whole run. window_2t uses 2^8-element segments, so one lap of the window
// retires 16 segments (2^6 segments spent the run resetting ~88 KB of
// per-thread ring records per 64 elements, and spread twice as wide).
constexpr unsigned kPairsOrder = 10;
constexpr unsigned kP5050Order = 10;
constexpr unsigned kWindowSegOrder = 8;
constexpr u64 kWindow = 4096;
constexpr unsigned kChannelOrder = 10;

constexpr double kWarmupS = 0.3;
constexpr double kSliceS = 0.1;
constexpr int kSetupWarmup = 2;
constexpr int kSetupReps = 15;
constexpr unsigned kEpisodes = 8;
// Latency sampling: one unit of work in 2^kSampleShift is timed.
constexpr unsigned kSampleShift = 5;
// Units of work between two clock reads.
constexpr int kBatch = 64;
constexpr unsigned kLadderBlock = 2048;
constexpr u64 kStop = 0;  // pingpong shutdown request; requests are odd

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

u64 thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ull +
         static_cast<u64>(ts.tv_nsec);
}

// splitmix64 finalizer: checksums and derived values.
u64 mix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Log-linear latency histogram: 1 ns buckets below 1 µs, then 64 buckets per
// power of two (≤1.6% wide). Quantiles interpolate inside a bucket.
class Histogram {
 public:
  void add(u64 ns) {
    ++counts_[bucket(ns)];
    ++n_;
  }
  void merge(const Histogram& o) {
    for (unsigned b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    n_ += o.n_;
  }
  u64 count() const { return n_; }
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_);
    u64 cum = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (static_cast<double>(cum + counts_[b]) >= rank) {
        const double frac =
            (rank - static_cast<double>(cum)) / static_cast<double>(counts_[b]);
        return lower(b) + frac * width(b);
      }
      cum += counts_[b];
    }
    return lower(kBuckets - 1);
  }

 private:
  static constexpr unsigned kLinear = 1024;  // 2^10
  static constexpr unsigned kSub = 64;
  static constexpr unsigned kBuckets = kLinear + (64 - 10) * kSub;

  static unsigned bucket(u64 v) {
    if (v < kLinear) return static_cast<unsigned>(v);
    const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
    return kLinear + (e - 10) * kSub +
           static_cast<unsigned>((v >> (e - 6)) & (kSub - 1));
  }
  static double lower(unsigned b) {
    if (b < kLinear) return b;
    const unsigned e = (b - kLinear) / kSub + 10;
    return std::ldexp(kSub + (b - kLinear) % kSub, static_cast<int>(e) - 6);
  }
  static double width(unsigned b) {
    if (b < kLinear) return 1.0;
    return std::ldexp(1.0, static_cast<int>((b - kLinear) / kSub + 10) - 6);
  }

  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(kBuckets);
  u64 n_ = 0;
};

// One unit of work in 2^kSampleShift is timed for the latency metrics.
class Sampler {
 public:
  explicit Sampler(u64 seed) : rng_(seed) {}
  bool hit() { return (rng_.next() & ((1u << kSampleShift) - 1)) == 0; }

 private:
  wcq::Xoshiro256 rng_;
};

// --- slices ---------------------------------------------------------------

// Absolute wall-clock plan shared by every worker of a run. Slot 0 is the
// warm-up, slots 1..slices are measured, slot slices+1 collects overrun work
// (a responder still draining after the last deadline).
struct Plan {
  u64 t0 = 0;  // end of warm-up
  u64 slice_ns = 0;
  unsigned slices = 0;
  u64 deadline(unsigned slot) const { return t0 + slot * slice_ns; }
  double slice_s() const { return static_cast<double>(slice_ns) * 1e-9; }
};

Plan make_plan(double seconds) {
  Plan p;
  p.slices = std::max(4u, static_cast<unsigned>(std::lround(seconds / kSliceS)));
  p.slice_ns = static_cast<u64>(seconds * 1e9 / p.slices);
  p.t0 = now_ns() + static_cast<u64>(kWarmupS * 1e9);
  return p;
}

struct SliceLog {
  explicit SliceLog(unsigned slices)
      : calls(slices + 2), cpu_ns(slices + 2), lat(slices + 2) {}
  std::vector<u64> calls;
  std::vector<u64> cpu_ns;
  std::vector<Histogram> lat;
  u64 all_calls() const {
    u64 n = 0;
    for (const u64 c : calls) n += c;
    return n;
  }
};

void pin_self(unsigned worker, unsigned placement);

// Per-worker slot cursor: tick() after each batch moves to the slot the
// clock is in, books the thread CPU time of the slot it leaves and moves the
// thread to the new slot's placement.
class SliceClock {
 public:
  SliceClock(const Plan& p, SliceLog& log, unsigned worker)
      : p_(p), log_(log), worker_(worker), cpu0_(thread_cpu_ns()) {}

  unsigned slot() const { return slot_; }
  u64& calls() { return log_.calls[slot_]; }
  Histogram& lat() { return log_.lat[slot_]; }
  u64 last_now() const { return now_; }

  // False once the measured slices are over.
  bool tick() {
    now_ = now_ns();
    if (slot_ > p_.slices) return false;
    if (now_ < p_.deadline(slot_)) return true;
    const u64 c = thread_cpu_ns();
    log_.cpu_ns[slot_] += c - cpu0_;
    cpu0_ = c;
    while (slot_ <= p_.slices && now_ >= p_.deadline(slot_)) ++slot_;
    pin_self(worker_, slot_);
    return slot_ <= p_.slices;
  }

 private:
  const Plan& p_;
  SliceLog& log_;
  unsigned worker_;
  u64 cpu0_;
  u64 now_ = 0;
  unsigned slot_ = 0;
};

// --- results --------------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
};

struct Check {
  u64 ran = 0;
  u64 failed = 0;
};

struct Outcome {
  Outcome(const Plan& p, unsigned workers) : plan(p), logs(workers, SliceLog(p.slices)) {}
  Plan plan;
  std::vector<SliceLog> logs;
  std::map<std::string, Check> checks;
  u64 transfers = 0;  // transfers attempted
  u64 failed = 0;     // not delivered exactly once, or an unexpected status
  std::map<std::string, Metric> layer;
  double peak_mib = 0.0;
};

struct EndToEnd {
  double mops = 0, p50 = 0, p99 = 0, cpu_ns_per_op = 0;
  u64 samples = 0;
};

// Medians over the measured slices of every episode.
EndToEnd summarize(const std::vector<Outcome>& episodes) {
  std::vector<double> mops, p50, p99, cpu;
  EndToEnd e;
  for (const Outcome& o : episodes) {
    for (unsigned s = 1; s <= o.plan.slices; ++s) {
      u64 calls = 0, cpu_ns = 0;
      Histogram h;
      for (const SliceLog& l : o.logs) {
        calls += l.calls[s];
        cpu_ns += l.cpu_ns[s];
        h.merge(l.lat[s]);
      }
      if (calls == 0) continue;  // every worker descheduled for the slice
      mops.push_back(static_cast<double>(calls) / o.plan.slice_s() * 1e-6);
      cpu.push_back(static_cast<double>(cpu_ns) / static_cast<double>(calls));
      if (h.count() > 0) {
        p50.push_back(h.quantile(0.50));
        p99.push_back(h.quantile(0.99));
      }
      e.samples += h.count();
    }
  }
  e.mops = median(mops);
  e.p50 = median(p50);
  e.p99 = median(p99);
  e.cpu_ns_per_op = median(cpu);
  return e;
}

// --- threads --------------------------------------------------------------

// Worker placement. The measured threads rotate over the last three allowed
// CPUs (CPU 0 takes most device interrupts on a small VM), one placement per
// slice: placement p puts worker w on g_cpus[(p + w) % size], so every CPU
// pair hosts a third of a 2-thread run's slices. On a shared host the cost of
// a cross-core handoff depends on where the hypervisor has put the two
// vCPUs; rotating samples several placements in every run instead of one.
std::vector<int> g_cpus;
std::atomic<bool> g_pinned{true};

void pin_self(unsigned worker, unsigned placement) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(g_cpus[(placement + worker) % g_cpus.size()], &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    g_pinned.store(false, std::memory_order_relaxed);
  }
}

void choose_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> allowed;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) allowed.push_back(c);
    }
  }
  if (allowed.empty()) allowed.push_back(0);
  const std::size_t k = std::min<std::size_t>(3, allowed.size());
  g_cpus.assign(allowed.end() - static_cast<std::ptrdiff_t>(k), allowed.end());
}

void run_workers(unsigned n, const std::function<void(unsigned)>& fn) {
  std::vector<std::thread> ts;
  for (unsigned w = 0; w < n; ++w) {
    ts.emplace_back([&fn, w] {
      pin_self(w, 0);
      fn(w);
    });
  }
  for (auto& t : ts) t.join();
}

// Median over repeated construct-and-attach cycles, after a warm-up: one
// cycle is tens of µs, so a single one is mostly noise.
template <class Make>
double median_setup_s(Make make) {
  std::vector<double> s;
  for (int i = 0; i < kSetupWarmup + kSetupReps; ++i) {
    const u64 t0 = now_ns();
    auto rig = make();
    if (i >= kSetupWarmup) s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(s);
}

// Peak metered bytes above the live bytes before the workload's queues
// existed: their footprint plus whatever they grow to during the run.
class PeakMeter {
 public:
  PeakMeter() : base_(wcq::alloc_meter::live_bytes()) {
    wcq::alloc_meter::reset_peak();
  }
  double mib() const {
    return static_cast<double>(wcq::alloc_meter::peak_bytes() - base_) /
           (1024.0 * 1024.0);
  }

 private:
  std::int64_t base_;
};

// --- pairs_1t: enqueue-then-dequeue on BoundedQueue<u64> ------------------

using Bounded = wcq::BoundedQueue<u64>;

Bounded::Options bounded_opts(unsigned order, bool magazines = true) {
  Bounded::Options o{order};
  o.magazine.enabled = magazines;
  return o;
}

template <bool kTraced>
Outcome run_pairs(u64 seed, double seconds) {
  PeakMeter peak;
  Bounded q(bounded_opts(kPairsOrder));
  Outcome out(make_plan(seconds), 1);
  Check chk;
  run_workers(1, [&](unsigned) {
    auto h = q.acquire();
    wcq::Xoshiro256 vals(seed);
    Sampler samp(seed ^ 0x5a5a);
    SliceClock clk(out.plan, out.logs[0], 0);
    // pairs_1t owns no per-layer metric (the ladder covers its layers); its
    // traced pass records the same call-boundary spans the other traced
    // passes do, for trace.overhead_frac.
    Histogram spans;
    const auto pair = [&](u64 v) {
      const bool ok = q.enqueue(h, v);
      const auto r = q.dequeue(h);
      ++chk.ran;
      chk.failed += (!ok || !r || *r != v) ? 1 : 0;
    };
    do {
      for (int k = 0; k < kBatch; ++k) {
        const u64 v = vals.next();
        if constexpr (kTraced) {
          // Call-boundary spans: each call timed on its own.
          u64 t = now_ns();
          const bool ok = q.enqueue(h, v);
          u64 t1 = now_ns();
          spans.add(t1 - t);
          const auto r = q.dequeue(h);
          spans.add(now_ns() - t1);
          ++chk.ran;
          chk.failed += (!ok || !r || *r != v) ? 1 : 0;
        } else if (samp.hit()) {
          const u64 t = now_ns();
          pair(v);
          clk.lat().add(now_ns() - t);
        } else {
          pair(v);
        }
      }
      clk.calls() += 2 * kBatch;
    } while (clk.tick());
  });
  out.checks["pairs.value"] = chk;
  out.transfers = chk.ran;
  out.failed = chk.failed;
  out.peak_mib = peak.mib();
  return out;
}

// --- p5050_2t: 50/50 random enqueue/dequeue, 2 threads --------------------

template <bool kTraced>
Outcome run_p5050(u64 seed, double seconds) {
  PeakMeter peak;
  Bounded q(bounded_opts(kP5050Order));
  Outcome out(make_plan(seconds), 2);
  // Value layout: tag(16) | producer(8) | seq(40). Dequeued values are
  // validated: the tag, the producer, and per-producer order (a linearizable
  // FIFO shows every consumer each producer's values in increasing order).
  const u64 tag = (mix(seed) >> 48) | 1;
  constexpr u64 kSeqMask = (u64{1} << 40) - 1;
  struct Consumer {
    std::array<u64, 2> next{};  // lowest seq still acceptable per producer
    Check order;
    void take(u64 v, u64 tag_) {
      const u64 pid = (v >> 40) & 0xff;
      const u64 s = v & kSeqMask;
      ++order.ran;
      if ((v >> 48) != tag_ || pid > 1 || s < next[pid]) {
        ++order.failed;
        return;
      }
      next[pid] = s + 1;
    }
  };
  struct alignas(128) Tally {
    u64 enq = 0, deq = 0, enq_sum = 0, deq_sum = 0, full = 0, empty = 0;
    Consumer cons;
    wcq::opcount::Counters oc{};
    Histogram henq, hdeq;
  };
  std::array<Tally, 2> tally;
  run_workers(2, [&](unsigned w) {
    Tally& t = tally[w];
    auto h = q.acquire();
    wcq::Xoshiro256 ops(mix(seed) + w);
    Sampler samp(seed * 3 + w);
    u64 seq = 0;
    const auto oc0 = wcq::opcount::snapshot();
    const auto enq = [&] {
      const u64 v = (tag << 48) | (u64{w} << 40) | seq;
      if (q.enqueue(h, v)) {
        ++seq;
        ++t.enq;
        t.enq_sum += mix(v);
      } else {
        ++t.full;
      }
    };
    const auto deq = [&] {
      if (const auto r = q.dequeue(h)) {
        ++t.deq;
        t.deq_sum += mix(*r);
        t.cons.take(*r, tag);
      } else {
        ++t.empty;
      }
    };
    SliceClock clk(out.plan, out.logs[w], w);
    do {
      for (int k = 0; k < kBatch; ++k) {
        const bool is_enq = ops.coin();
        if constexpr (kTraced) {
          const u64 t0 = now_ns();
          if (is_enq) {
            enq();
            t.henq.add(now_ns() - t0);
          } else {
            deq();
            t.hdeq.add(now_ns() - t0);
          }
        } else if (samp.hit()) {
          const u64 t0 = now_ns();
          is_enq ? enq() : deq();
          clk.lat().add(now_ns() - t0);
        } else {
          is_enq ? enq() : deq();
        }
      }
      clk.calls() += kBatch;
    } while (clk.tick());
    const auto oc1 = wcq::opcount::snapshot();
    t.oc.faa = oc1.faa - oc0.faa;
    t.oc.threshold = oc1.threshold - oc0.threshold;
    t.oc.registry = oc1.registry - oc0.registry;
  });
  // Drain on this thread and close the books: every value enqueued was
  // dequeued or drained exactly once.
  Consumer drain;
  u64 drained = 0, drained_sum = 0;
  {
    auto h = q.acquire();
    while (const auto r = q.dequeue(h)) {
      ++drained;
      drained_sum += mix(*r);
      drain.take(*r, tag);
    }
  }
  const Tally& a = tally[0];
  const Tally& b = tally[1];
  const u64 enq = a.enq + b.enq, deq = a.deq + b.deq;
  Check order;
  for (const Check& c : {a.cons.order, b.cons.order, drain.order}) {
    order.ran += c.ran;
    order.failed += c.failed;
  }
  Check sum;
  sum.ran = 1;
  const bool balanced = enq == deq + drained &&
                        a.enq_sum + b.enq_sum == a.deq_sum + b.deq_sum + drained_sum;
  if (!balanced) {
    const u64 dq = deq + drained;
    sum.failed = std::max<u64>(1, enq > dq ? enq - dq : dq - enq);
  }
  out.checks["p5050.order"] = order;
  out.checks["p5050.checksum"] = sum;
  out.transfers = enq;
  out.failed = order.failed + sum.failed;
  out.peak_mib = peak.mib();
  if constexpr (kTraced) {
    const double calls = static_cast<double>(out.logs[0].all_calls() +
                                             out.logs[1].all_calls());
    Histogram he = a.henq, hd = a.hdeq;
    he.merge(b.henq);
    hd.merge(b.hdeq);
    const double enq_calls = static_cast<double>(he.count());
    const double deq_calls = static_cast<double>(hd.count());
    out.layer["ring.faa_per_op"] = {(a.oc.faa + b.oc.faa) / calls, "1/op"};
    out.layer["ring.thld_per_op"] = {(a.oc.threshold + b.oc.threshold) / calls, "1/op"};
    out.layer["registry.lookups_per_op"] = {(a.oc.registry + b.oc.registry) / calls, "1/op"};
    out.layer["bounded.enq_ns_p50"] = {he.quantile(0.50), "ns"};
    out.layer["bounded.enq_ns_p99"] = {he.quantile(0.99), "ns"};
    out.layer["bounded.deq_ns_p50"] = {hd.quantile(0.50), "ns"};
    out.layer["bounded.deq_ns_p99"] = {hd.quantile(0.99), "ns"};
    out.layer["bounded.enq_full_frac"] = {(a.full + b.full) / enq_calls, "frac"};
    out.layer["bounded.deq_empty_frac"] = {(a.empty + b.empty) / deq_calls, "frac"};
  }
  return out;
}

// --- window_2t: 1P1C through UnboundedQueue, producer ≤ kWindow ahead ------

using Unbounded = wcq::UnboundedQueue<u64>;

Unbounded::Options window_opts() {
  Unbounded::Options o;
  o.segment_order = kWindowSegOrder;
  return o;
}

// Metered bytes one extra segment adds: grow a fresh queue from one linked
// segment to two.
double bytes_per_segment() {
  Unbounded q(window_opts());
  auto h = q.acquire();
  const std::int64_t b0 = wcq::alloc_meter::live_bytes();
  u64 n = 0;
  while (q.live_segments() < 2) q.enqueue(h, n++);
  const std::int64_t b1 = wcq::alloc_meter::live_bytes();
  while (q.dequeue(h)) {
  }
  return static_cast<double>(b1 - b0);
}

template <bool kTraced>
Outcome run_window(u64 seed, double seconds) {
  const double seg_bytes = kTraced ? bytes_per_segment() : 0.0;
  PeakMeter peak;
  Unbounded q(window_opts());
  Outcome out(make_plan(seconds), 2);
  const u64 base = mix(seed);  // element i carries base + i
  struct alignas(128) Counter {
    std::atomic<u64> v{0};
  };
  Counter produced_pub, consumed_pub;
  Check fifo;
  u64 produced = 0, consumed = 0;
  u64 wait_ns = 0, segs_max = 0;
  Histogram henq;
  // Metered allocations over the measured slices (the producer samples the
  // counter as it leaves the warm-up): zero once the segment pool is warm.
  std::int64_t allocs0 = 0, allocs1 = 0;
  run_workers(2, [&](unsigned w) {
    auto h = q.acquire();
    Sampler samp(seed * 5 + w);
    SliceClock clk(out.plan, out.logs[w], w);
    if (w == 0) {
      u64 cons_seen = 0, wait_t0 = 0;
      do {
        int n = 0;
        for (; n < kBatch; ++n) {
          if (produced - cons_seen >= kWindow) {
            cons_seen = consumed_pub.v.load(std::memory_order_acquire);
            if (produced - cons_seen >= kWindow) break;
          }
          const u64 v = base + produced;
          if constexpr (kTraced) {
            const u64 t0 = now_ns();
            q.enqueue(h, v);
            henq.add(now_ns() - t0);
            if ((produced & 1023) == 0) segs_max = std::max(segs_max, q.live_segments());
          } else if (samp.hit()) {
            const u64 t0 = now_ns();
            q.enqueue(h, v);
            clk.lat().add(now_ns() - t0);
          } else {
            q.enqueue(h, v);
          }
          ++produced;
        }
        if (n > 0) produced_pub.v.store(produced, std::memory_order_release);
        clk.calls() += static_cast<u64>(n);
        const unsigned slot = clk.slot();
        const bool more = clk.tick();
        if (slot == 0 && clk.slot() != 0) allocs0 = wcq::alloc_meter::total_allocations();
        if constexpr (kTraced) {
          // Waiting: a batch that found the window full and enqueued nothing.
          if (n == 0 && wait_t0 == 0) wait_t0 = clk.last_now();
          if (n > 0 && wait_t0 != 0) {
            if (clk.slot() >= 1) wait_ns += clk.last_now() - wait_t0;
            wait_t0 = 0;
          }
        }
        if (!more) break;
      } while (true);
      allocs1 = wcq::alloc_meter::total_allocations();
    } else {
      u64 prod_seen = 0;
      do {
        int n = 0;
        for (; n < kBatch; ++n) {
          if (consumed == prod_seen) {
            prod_seen = produced_pub.v.load(std::memory_order_acquire);
            if (consumed == prod_seen) break;
          }
          std::optional<u64> r;
          if (!kTraced && samp.hit()) {
            const u64 t0 = now_ns();
            r = q.dequeue(h);
            clk.lat().add(now_ns() - t0);
          } else {
            r = q.dequeue(h);
          }
          // The producer published this element after its enqueue returned,
          // so an empty result is a correctness failure, as is any value
          // out of strict FIFO order (1P1C preserves it).
          ++fifo.ran;
          if (!r || *r != base + consumed) ++fifo.failed;
          if (!r) break;
          ++consumed;
        }
        if (n > 0) consumed_pub.v.store(consumed, std::memory_order_release);
        clk.calls() += static_cast<u64>(n);
      } while (clk.tick());
    }
  });
  {
    auto h = q.acquire();
    while (consumed < produced) {
      const auto r = q.dequeue(h);
      ++fifo.ran;
      if (!r) {
        fifo.failed += produced - consumed;
        break;
      }
      if (*r != base + consumed) ++fifo.failed;
      ++consumed;
    }
    ++fifo.ran;
    if (q.dequeue(h)) ++fifo.failed;  // nothing beyond what was produced
  }
  out.checks["window.fifo"] = fifo;
  out.transfers = produced;
  out.failed = fifo.failed;
  out.peak_mib = peak.mib();
  if constexpr (kTraced) {
    double measured_calls = 0;
    for (const SliceLog& l : out.logs) {
      for (unsigned s = 1; s <= out.plan.slices; ++s) measured_calls += static_cast<double>(l.calls[s]);
    }
    const double measured_ns = static_cast<double>(out.plan.slices * out.plan.slice_ns);
    out.layer["reclaim.allocs_per_kop"] = {1000.0 * static_cast<double>(allocs1 - allocs0) / measured_calls, "1/kop"};
    out.layer["unbounded.live_segments_max"] = {static_cast<double>(segs_max), "count"};
    out.layer["unbounded.bytes_per_segment"] = {seg_bytes, "B"};
    out.layer["unbounded.enq_ns_p99"] = {henq.quantile(0.99), "ns"};
    out.layer["window.producer_wait_frac"] = {static_cast<double>(wait_ns) / measured_ns, "frac"};
  }
  return out;
}

// --- pingpong_2t: request/reply over two Channel<u64> ----------------------

using Chan = wcq::Channel<u64>;

template <bool kTraced>
Outcome run_pingpong(u64 seed, double seconds) {
  PeakMeter peak;
  Chan req(kChannelOrder), rep(kChannelOrder);
  Outcome out(make_plan(seconds), 2);
  const u64 salt = mix(seed ^ 0x77);
  const auto reply_of = [salt](u64 x) { return mix(x ^ salt); };
  Check replies;
  std::array<u64, 2> bad_status{};  // unexpected kClosed/kTimeout, per worker
  std::array<Histogram, 2> hsend, hrecv;
  run_workers(2, [&](unsigned w) {
    // Worker 0 is the client, worker 1 the server; each sends on one
    // channel and receives on the other.
    Chan& tx = w == 0 ? req : rep;
    Chan& rx = w == 0 ? rep : req;
    auto ht = tx.acquire();
    auto hr = rx.acquire();
    SliceClock clk(out.plan, out.logs[w], w);
    const auto send = [&](u64 v) {
      if constexpr (kTraced) {
        const u64 t0 = now_ns();
        const auto st = tx.send(ht, v);
        hsend[w].add(now_ns() - t0);
        return st;
      } else {
        return tx.send(ht, v);
      }
    };
    const auto recv = [&](u64& v) {
      if constexpr (kTraced) {
        const u64 t0 = now_ns();
        const auto st = rx.recv(hr, v);
        hrecv[w].add(now_ns() - t0);
        return st;
      } else {
        return rx.recv(hr, v);
      }
    };
    if (w == 0) {
      wcq::Xoshiro256 vals(seed);
      Sampler samp(seed * 7);
      do {
        for (int k = 0; k < kBatch / 8; ++k) {
          const u64 r = vals.next() | 1;
          u64 got = 0;
          const bool timed = !kTraced && samp.hit();
          const u64 t0 = timed ? now_ns() : 0;
          const auto s1 = send(r);
          const auto s2 = recv(got);
          if (timed) clk.lat().add(now_ns() - t0);
          bad_status[0] += (s1 != wcq::ChanStatus::kOk) + (s2 != wcq::ChanStatus::kOk);
          ++replies.ran;
          if (s2 != wcq::ChanStatus::kOk || got != reply_of(r)) ++replies.failed;
        }
        clk.calls() += 2 * (kBatch / 8);
      } while (clk.tick());
      if (send(kStop) != wcq::ChanStatus::kOk) ++bad_status[0];
    } else {
      u64 rounds = 0;
      for (;;) {
        u64 x = 0;
        if (recv(x) != wcq::ChanStatus::kOk) {
          ++bad_status[1];
          break;
        }
        if (x == kStop) break;
        if (send(reply_of(x)) != wcq::ChanStatus::kOk) ++bad_status[1];
        clk.calls() += 2;
        if (++rounds % 8 == 0) clk.tick();
      }
      clk.tick();
    }
  });
  out.checks["pingpong.reply"] = replies;
  out.transfers = 2 * replies.ran;
  out.failed = replies.failed + bad_status[0] + bad_status[1];
  out.peak_mib = peak.mib();
  if constexpr (kTraced) {
    const double kop = static_cast<double>(out.logs[0].all_calls() +
                                           out.logs[1].all_calls()) / 1000.0;
    const auto a = req.stats(), b = rep.stats();
    hsend[0].merge(hsend[1]);
    hrecv[0].merge(hrecv[1]);
    out.layer["channel.recv_parks_per_kop"] = {(a.recv_parks + b.recv_parks) / kop, "1/kop"};
    out.layer["channel.notifies_per_kop"] = {
        (a.send_notifies + a.recv_notifies + b.send_notifies + b.recv_notifies) / kop, "1/kop"};
    out.layer["channel.send_ns_p50"] = {hsend[0].quantile(0.50), "ns"};
    out.layer["channel.recv_wait_ns_p50"] = {hrecv[0].quantile(0.50), "ns"};
  }
  return out;
}

// --- the ladder: the pairs_1t script on every rung -----------------------

// Each rung is one layer stacked on the one below; a rung's self time is its
// pair time minus the pair time of what it is built on.
Outcome run_ladder(u64 seed, double seconds) {
  Outcome out(make_plan(seconds), 1);
  Check chk;
  constexpr unsigned kRungs = 8;
  static const char* const kNames[kRungs] = {
      "faa", "scq", "wcq", "bounded_nomag", "bounded", "bounded_implicit",
      "unbounded", "channel"};
  std::array<std::vector<double>, kRungs> ns;
  run_workers(1, [&](unsigned) {
    const u64 mask = (u64{1} << kPairsOrder) - 1;
    wcq::FAAQueue faa;
    wcq::SCQ scq(kPairsOrder);
    wcq::WCQ wq(kPairsOrder);
    auto wh = wq.handle();
    Bounded nomag(bounded_opts(kPairsOrder, false));
    auto nomag_h = nomag.acquire();
    Bounded bounded(bounded_opts(kPairsOrder));
    auto bounded_h = bounded.acquire();
    Bounded implicit(bounded_opts(kPairsOrder));
    Unbounded::Options uo;
    uo.segment_order = kPairsOrder;
    Unbounded unb(uo);
    auto unb_h = unb.acquire();
    Chan chan(kPairsOrder);
    auto chan_h = chan.acquire();
    wcq::Xoshiro256 vals(seed);
    const auto check = [&](bool ok) {
      ++chk.ran;
      chk.failed += ok ? 0 : 1;
    };
    // FAA transfers no values (paper §6): only "non-empty" is checked.
    auto faa_pair = [&](u64 v) { faa.enqueue(v); check(faa.dequeue().has_value()); };
    auto scq_pair = [&](u64 v) { scq.enqueue(v & mask); check(scq.dequeue() == (v & mask)); };
    auto wcq_pair = [&](u64 v) { wq.enqueue(wh, v & mask); check(wq.dequeue(wh) == (v & mask)); };
    auto nomag_pair = [&](u64 v) {
      check(nomag.enqueue(nomag_h, v) && nomag.dequeue(nomag_h) == v);
    };
    auto bounded_pair = [&](u64 v) {
      check(bounded.enqueue(bounded_h, v) && bounded.dequeue(bounded_h) == v);
    };
    auto implicit_pair = [&](u64 v) { check(implicit.enqueue(v) && implicit.dequeue() == v); };
    auto unb_pair = [&](u64 v) { check(unb.enqueue(unb_h, v) && unb.dequeue(unb_h) == v); };
    auto chan_pair = [&](u64 v) {
      u64 in = v, got = 0;
      check(chan.try_send(chan_h, in) == wcq::ChanStatus::kOk &&
            chan.try_recv(chan_h, got) == wcq::ChanStatus::kOk && got == v);
    };
    const u64 end = out.plan.t0 + out.plan.slices * out.plan.slice_ns;
    bool warm = true;
    const auto block = [&](unsigned r, auto& pair) {
      const u64 t0 = now_ns();
      for (unsigned i = 0; i < kLadderBlock; ++i) pair(vals.next());
      const u64 t1 = now_ns();
      if (!warm) ns[r].push_back(static_cast<double>(t1 - t0) / kLadderBlock);
    };
    // Interleaved repetition by repetition, so host drift hits every rung.
    while (now_ns() < end) {
      block(0, faa_pair);
      block(1, scq_pair);
      block(2, wcq_pair);
      block(3, nomag_pair);
      block(4, bounded_pair);
      block(5, implicit_pair);
      block(6, unb_pair);
      block(7, chan_pair);
      warm = now_ns() < out.plan.t0;
    }
  });
  std::array<double, kRungs> m{};
  for (unsigned r = 0; r < kRungs; ++r) {
    m[r] = median(ns[r]);
    out.layer[std::string(kNames[r]) + ".pair_ns"] = {m[r], "ns"};
  }
  // Index names: 0 faa, 1 scq, 2 wcq, 3 bounded_nomag, 4 bounded,
  // 5 bounded_implicit, 6 unbounded, 7 channel. The Fig 2 value queue runs
  // two wCQ rings (fq and aq), so its own work is nomag − 2·wcq.
  out.layer["scq.self_ns"] = {m[1] - m[0], "ns"};
  out.layer["wcq.self_ns"] = {m[2] - m[1], "ns"};
  out.layer["bounded.self_ns"] = {m[3] - 2 * m[2], "ns"};
  out.layer["magazine.self_ns"] = {m[4] - m[3], "ns"};
  out.layer["registry.self_ns"] = {m[5] - m[4], "ns"};
  out.layer["unbounded.self_ns"] = {m[6] - m[4], "ns"};
  out.layer["channel.self_ns"] = {m[7] - m[4], "ns"};
  out.checks["ladder.value"] = chk;
  out.transfers = chk.ran;
  out.failed = chk.failed;
  return out;
}

// --- main -------------------------------------------------------------------

enum class Workload { kPairs, kP5050, kWindow, kPingpong };

struct WorkloadInfo {
  const char* name;
  Workload id;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"pairs_1t", Workload::kPairs},
    {"p5050_2t", Workload::kP5050},
    {"window_2t", Workload::kWindow},
    {"pingpong_2t", Workload::kPingpong},
};

Outcome run(Workload w, bool traced, u64 seed, double seconds) {
  switch (w) {
    case Workload::kPairs:
      return traced ? run_pairs<true>(seed, seconds) : run_pairs<false>(seed, seconds);
    case Workload::kP5050:
      return traced ? run_p5050<true>(seed, seconds) : run_p5050<false>(seed, seconds);
    case Workload::kWindow:
      return traced ? run_window<true>(seed, seconds) : run_window<false>(seed, seconds);
    case Workload::kPingpong:
      return traced ? run_pingpong<true>(seed, seconds)
                    : run_pingpong<false>(seed, seconds);
  }
  std::abort();
}

double setup_s(Workload w) {
  switch (w) {
    case Workload::kPairs:
    case Workload::kP5050: {
      struct Rig {
        explicit Rig(unsigned order) : q(bounded_opts(order)), h(q.acquire()) {}
        Bounded q;
        Bounded::Handle h;
      };
      const unsigned order = w == Workload::kPairs ? kPairsOrder : kP5050Order;
      return median_setup_s([order] { return std::make_unique<Rig>(order); });
    }
    case Workload::kWindow: {
      struct Rig {
        Unbounded q{window_opts()};
        Unbounded::Handle h = q.acquire();
      };
      return median_setup_s([] { return std::make_unique<Rig>(); });
    }
    case Workload::kPingpong: {
      struct Rig {
        Chan req{kChannelOrder}, rep{kChannelOrder};
        Chan::Handle a = req.acquire(), b = rep.acquire();
      };
      return median_setup_s([] { return std::make_unique<Rig>(); });
    }
  }
  std::abort();
}

struct Totals {
  std::map<std::string, Check> checks;
  u64 transfers = 0, failed = 0;
  void add(const Outcome& o) {
    for (const auto& [k, c] : o.checks) {
      checks[k].ran += c.ran;
      checks[k].failed += c.failed;
    }
    transfers += o.transfers;
    failed += o.failed;
  }
};

void print_result(const WorkloadInfo& wi, bool traced, u64 seed,
                  const Totals& t, const std::map<std::string, Metric>& metrics,
                  u64 latency_samples) {
  bool correct = t.transfers > 0 && t.failed == 0;
  for (const auto& [k, c] : t.checks) correct = correct && c.ran > 0 && c.failed == 0;
  std::printf("{\"workload\": \"%s\", \"trace\": %d, \"seed\": %llu, "
              "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"failed_frac\": %.9g, \"latency_samples\": %llu, "
              "\"pinned\": %s, \"pinned_cpus\": [",
              wi.name, traced ? 1 : 0, static_cast<unsigned long long>(seed),
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.transfers),
              static_cast<unsigned long long>(t.failed),
              t.transfers ? static_cast<double>(t.failed) / static_cast<double>(t.transfers) : 1.0,
              static_cast<unsigned long long>(latency_samples),
              g_pinned.load() ? "true" : "false");
  for (std::size_t i = 0; i < g_cpus.size(); ++i) {
    std::printf("%s%d", i ? ", " : "", g_cpus[i]);
  }
  std::printf("], \"checks\": {");
  const char* sep = "";
  for (const auto& [k, c] : t.checks) {
    std::printf("%s\"%s\": {\"ran\": %llu, \"failed\": %llu}", sep, k.c_str(),
                static_cast<unsigned long long>(c.ran),
                static_cast<unsigned long long>(c.failed));
    sep = ", ";
  }
  std::printf("}, \"metrics\": {");
  sep = "";
  for (const auto& [k, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", sep, k.c_str(),
                m.value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <pairs_1t|p5050_2t|window_2t|"
               "pingpong_2t> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadInfo* wi = nullptr;
  u64 seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::strcmp(w.name, val) == 0) wi = &w;
      }
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else {
      return usage();
    }
  }
  if (wi == nullptr || !(seconds > 0.0 && seconds <= 120.0) ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
  choose_cpus();

  Totals totals;
  std::map<std::string, Metric> metrics;
  if (trace == 0) {
    // Fresh queues and threads per episode: where a run's memory and
    // threads land persists for the process's life, so one placement per
    // run would put its luck into the run's figures. Set-up is timed before
    // every episode: its cost drifts with the host over seconds (all cycles
    // of one moment agree; 20 µs at one moment, 30 µs a few seconds later),
    // so samples spread over the run beat many samples at its start.
    std::vector<Outcome> episodes;
    std::vector<double> setups;
    double peak_mib = 0.0;
    for (unsigned i = 0; i < kEpisodes; ++i) {
      setups.push_back(setup_s(wi->id));
      episodes.push_back(run(wi->id, false, seed + i, seconds / kEpisodes));
      totals.add(episodes.back());
      peak_mib = std::max(peak_mib, episodes.back().peak_mib);
    }
    const EndToEnd e = summarize(episodes);
    metrics["throughput_mops"] = {e.mops, "Mops/s"};
    metrics["latency_p50_ns"] = {e.p50, "ns"};
    metrics["latency_p99_ns"] = {e.p99, "ns"};
    metrics["cpu_ns_per_op"] = {e.cpu_ns_per_op, "ns"};
    metrics["peak_mib"] = {peak_mib, "MiB"};
    metrics["setup_s"] = {median(setups), "s"};
    print_result(*wi, false, seed, totals, metrics, e.samples);
    return 0;
  }

  // Traced run: a share of the budget per section, the ladder takes the
  // rest. The named workload runs traced and untraced for the overhead.
  const double section = seconds * 0.15;
  const Workload sel = wi->id;
  std::map<Workload, double> traced_mops;
  const auto traced = [&](Workload w) {
    const Outcome o = run(w, true, seed, section);
    totals.add(o);
    metrics.insert(o.layer.begin(), o.layer.end());
    traced_mops[w] = summarize({o}).mops;
  };
  traced(Workload::kP5050);
  traced(Workload::kWindow);
  traced(Workload::kPingpong);
  if (sel == Workload::kPairs) traced(Workload::kPairs);
  const Outcome plain = run(sel, false, seed, section);
  totals.add(plain);
  metrics["trace.overhead_frac"] = {1.0 - traced_mops[sel] / summarize({plain}).mops, "frac"};
  const double ladder_s = std::max(1.0, seconds - section * (traced_mops.size() + 1));
  const Outcome ladder = run_ladder(seed, ladder_s);
  totals.add(ladder);
  metrics.insert(ladder.layer.begin(), ladder.layer.end());
  print_result(*wi, true, seed, totals, metrics, 0);
  return 0;
}
