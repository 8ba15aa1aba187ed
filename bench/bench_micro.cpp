// Google-benchmark microbenchmarks: per-operation latency of the paper's
// queues, uncontended and under benchmark-managed thread groups. These
// complement the figure harnesses with statistically managed per-op costs.
#include <benchmark/benchmark.h>

#include "harness/adapters.hpp"

namespace wcq::bench {
namespace {

template <typename Adapter>
void BM_PairSingleThread(benchmark::State& state) {
  typename Adapter::Queue* q = Adapter::create();
  u64 out = 0;
  for (auto _ : state) {
    Adapter::enqueue(*q, 1);
    benchmark::DoNotOptimize(Adapter::dequeue(*q, out));
  }
  state.SetItemsProcessed(state.iterations() * 2);
  Adapter::destroy(q);
}

template <typename Adapter>
void BM_EmptyDequeue(benchmark::State& state) {
  typename Adapter::Queue* q = Adapter::create();
  u64 out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Adapter::dequeue(*q, out));
  }
  state.SetItemsProcessed(state.iterations());
  Adapter::destroy(q);
}

template <typename Adapter>
void BM_PairContended(benchmark::State& state) {
  static typename Adapter::Queue* q = nullptr;
  if (state.thread_index() == 0) q = Adapter::create();
  u64 out = 0;
  for (auto _ : state) {
    Adapter::enqueue(*q, 1);
    benchmark::DoNotOptimize(Adapter::dequeue(*q, out));
  }
  state.SetItemsProcessed(state.iterations() * 2);
  if (state.thread_index() == 0) {
    // Torn down after all threads exit the loop.
    Adapter::destroy(q);
    q = nullptr;
  }
}

// Segment set-up and recycle cost (DESIGN.md §8): constructing (and
// destroying) a BoundedQueue, and resetting one — what UnboundedQueue pays
// per fresh segment and per recycled one. Arg = ring order.
void BM_BoundedConstructSingleThread(benchmark::State& state) {
  const auto order = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    BoundedQueue<u64> q(order);
    benchmark::DoNotOptimize(&q);
  }
}
BENCHMARK(BM_BoundedConstructSingleThread)->Arg(8)->Arg(10);

void BM_BoundedResetSingleThread(benchmark::State& state) {
  BoundedQueue<u64> q(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    q.reset();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BoundedResetSingleThread)->Arg(8)->Arg(10);

#define WCQ_MICRO(Adapter)                                       \
  BENCHMARK_TEMPLATE(BM_PairSingleThread, Adapter);              \
  BENCHMARK_TEMPLATE(BM_EmptyDequeue, Adapter);                  \
  BENCHMARK_TEMPLATE(BM_PairContended, Adapter)->Threads(4)->UseRealTime();

WCQ_MICRO(WcqAdapter);
WCQ_MICRO(WcqLlscAdapter);
WCQ_MICRO(ScqAdapter);
WCQ_MICRO(FaaAdapter);
WCQ_MICRO(LcrqAdapter);
WCQ_MICRO(YmcAdapter);
WCQ_MICRO(MsAdapter);
WCQ_MICRO(CcAdapter);
WCQ_MICRO(CrTurnAdapter);
WCQ_MICRO(UnboundedAdapter);

}  // namespace
}  // namespace wcq::bench

BENCHMARK_MAIN();
