// The instrumentation seam (DESIGN.md §11 "Event seam").
//
// Every step the layers want observed — a shared Head/Tail F&A, a threshold
// re-arm, an entry CAS, a hazard publish, a park edge, a produced rank — is
// one `WCQ_EVENT(kind[, rank, aux])` annotation. The constexpr table below
// says, per kind, which thread-local op counter it bumps (if any) and
// whether it is a preemption point for the schedule explorer. What the
// annotation compiles to depends only on WCQ_ANALYSIS:
//
//  * Release builds: counted kinds compile to exactly one thread-local
//    increment (common/op_counters.hpp); every other kind, and the rank/aux
//    payload expressions, compile to nothing.
//  * Analysis builds (WCQ_ANALYSIS=1, tree-wide under the `analysis` preset
//    or per target): the counter increment plus a dispatch of
//    {kind, rank, aux} to the process-wide hooks installed with install().
//    With no hooks installed that is one acquire load and a predicted
//    branch. The PCT scheduler (tests/analysis/pct_scheduler.hpp) yields the
//    processor only at preempting kinds; payload and counter kinds pass
//    through it without adding a step.
//
// Mutation self-test support: the schedule explorer must be able to detect a
// deliberately broken memory ordering, otherwise a pass proves nothing.
// analysis::mutate_deferred_store() models the visibility a downgraded
// (relaxed) threshold re-arm is allowed to have — the store parks in the
// calling thread's "store buffer" and drains only at that thread's next
// preempting event, after the scheduler has had the chance to run other
// threads against the stale value. Ring code routes exactly one store
// through it, and only in the test-only mutation binaries (see
// tests/analysis/test_mutation_threshold.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "common/op_counters.hpp"

namespace wcq {

// One value per kind of observed step. The preempting kinds mirror the
// DESIGN.md §11 argument groups, so an exploration trace (one byte per
// kind) can be read against the per-site ordering table.
enum class Event : std::uint8_t {
  // -- preemption points: shared-memory transitions -------------------------
  kTailFaa = 0,     // shared Tail F&A (fast path, bulk span reservation)
  kHeadFaa,         // shared Head F&A
  kEntryUpdate,     // ring entry word CAS / consume-OR / Note watermark
  kThresholdCheck,  // empty fast-exit load of Threshold
  kThresholdArm,    // Threshold re-arm store (the §11 THLD-ARM site)
  kThresholdDec,    // Threshold decrement RMW
  kCatchup,         // Tail catchup CAS
  kSlowLocal,       // slow-path localTail/localHead CAS (incl. FIN edges)
  kSlowPublish,     // slow_F&A global {counter, ref} CAS2 publish/clear
  kSlowHelp,        // load_global_help_phase2 loop head
  kMagazinePut,     // magazine slot release-store
  kMagazineTake,    // magazine slot take-CAS (owner or stealer)
  kMagazineSteal,   // reclaim-sweep scan step
  kHazardProtect,   // hazard slot publish/validate
  kHazardClear,     // hazard slot clear
  kHazardRetire,    // retire-list append / scan trigger
  kHazardScan,      // scan's cross-thread hazard reads
  kPoolOp,          // segment pool take/put edge
  kRegistry,        // registry slot acquire / high-water advance
  kParkPrepare,     // eventcount prepare_wait: waiter count published
  kParkCancel,      // eventcount cancel_wait: waiter count retracted
  kParkCommit,      // eventcount commit_wait: park edge (and each
                    //   virtual-park re-check under the analysis scheduler)
  kParkWake,        // eventcount notify: epoch bump / futex wake edge
  kChanClose,       // channel close: closed-flag publish before the wakes
  kReadyPoll,       // blocking receive's spin-phase readiness-hint poll
  // -- counters only --------------------------------------------------------
  kSlowFaaGranted,  // slow_F&A's published increment succeeded
  kRegistryLookup,  // ThreadRegistry::tid()/high_water() resolution
  kRemoteSteal,     // ShardedQueue op succeeded on another node's shard
  // -- payload only (rank = ring counter value, aux = index) ---------------
  kRankProduced,    // wCQ entry produced at rank (fast or slow path)
  kRankConsumed,    // wCQ entry consumed at rank
  kCount,
};

struct EventTraits {
  Event kind;
  std::uint64_t opcount::Counters::*counter;  // nullptr: no counter
  bool preempts;
};

// The seam's one table: kind -> counter it bumps -> preemption point?
// Row i must describe kind i (checked below).
inline constexpr EventTraits kEventTable[] = {
    {Event::kTailFaa, &opcount::Counters::faa, true},
    {Event::kHeadFaa, &opcount::Counters::faa, true},
    {Event::kEntryUpdate, nullptr, true},
    {Event::kThresholdCheck, nullptr, true},
    {Event::kThresholdArm, &opcount::Counters::threshold, true},
    {Event::kThresholdDec, &opcount::Counters::threshold, true},
    {Event::kCatchup, nullptr, true},
    {Event::kSlowLocal, nullptr, true},
    {Event::kSlowPublish, nullptr, true},
    {Event::kSlowHelp, nullptr, true},
    {Event::kMagazinePut, nullptr, true},
    {Event::kMagazineTake, nullptr, true},
    {Event::kMagazineSteal, nullptr, true},
    {Event::kHazardProtect, nullptr, true},
    {Event::kHazardClear, nullptr, true},
    {Event::kHazardRetire, nullptr, true},
    {Event::kHazardScan, nullptr, true},
    {Event::kPoolOp, nullptr, true},
    {Event::kRegistry, nullptr, true},
    {Event::kParkPrepare, nullptr, true},
    {Event::kParkCancel, nullptr, true},
    {Event::kParkCommit, nullptr, true},
    {Event::kParkWake, nullptr, true},
    {Event::kChanClose, nullptr, true},
    {Event::kReadyPoll, nullptr, true},
    {Event::kSlowFaaGranted, &opcount::Counters::faa, false},
    {Event::kRegistryLookup, &opcount::Counters::registry, false},
    {Event::kRemoteSteal, &opcount::Counters::remote_steal, false},
    {Event::kRankProduced, nullptr, false},
    {Event::kRankConsumed, nullptr, false},
};

constexpr bool event_table_in_order() {
  for (std::size_t i = 0; i < std::size(kEventTable); ++i) {
    if (static_cast<std::size_t>(kEventTable[i].kind) != i) return false;
  }
  return std::size(kEventTable) == static_cast<std::size_t>(Event::kCount);
}
static_assert(event_table_in_order(), "kEventTable row i must be Event i");

constexpr const EventTraits& event_traits(Event e) {
  return kEventTable[static_cast<std::size_t>(e)];
}

// The release-build expansion: one thread-local add for counted kinds,
// nothing otherwise.
template <Event E>
inline void count_event() noexcept {
  constexpr auto counter = event_traits(E).counter;
  if constexpr (counter != nullptr) ++(opcount::tls_counters().*counter);
}

namespace analysis {

// Installed event callback, invoked for every event an analysis-built
// thread emits. A cooperative scheduler blocks inside it (at preempting
// kinds) until the thread is granted the processor again. Implementations
// must tolerate calls from threads they never registered (queue
// construction on a test's main thread, detached teardown work).
struct EventHooks {
  void (*event)(void* ctx, Event kind, std::uint64_t rank, std::uint64_t aux);
  void* ctx;
};

namespace detail {
// Single global installation point. Exploration is a whole-process activity
// (the registry and hazard tables are process-wide too); tests install one
// hook set at a time.
extern std::atomic<const EventHooks*> g_hooks;
// Out-of-line slow path: dispatch to the hooks, then — at preempting kinds
// only — drain this thread's deferred (mutation-model) store.
void dispatch(Event kind, std::uint64_t rank, std::uint64_t aux);
}  // namespace detail

inline bool hooks_installed() {
  return detail::g_hooks.load(std::memory_order_acquire) != nullptr;
}

// The analysis-build expansion of WCQ_EVENT.
template <Event E>
inline void emit(std::uint64_t rank = 0, std::uint64_t aux = 0) {
  count_event<E>();
  if (hooks_installed()) detail::dispatch(E, rank, aux);
}

// Install/uninstall the process-wide hooks. Callers serialize these with
// worker lifetime themselves (install before spawning instrumented workers,
// uninstall after joining them); the functions only publish the pointer.
void install(const EventHooks* hooks);
void uninstall();

// Model of a downgraded threshold re-arm: park {target, value} in a
// per-thread buffer instead of storing seq_cst. The buffered store drains at
// this thread's next preempting event *after* the scheduler's yield returns
// — so every other thread the scheduler chooses to run in between observes
// the pre-store value, exactly the window a relaxed store's delayed
// visibility opens on weak hardware (and the StoreLoad window x86 store
// buffers open even under TSO). With no hooks installed the store happens
// immediately, keeping mutated binaries usable outside the harness.
void mutate_deferred_store(std::atomic<std::int64_t>* target,
                           std::int64_t value);

// Drain the calling thread's parked store, if any. The exploration harness
// calls this when a worker leaves the scheduled region, so a schedule's
// trailing deferred store cannot leak into queue teardown.
void flush_deferred();

}  // namespace analysis
}  // namespace wcq

// WCQ_EVENT(kind[, rank, aux]) — the annotation the instrumented layers use.
// `kind` is an Event enumerator name without the scope (WCQ_EVENT(kTailFaa)).
// The payload arguments are not evaluated in release builds.
#if defined(WCQ_ANALYSIS) && WCQ_ANALYSIS
#define WCQ_EVENT(kind, ...) \
  ::wcq::analysis::emit<::wcq::Event::kind>(__VA_ARGS__)
#else
#define WCQ_EVENT(kind, ...) ::wcq::count_event<::wcq::Event::kind>()
#endif
