#include "common/event.hpp"

namespace wcq::analysis {

namespace detail {
std::atomic<const EventHooks*> g_hooks{nullptr};
}  // namespace detail

namespace {

// The mutation model's one-entry "store buffer" (event.hpp). At most one
// store is parked per thread: ring code routes only the threshold re-arm
// through it, and a second defer drains the first — matching a real store
// buffer, which cannot reorder two stores to the same location.
struct DeferredStore {
  std::atomic<std::int64_t>* target = nullptr;
  std::int64_t value = 0;
};
thread_local DeferredStore tl_deferred;

}  // namespace

void flush_deferred() {
  if (tl_deferred.target != nullptr) {
    tl_deferred.target->store(tl_deferred.value, std::memory_order_seq_cst);
    tl_deferred.target = nullptr;
  }
}

namespace detail {
void dispatch(Event kind, std::uint64_t rank, std::uint64_t aux) {
  const EventHooks* h = g_hooks.load(std::memory_order_acquire);
  if (h != nullptr) h->event(h->ctx, kind, rank, aux);
  // Drain after a preempting kind's yield returns: everything the scheduler
  // ran in between saw the pre-store state, which is the reordering window
  // being modeled. Counter and payload kinds are not yield points.
  if (event_traits(kind).preempts) flush_deferred();
}
}  // namespace detail

void install(const EventHooks* hooks) {
  detail::g_hooks.store(hooks, std::memory_order_release);
}

void uninstall() {
  detail::g_hooks.store(nullptr, std::memory_order_release);
}

void mutate_deferred_store(std::atomic<std::int64_t>* target,
                           std::int64_t value) {
  if (!hooks_installed()) {
    target->store(value, std::memory_order_seq_cst);
    return;
  }
  flush_deferred();
  tl_deferred = DeferredStore{target, value};
}

}  // namespace wcq::analysis
