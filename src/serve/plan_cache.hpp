#pragma once

#include <memory>
#include <string>
#include <utility>

#include "sched/schedule.hpp"
#include "sched/scheduler_entry.hpp"
#include "serve/plan_signature.hpp"
#include "support/error.hpp"
#include "support/lru_cache.hpp"

/// Memoised schedule plans, bounded as a byte-accounted LRU.
///
/// A *plan* is everything heuristic selection produces for one signature:
/// the winning entry, the built schedule, and its predicted makespan.
/// Selection costs one backend prediction per competitor plus a schedule
/// build — the serving layer's whole point is to pay that once per
/// signature and answer repeats from here.  The cache is the same
/// `LruCache` as `exp::InstanceCache`, keyed by the whole signature; its
/// build-once latch means a cached hit never queues behind a plan that is
/// still being built.
namespace gridcast::serve {

/// What one request's selection produced.  `schedule` is the WAN send
/// schedule the winner built for `planned_size` (the signature bucket's
/// floor) rooted at `signature.root`; `predicted_makespan` is the plogp
/// completion of the winning series for the verb.
struct SchedulePlan {
  PlanSignature signature;
  std::string scheduler;           ///< winning registry name
  sched::SchedulerEntryPtr entry;  ///< the winning entry itself
  sched::Schedule schedule;
  Time predicted_makespan = 0.0;
  Bytes planned_size = 0;
};

/// Shared ownership handle; holders survive eviction.
using PlanPtr = std::shared_ptr<const SchedulePlan>;

class SchedulePlanCache : public LruCache<PlanSignature, SchedulePlan> {
 public:
  /// `capacity_bytes` is `kUnbounded` (the default) or the LRU bound in
  /// bytes.
  explicit SchedulePlanCache(std::size_t capacity_bytes = kUnbounded)
      : LruCache(capacity_bytes, &plan_bytes) {}

  /// Insert a built plan under its own signature (`LruCache::insert`).
  PlanPtr insert(PlanPtr plan) {
    GRIDCAST_ASSERT(plan != nullptr, "inserting a null plan");
    const PlanSignature& sig = plan->signature;
    return LruCache::insert(sig, std::move(plan));
  }

  /// `LruCache::get`, asserting that `build` returned the plan for the
  /// signature it was asked for.
  template <typename Build>
  [[nodiscard]] PlanPtr get(const PlanSignature& sig, const Build& build,
                            GetStats* stats = nullptr) {
    return LruCache::get(
        sig,
        [&build](const PlanSignature& s) {
          PlanPtr plan = build(s);
          GRIDCAST_ASSERT(plan == nullptr || plan->signature == s,
                          "plan builder returned a mismatched signature");
          return plan;
        },
        stats);
  }

  /// The accounting rule: what one cached plan charges against the
  /// capacity (transfer list, finish vector, name, bookkeeping).
  [[nodiscard]] static std::size_t plan_bytes(
      const SchedulePlan& plan) noexcept;
};

}  // namespace gridcast::serve
