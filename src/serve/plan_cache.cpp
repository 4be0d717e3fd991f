#include "serve/plan_cache.hpp"

namespace gridcast::serve {

std::size_t SchedulePlanCache::plan_bytes(const SchedulePlan& plan) noexcept {
  // The dominant payloads are the transfer list and the per-cluster finish
  // vector; the entry object behind `entry` is shared with the registry
  // and not charged.  Allocator slack is not modelled — the bound is a
  // working-set knob, like InstanceCache's.
  return sizeof(SchedulePlan) + plan.scheduler.size() +
         plan.schedule.transfers.size() * sizeof(sched::Transfer) +
         plan.schedule.cluster_finish.size() * sizeof(Time) + entry_bytes();
}

}  // namespace gridcast::serve
