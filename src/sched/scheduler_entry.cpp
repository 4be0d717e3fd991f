#include "sched/scheduler_entry.hpp"

#include "sched/order_memo.hpp"

namespace gridcast::sched {

SchedulerRuntimeInfo::SchedulerRuntimeInfo(const Instance& inst,
                                           Bytes message_size,
                                           CompletionModel completion,
                                           OrderMemo* memo)
    : inst_(&inst),
      clusters_(inst.clusters()),
      message_size_(message_size),
      completion_(completion),
      max_internal_(inst.max_T()),
      lower_bound_(inst.lower_bound()),
      memo_(memo) {}

bool SchedulerEntry::can_schedule(const SchedulerRuntimeInfo& info) const {
  return info.clusters() >= 2;
}

std::string SchedulerEntry::describe_options() const {
  return {};
}

SendOrder SchedulerEntry::order(const Instance& inst) const {
  return order(SchedulerRuntimeInfo(inst, 0, opts_.completion));
}

Schedule SchedulerEntry::run(const Instance& inst) const {
  return schedule_of(*this, SchedulerRuntimeInfo(inst, 0, opts_.completion));
}

Time SchedulerEntry::makespan(const Instance& inst) const {
  return run(inst).makespan;
}

}  // namespace gridcast::sched
