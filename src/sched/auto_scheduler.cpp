#include "sched/auto_scheduler.hpp"

#include <utility>

#include "sched/order_memo.hpp"
#include "support/error.hpp"

namespace gridcast::sched {

AutoScheduler::AutoScheduler(const SchedulerRegistry& reg,
                             HeuristicOptions opts,
                             std::string_view self_name)
    : SchedulerEntry(opts) {
  for (const std::string& name : reg.names()) {
    // Never construct the entry we are registered as: its factory would
    // build another AutoScheduler and recurse forever.  Every other
    // composite is cheap to construct and identifies itself.
    if (name == self_name) continue;
    SchedulerEntryPtr entry = reg.make(name, opts);
    if (entry->is_composite()) continue;
    candidates_.push_back(std::move(entry));
  }
}

bool AutoScheduler::can_schedule(const SchedulerRuntimeInfo& info) const {
  for (const auto& cand : candidates_)
    if (cand->can_schedule(info)) return true;
  return false;
}

SendOrder AutoScheduler::order(const SchedulerRuntimeInfo& info) const {
  return propose(info).order;
}

std::string AutoScheduler::describe_options() const {
  return "candidates=" + std::to_string(candidates_.size());
}

AutoScheduler::Proposal AutoScheduler::propose(
    const SchedulerRuntimeInfo& info) const {
  Proposal p;
  const SchedulerEntry* best = nullptr;
  Schedule best_schedule;
  for (const auto& cand : candidates_) {
    if (!cand->can_schedule(info)) {
      ++p.gated;
      continue;
    }
    Schedule schedule = schedule_of(*cand, info);
    ++p.evaluated;
    if (best == nullptr || schedule.makespan < best_schedule.makespan) {
      best = cand.get();
      best_schedule = std::move(schedule);
    }
  }
  if (best == nullptr)
    throw InvalidInput(
        "auto: can_schedule refused every candidate for this instance "
        "(candidates: " +
        [this] {
          std::string names;
          for (const auto& c : candidates_) {
            if (!names.empty()) names += ", ";
            names += c->name();
          }
          return names;
        }() +
        ")");
  p.winner = best->name();
  p.order.reserve(best_schedule.transfers.size());
  for (const Transfer& t : best_schedule.transfers)
    p.order.push_back({t.sender, t.receiver});
  p.makespan = best_schedule.makespan;
  return p;
}

std::vector<std::string_view> AutoScheduler::candidate_names() const {
  std::vector<std::string_view> out;
  out.reserve(candidates_.size());
  for (const auto& c : candidates_) out.push_back(c->name());
  return out;
}

}  // namespace gridcast::sched
