#include "sched/mixed.hpp"

#include "sched/order_memo.hpp"

namespace gridcast::sched {

MixedStrategy::MixedStrategy(std::size_t threshold, HeuristicOptions opts,
                             std::string_view small_name,
                             std::string_view large_name)
    : SchedulerEntry(opts),
      threshold_(threshold),
      small_(registry().make(small_name, opts)),
      large_(registry().make(large_name, opts)) {}

SendOrder MixedStrategy::order(const SchedulerRuntimeInfo& info) const {
  return order_of(delegate(info.clusters()), info);
}

std::string MixedStrategy::describe_options() const {
  return "small=" + std::string(small_->name()) +
         " large=" + std::string(large_->name()) +
         " threshold=" + std::to_string(threshold_);
}

const SchedulerEntry& MixedStrategy::delegate(
    std::size_t clusters) const noexcept {
  return clusters <= threshold_ ? *small_ : *large_;
}

}  // namespace gridcast::sched
