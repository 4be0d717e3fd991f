#include "sched/order_memo.hpp"

#include <utility>

#include "support/contracts.hpp"
#include "support/error.hpp"

namespace gridcast::sched {

std::string entry_key(const SchedulerEntry& entry) {
  // The separator keeps {"a","bc"} apart from {"ab","c"}.
  return std::string(entry.name()) + '|' + entry.describe_options();
}

void OrderMemo::clear() noexcept {
  inst_ = nullptr;
  used_ = 0;
  evaluations_ = 0;
}

std::size_t OrderMemo::lookup(const SchedulerEntry& entry,
                              const SchedulerRuntimeInfo& info) {
  if (inst_ == nullptr) {
    inst_ = &info.instance();
    completion_ = info.completion();
  }
  GRIDCAST_ASSERT(inst_ == &info.instance() && completion_ == info.completion(),
                  "order memo used with an info for another instance or "
                  "completion model");
  std::string key = entry_key(entry);
  for (std::size_t i = 0; i < used_; ++i) {
    if (slots_[i].key != key) continue;
    GRIDCAST_DCHECK(
        entry.order(SchedulerRuntimeInfo(info.instance(), info.message_size(),
                                         info.completion())) == slots_[i].order,
        "order memo hit differs from a fresh derivation: two entries share "
        "a key, or an order is not a pure function of the info");
    return i;
  }
  SendOrder order = entry.order(info);  // a composite recurses in here
  if (used_ == slots_.size()) slots_.emplace_back();
  Slot& slot = slots_[used_];
  slot.key = std::move(key);
  slot.order = std::move(order);
  slot.timed = false;
  return used_++;
}

SendOrder order_of(const SchedulerEntry& entry,
                   const SchedulerRuntimeInfo& info) {
  OrderMemo* memo = info.memo();
  if (memo == nullptr) return entry.order(info);
  return memo->slots_[memo->lookup(entry, info)].order;
}

Schedule schedule_of(const SchedulerEntry& entry,
                     const SchedulerRuntimeInfo& info) {
  OrderMemo* memo = info.memo();
  if (memo == nullptr)
    return evaluate_order(info.instance(), entry.order(info),
                          info.completion());
  OrderMemo::Slot& slot = memo->slots_[memo->lookup(entry, info)];
  if (!slot.timed) {
    slot.schedule =
        evaluate_order(info.instance(), slot.order, info.completion());
    slot.timed = true;
    ++memo->evaluations_;
  }
  return slot.schedule;
}

}  // namespace gridcast::sched
