#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sched/scheduler_entry.hpp"

/// Derive each entry's order once per instance.
///
/// A race scores many entries on one instance, and the composites among
/// them ask their candidates ("auto") or delegates ("Mixed") for orders
/// the race already holds.  The caller that races entries on one instance
/// owns an `OrderMemo` for it and hands it out inside the one
/// `SchedulerRuntimeInfo` that feeds every scheduler.  Every order and
/// schedule requested through `order_of` / `schedule_of` with that info
/// is derived once and read back afterwards; without a memo the helpers
/// call the entry directly.
namespace gridcast::sched {

/// What an entry computes, as one string: its name plus
/// `describe_options()`.  Two entries with equal keys must select equal
/// orders for every info — the memo shares their slot, and serve's
/// scheduler-set revision hashes these keys.
[[nodiscard]] std::string entry_key(const SchedulerEntry& entry);

/// `entry.order(info)`, derived at most once per memo when `info` carries
/// one (under GRIDCAST_DCHECK a hit is re-derived without the memo and
/// must match: that catches two entries sharing a key, or an order that
/// is not a pure function of the info).
[[nodiscard]] SendOrder order_of(const SchedulerEntry& entry,
                                 const SchedulerRuntimeInfo& info);

/// `evaluate_order(info.instance(), order_of(entry, info),
/// info.completion())`, likewise evaluated at most once per memo.
[[nodiscard]] Schedule schedule_of(const SchedulerEntry& entry,
                                   const SchedulerRuntimeInfo& info);

/// The orders, and the schedules timed from them, of the entries asked
/// about one (instance, completion model).  The memo binds to the
/// instance and completion model of the first info it serves, and asserts
/// that every later info matches.  Not thread-safe: one per worker, like
/// the instance it describes.
class OrderMemo {
 public:
  OrderMemo() = default;
  OrderMemo(const OrderMemo&) = delete;
  OrderMemo& operator=(const OrderMemo&) = delete;

  /// Unbind and forget every stored order, keeping the storage for the
  /// next instance (a race worker clears one memo per draw).
  void clear() noexcept;

  /// Orders stored since the last clear(): one per derivation.
  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  /// `evaluate_order` calls made through the memo since the last clear().
  [[nodiscard]] std::size_t evaluations() const noexcept {
    return evaluations_;
  }

 private:
  friend SendOrder order_of(const SchedulerEntry&,
                            const SchedulerRuntimeInfo&);
  friend Schedule schedule_of(const SchedulerEntry&,
                              const SchedulerRuntimeInfo&);

  struct Slot {
    std::string key;
    SendOrder order;
    Schedule schedule;
    bool timed = false;
  };

  /// Index of the slot holding `entry`'s order for `info`, derived on a
  /// miss.  An index, not a reference: deriving a composite's order
  /// recurses into this memo and may grow `slots_`.
  std::size_t lookup(const SchedulerEntry& entry,
                     const SchedulerRuntimeInfo& info);

  const Instance* inst_ = nullptr;  ///< bound instance; null when clear
  CompletionModel completion_ = CompletionModel::kEager;
  std::vector<Slot> slots_;  ///< [0, used_) live; the rest keep storage
  std::size_t used_ = 0;
  std::size_t evaluations_ = 0;
};

}  // namespace gridcast::sched
