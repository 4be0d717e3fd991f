#include "serve/plan_cache.hpp"

#include <utility>

#include "support/error.hpp"

namespace gridcast::serve {

SchedulePlanCache::SchedulePlanCache(std::size_t capacity_bytes)
    : capacity_(capacity_bytes) {}

std::size_t SchedulePlanCache::plan_bytes(const SchedulePlan& plan) noexcept {
  // The dominant payloads are the transfer list and the per-cluster finish
  // vector; the entry object behind `entry` is shared with the registry
  // and not charged.  Allocator slack is not modelled — the bound is a
  // working-set knob, like InstanceCache's.
  return sizeof(SchedulePlan) + plan.scheduler.size() +
         plan.schedule.transfers.size() * sizeof(sched::Transfer) +
         plan.schedule.cluster_finish.size() * sizeof(Time) + sizeof(Entry) +
         sizeof(std::uint64_t);
}

void SchedulePlanCache::evict_to_capacity() {
  if (capacity_ == kUnbounded) return;
  while (bytes_ > capacity_ && !lru_.empty()) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    const auto it = cache_.find(victim);
    bytes_ -= it->second.bytes;
    cache_.erase(it);  // holders' shared_ptrs keep the plan alive
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

PlanPtr SchedulePlanCache::find(const PlanSignature& sig) {
  const std::uint64_t key = sig.hash();
  std::lock_guard lk(mu_);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    if (it->second.plan->signature == sig) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.plan;
    }
    // Same 64-bit hash, different request: the collision check is what
    // keeps a hash key safe — the wrong plan is never served.
    collisions_.fetch_add(1, std::memory_order_relaxed);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

PlanPtr SchedulePlanCache::peek(const PlanSignature& sig) {
  const std::uint64_t key = sig.hash();
  std::lock_guard lk(mu_);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    if (it->second.plan->signature == sig) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.plan;
    }
  }
  // Not resident (or a collision): no counters — the caller's follow-up
  // `get` will account the miss exactly once.
  return nullptr;
}

PlanPtr SchedulePlanCache::insert(PlanPtr plan) {
  GRIDCAST_ASSERT(plan != nullptr, "inserting a null plan");
  const std::uint64_t key = plan->signature.hash();
  std::lock_guard lk(mu_);
  if (capacity_ == 0) return plan;  // pass-through: never retain
  if (const auto it = cache_.find(key); it != cache_.end()) {
    if (it->second.plan->signature == plan->signature) {
      // Lost a build race: the first insertion wins so all callers share
      // one object; the access still promotes the entry.
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.plan;
    }
    // Colliding signature resident under our hash.  Evict it (counted as
    // a collision, not an eviction — capacity did not force it) and take
    // the slot; serving correctness never depends on which one is
    // resident.
    collisions_.fetch_add(1, std::memory_order_relaxed);
    bytes_ -= it->second.bytes;
    lru_.erase(it->second.lru);
    cache_.erase(it);
  }
  const std::size_t sz = plan_bytes(*plan);
  lru_.push_front(key);
  const auto [it, inserted] = cache_.try_emplace(key);
  it->second = Entry{std::move(plan), sz, lru_.begin()};
  bytes_ += sz;
  // Copy out before evicting: a capacity smaller than one plan makes the
  // fresh entry its own victim, which would invalidate `it`.
  PlanPtr result = it->second.plan;
  evict_to_capacity();
  return result;
}

PlanPtr SchedulePlanCache::get(
    const PlanSignature& sig,
    const std::function<PlanPtr(const PlanSignature&)>& build,
    GetStats* stats) {
  const std::uint64_t key = sig.hash();
  std::shared_ptr<Inflight> mine;
  {
    std::unique_lock lk(mu_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      if (it->second.plan->signature == sig) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        if (stats != nullptr) stats->hit = true;
        return it->second.plan;
      }
      collisions_.fetch_add(1, std::memory_order_relaxed);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (const auto fl = inflight_.find(key); fl != inflight_.end() &&
                                             fl->second->sig == sig) {
      // The build-once latch: someone is already building this exact
      // signature — wait for their result instead of duplicating the
      // work.  The wait holds no lock, so hits and other signatures'
      // builds proceed untouched.
      build_waits_.fetch_add(1, std::memory_order_relaxed);
      if (stats != nullptr) stats->waited = true;
      const std::shared_future<PlanPtr> result = fl->second->future;
      lk.unlock();
      return result.get();  // rethrows the builder's failure, if any
    }
    // First requester — or a hash-colliding in-flight build we must not
    // share a latch with (it will produce a different plan); colliding
    // requesters build unlatched, which is correct and vanishingly rare.
    if (inflight_.find(key) == inflight_.end()) {
      mine = std::make_shared<Inflight>(sig);
      inflight_.emplace(key, mine);
    }
  }
  PlanPtr resident;
  try {
    PlanPtr built = build(sig);
    GRIDCAST_ASSERT(built != nullptr, "plan builder returned null");
    GRIDCAST_ASSERT(built->signature == sig,
                    "plan builder returned a mismatched signature");
    resident = insert(std::move(built));
  } catch (...) {
    if (mine != nullptr) {
      {
        std::lock_guard lk(mu_);
        if (const auto fl = inflight_.find(key);
            fl != inflight_.end() && fl->second == mine)
          inflight_.erase(fl);
      }
      // Waiters observe the same failure; the cleared latch lets the
      // next requester retry the build.
      mine->promise.set_exception(std::current_exception());
    }
    throw;
  }
  if (mine != nullptr) {
    {
      // Erase before fulfilling: a requester arriving between the two
      // steps finds the plan resident (insert happened above) instead of
      // a stale latch.
      std::lock_guard lk(mu_);
      if (const auto fl = inflight_.find(key);
          fl != inflight_.end() && fl->second == mine)
        inflight_.erase(fl);
    }
    mine->promise.set_value(resident);
  }
  return resident;
}

void SchedulePlanCache::set_capacity(std::size_t capacity_bytes) {
  std::lock_guard lk(mu_);
  capacity_ = capacity_bytes;
  evict_to_capacity();
}

std::size_t SchedulePlanCache::capacity() const {
  std::lock_guard lk(mu_);
  return capacity_;
}

std::size_t SchedulePlanCache::bytes_in_use() const {
  std::lock_guard lk(mu_);
  return bytes_;
}

std::size_t SchedulePlanCache::entries() const {
  std::lock_guard lk(mu_);
  return cache_.size();
}

}  // namespace gridcast::serve
