#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "sched/schedule.hpp"
#include "sched/scheduler_entry.hpp"
#include "serve/plan_signature.hpp"

/// Memoised schedule plans, bounded as a byte-accounted LRU.
///
/// A *plan* is everything heuristic selection produces for one signature:
/// the winning entry, the built schedule, and its predicted makespan.
/// Selection costs one backend prediction per competitor plus a schedule
/// build — the serving layer's whole point is to pay that once per
/// signature and answer repeats from here.  The cache mirrors
/// `exp::InstanceCache` (same locking, LRU, byte accounting, relaxed
/// stats, shared_ptr handout, `kUnbounded`/pass-through capacity
/// semantics) with two additions:
///
///  * entries are keyed by the signature's 64-bit hash, and a hash hit
///    whose stored signature differs is a detected *collision* — counted,
///    treated as a miss, never served, so a colliding pair can degrade
///    hit rate but never correctness;
///  * `get` carries a per-signature **build-once latch**: the first
///    requester of a missing signature builds, concurrent requesters for
///    the same signature wait on the latch (counted in `build_waits`),
///    and requesters for *other* signatures proceed untouched — a cached
///    hit never queues behind a plan that is still being built.
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

class SchedulePlanCache {
 public:
  /// Sentinel capacity: never evict (the default).
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

  /// `capacity_bytes == kUnbounded` means no bound; `0` means
  /// pass-through (nothing is ever retained; every `find` misses).
  explicit SchedulePlanCache(std::size_t capacity_bytes = kUnbounded);

  SchedulePlanCache(const SchedulePlanCache&) = delete;
  SchedulePlanCache& operator=(const SchedulePlanCache&) = delete;

  /// The resident plan for `sig`, promoted to most-recently-used, or null
  /// on a miss.  Counts exactly one hit or miss; a hash collision
  /// (resident entry under `sig.hash()` with a different signature) also
  /// counts a collision and misses.  Thread-safe.
  [[nodiscard]] PlanPtr find(const PlanSignature& sig);

  /// Non-accounting residency probe for front-ends that split the hit
  /// path (answer now) from the miss path (answer asynchronously): a
  /// resident equal-signature plan counts a hit and is promoted, exactly
  /// like `find`; anything else returns null *without* counting a miss
  /// or a collision — the follow-up `get` owns the miss accounting, so
  /// the request still lands in exactly one counter.
  /// Thread-safe.
  [[nodiscard]] PlanPtr peek(const PlanSignature& sig);

  /// Insert a built plan.  First insertion wins: if an equal-signature
  /// plan is already resident (a lost build race), the resident one is
  /// promoted and returned so every caller holds the same object.  A
  /// *colliding* resident (same hash, different signature) is replaced —
  /// and counted — because the map can hold only one plan per hash.
  /// Returns the plan now resident (the argument itself in pass-through
  /// mode).
  /// Counts neither hit nor miss.  Thread-safe.
  PlanPtr insert(PlanPtr plan);

  /// Per-request outcome of `get`, for front-ends that report it.
  struct GetStats {
    bool hit = false;     ///< answered from residency
    bool waited = false;  ///< answered by waiting on another's build
  };

  /// `find`, building and inserting on a miss — with a per-signature
  /// build-once latch: the first requester of a missing signature runs
  /// `build` outside the lock, concurrent requesters for the *same*
  /// signature wait on the latch and share the result (counted in
  /// `build_waits`), and requesters for other signatures proceed in
  /// parallel.  A build failure propagates to every waiter and clears
  /// the latch so the next requester retries.  `build` must not re-enter
  /// the cache for the same signature (it would wait on its own latch).
  [[nodiscard]] PlanPtr get(
      const PlanSignature& sig,
      const std::function<PlanPtr(const PlanSignature&)>& build,
      GetStats* stats = nullptr);

  /// Change the byte bound (`kUnbounded` = no bound, 0 = pass-through),
  /// evicting immediately if the current account exceeds it.
  void set_capacity(std::size_t capacity_bytes);
  [[nodiscard]] std::size_t capacity() const;

  /// Bytes the resident plans account for (`plan_bytes`).
  [[nodiscard]] std::size_t bytes_in_use() const;

  /// Distinct signatures currently resident.
  [[nodiscard]] std::size_t entries() const;

  // Monitoring counters — relaxed atomics exactly like `InstanceCache`:
  // each value is exact, a cross-counter snapshot may straddle an
  // in-flight lookup, and pollers never contend with the cache lock.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Hash collisions detected (lookup or insert meeting a resident entry
  /// with the same 64-bit hash but a different signature).
  [[nodiscard]] std::uint64_t collisions() const noexcept {
    return collisions_.load(std::memory_order_relaxed);
  }
  /// `get` calls answered by waiting on another requester's in-flight
  /// build instead of building or hitting.
  [[nodiscard]] std::uint64_t build_waits() const noexcept {
    return build_waits_.load(std::memory_order_relaxed);
  }

  /// The accounting rule: what one cached plan charges against the
  /// capacity (transfer list, finish vector, name, bookkeeping).
  [[nodiscard]] static std::size_t plan_bytes(
      const SchedulePlan& plan) noexcept;

 private:
  struct Entry {
    PlanPtr plan;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lru;  ///< front = most recent
  };

  /// One in-flight build: the first requester owns the promise, every
  /// concurrent equal-signature requester waits on the shared future.
  struct Inflight {
    explicit Inflight(PlanSignature s)
        : sig(std::move(s)), future(promise.get_future().share()) {}
    PlanSignature sig;
    std::promise<PlanPtr> promise;
    std::shared_future<PlanPtr> future;
  };

  /// Drop least-recently-used entries until the account fits.  Caller
  /// holds `mu_`.
  void evict_to_capacity();

  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> cache_;  ///< keyed by signature hash
  std::list<std::uint64_t> lru_;
  std::map<std::uint64_t, std::shared_ptr<Inflight>> inflight_;
  std::size_t capacity_;
  std::size_t bytes_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> collisions_{0};
  std::atomic<std::uint64_t> build_waits_{0};
};

}  // namespace gridcast::serve
