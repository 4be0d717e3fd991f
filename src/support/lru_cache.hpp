#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "support/error.hpp"

/// The one memo behind `exp::InstanceCache` (derived instances) and
/// `serve::SchedulePlanCache` (selected plans): a thread-safe,
/// byte-accounted LRU of shared immutable values.
///
///  * Values are handed out as `shared_ptr<const Value>`, so a holder's
///    value survives its own eviction — eviction only drops the cache's
///    reference.
///  * Each resident value charges `charge(value)` bytes.  When the account
///    exceeds the capacity, least-recently-used entries are evicted; a
///    capacity smaller than one value still serves that value, then evicts
///    it.  `kUnbounded` never evicts.
///  * `get` carries a per-key build-once latch: the first requester of a
///    missing key builds outside the lock, concurrent requesters of the
///    same key wait for that build (counted in `build_waits`), and
///    requesters of other keys proceed untouched.
///  * The counters are relaxed atomics — monitoring data, not
///    synchronisation.  Each value is exact; a cross-counter snapshot
///    taken mid-run may straddle an in-flight lookup, and pollers never
///    contend with the cache lock.
namespace gridcast {

template <typename Key, typename Value>
class LruCache {
 public:
  using Ptr = std::shared_ptr<const Value>;
  /// What one resident value charges against the capacity.
  using Charge = std::size_t (*)(const Value&) noexcept;

  /// Sentinel capacity: never evict.
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

  LruCache(std::size_t capacity_bytes, Charge charge)
      : capacity_(capacity_bytes), charge_(charge) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The resident value for `key`, promoted to most-recently-used, or
  /// null.  Counts exactly one hit or one miss.  Thread-safe.
  [[nodiscard]] Ptr find(const Key& key) {
    std::lock_guard lk(mu_);
    Ptr value = resident(key);
    if (value != nullptr)
      hits_.fetch_add(1, std::memory_order_relaxed);
    else
      misses_.fetch_add(1, std::memory_order_relaxed);
    return value;
  }

  /// `find` that counts hits only, for front-ends that answer a hit now
  /// and hand a miss to a later `get`: that `get` counts the miss, so the
  /// request still lands in exactly one counter.  Thread-safe.
  [[nodiscard]] Ptr peek(const Key& key) {
    std::lock_guard lk(mu_);
    Ptr value = resident(key);
    if (value != nullptr) hits_.fetch_add(1, std::memory_order_relaxed);
    return value;
  }

  /// Insert a value, counting neither hit nor miss.  The first insertion
  /// wins: if `key` is already resident, that value is promoted and
  /// returned, so every caller holds the same object.  Thread-safe.
  Ptr insert(const Key& key, Ptr value) {
    GRIDCAST_ASSERT(value != nullptr, "inserting a null value");
    std::lock_guard lk(mu_);
    return insert_locked(key, std::move(value));
  }

  /// Per-request outcome of `get`, for front-ends that report it.
  struct GetStats {
    bool hit = false;     ///< answered from residency
    bool waited = false;  ///< answered by waiting on another's build
  };

  /// `find`, and on a miss `build(key)` then `insert`, through the
  /// build-once latch.  A build failure reaches every waiter and clears
  /// the latch, so the next requester builds again.  `build` must not
  /// request its own key from this cache (it would wait on itself).
  template <typename Build>
  [[nodiscard]] Ptr get(const Key& key, const Build& build,
                        GetStats* stats = nullptr) {
    std::unique_lock lk(mu_);
    if (Ptr value = resident(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (stats != nullptr) stats->hit = true;
      return value;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      // Someone is building this key: wait for their result without the
      // lock, so hits and other keys' builds proceed.
      build_waits_.fetch_add(1, std::memory_order_relaxed);
      if (stats != nullptr) stats->waited = true;
      const std::shared_future<Ptr> result = it->second;
      lk.unlock();
      return result.get();  // rethrows the build's failure, if any
    }
    std::promise<Ptr> latch;
    inflight_.emplace(key, latch.get_future().share());
    lk.unlock();

    Ptr value;
    try {
      value = build(key);
      GRIDCAST_ASSERT(value != nullptr, "cache builder returned null");
    } catch (...) {
      lk.lock();
      inflight_.erase(key);
      lk.unlock();
      latch.set_exception(std::current_exception());
      throw;
    }
    // Insert and clear the latch in one step: a later requester finds
    // either the latch or the resident value, never neither.
    lk.lock();
    value = insert_locked(key, std::move(value));
    inflight_.erase(key);
    lk.unlock();
    latch.set_value(value);
    return value;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Bytes the resident values charge; the basis of eviction.
  [[nodiscard]] std::size_t bytes_in_use() const {
    std::lock_guard lk(mu_);
    return bytes_;
  }

  /// Distinct keys currently resident.
  [[nodiscard]] std::size_t entries() const {
    std::lock_guard lk(mu_);
    return map_.size();
  }

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// `get` calls answered by waiting on another requester's build.
  [[nodiscard]] std::uint64_t build_waits() const noexcept {
    return build_waits_.load(std::memory_order_relaxed);
  }

  /// The bookkeeping one resident value costs besides its own payload
  /// (its entry record and its key), for charge functions to add.
  [[nodiscard]] static constexpr std::size_t entry_bytes() noexcept {
    return sizeof(Entry) + sizeof(Key);
  }

 private:
  struct Entry {
    Ptr value;
    std::size_t bytes = 0;
    typename std::list<Key>::iterator lru;  ///< position in lru_
  };

  /// The resident value, promoted, or null.  Caller holds `mu_`.
  Ptr resident(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.value;
  }

  /// Caller holds `mu_`.
  Ptr insert_locked(const Key& key, Ptr value) {
    const auto [it, fresh] = map_.try_emplace(key);
    if (!fresh) {
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.value;
    }
    lru_.push_front(key);
    it->second = Entry{value, charge_(*value), lru_.begin()};
    bytes_ += it->second.bytes;
    // May evict the fresh entry itself; `value` still holds it.
    while (bytes_ > capacity_) {
      const auto victim = map_.find(lru_.back());
      bytes_ -= victim->second.bytes;
      map_.erase(victim);
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return value;
  }

  const std::size_t capacity_;
  const Charge charge_;
  mutable std::mutex mu_;
  std::map<Key, Entry> map_;
  std::list<Key> lru_;  ///< most recently used at the front
  std::map<Key, std::shared_future<Ptr>> inflight_;
  std::size_t bytes_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> build_waits_{0};
};

}  // namespace gridcast
