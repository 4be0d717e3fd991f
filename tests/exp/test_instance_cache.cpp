#include "exp/instance_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "topology/grid5000.hpp"

namespace gridcast::exp {
namespace {

TEST(InstanceCache, DerivesOncePerKey) {
  const auto grid = topology::grid5000_testbed();
  InstanceCache cache(grid);
  EXPECT_EQ(cache.entries(), 0u);

  const InstancePtr a = cache.get(0, MiB(1));
  const InstancePtr b = cache.get(0, MiB(1));
  EXPECT_EQ(a.get(), b.get());  // same object, not a re-derivation
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  (void)cache.get(0, MiB(2));   // new size
  (void)cache.get(1, MiB(1));   // new root
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(InstanceCache, MatchesDirectDerivation) {
  const auto grid = topology::grid5000_testbed();
  InstanceCache cache(grid);
  const InstancePtr cached = cache.get(2, MiB(4));
  const sched::Instance direct = sched::Instance::from_grid(grid, 2, MiB(4));
  ASSERT_EQ(cached->clusters(), direct.clusters());
  EXPECT_EQ(cached->root(), direct.root());
  for (ClusterId i = 0; i < cached->clusters(); ++i) {
    EXPECT_DOUBLE_EQ(cached->T(i), direct.T(i));
    for (ClusterId j = 0; j < cached->clusters(); ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(cached->g(i, j), direct.g(i, j));
      EXPECT_DOUBLE_EQ(cached->L(i, j), direct.L(i, j));
    }
  }
}

TEST(InstanceCache, ChargesThreeMatricesPerInstance) {
  // g, L and the g+L transfer table, the T vector and the bookkeeping.
  const auto grid = topology::grid5000_testbed();
  const sched::Instance inst = sched::Instance::from_grid(grid, 0, MiB(1));
  const std::size_t n = inst.clusters();
  EXPECT_EQ(InstanceCache::instance_bytes(inst),
            3 * n * n * sizeof(Time) + n * sizeof(Time) +
                sizeof(sched::Instance) + InstanceCache::entry_bytes());
}

TEST(InstanceCache, HandlesStayValidAcrossGrowth) {
  const auto grid = topology::grid5000_testbed();
  InstanceCache cache(grid);
  const InstancePtr first = cache.get(0, KiB(256));
  const Time t0 = first->T(0);
  // Grow the cache well past any small-map reallocation threshold.
  for (Bytes m = KiB(512); m <= MiB(8); m += KiB(128)) (void)cache.get(0, m);
  EXPECT_DOUBLE_EQ(first->T(0), t0);
  EXPECT_EQ(cache.get(0, KiB(256)).get(), first.get());
}

TEST(InstanceCache, ConcurrentGetsAgree) {
  const auto grid = topology::grid5000_testbed();
  InstanceCache cache(grid);
  constexpr int kThreads = 8;
  std::vector<InstancePtr> got(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back(
          [&, t] { got[t] = cache.get(0, MiB(1) + KiB(256) * (t % 4)); });
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(cache.entries(), 4u);
  // Threads that asked for the same key see the same object.
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(got[t].get(), got[t % 4].get());
}

TEST(InstanceCache, ConcurrentFirstRequestsDeriveOnce) {
  // Eight threads ask for one missing key at once.  One derives; each of
  // the others either waits on that derivation (a miss and a build wait)
  // or arrives after it landed (a hit).
  const auto grid = topology::grid5000_testbed();
  InstanceCache cache(grid);
  constexpr int kThreads = 8;
  std::vector<InstancePtr> got(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] { got[t] = cache.get(3, MiB(2)); });
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(cache.misses() - cache.build_waits(), 1u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(cache.entries(), 1u);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t].get(), got[0].get());
}

TEST(InstanceCache, StatsReadableWhileCacheIsBusy) {
  // Regression pin for the stats data race: hits/misses/evictions are
  // relaxed atomics precisely so a monitoring thread can poll them while
  // worker threads mutate the cache.  The TSan lane fails this test if
  // the counters regress to plain fields; the count assertions below pin
  // that the atomics still tally exactly.
  const auto grid = topology::grid5000_testbed();
  const std::size_t one =
      InstanceCache::instance_bytes(sched::Instance::from_grid(grid, 0, MiB(1)));
  InstanceCache cache(grid, 2 * one);  // small bound: evictions also race

  std::atomic<bool> stop{false};
  std::uint64_t last_seen = 0;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t h = cache.hits();
      const std::uint64_t m = cache.misses();
      (void)cache.evictions();
      if (h + m > last_seen) last_seen = h + m;
    }
  });
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      workers.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r)
          (void)cache.get(0, MiB(1) + KiB(64) * ((r + t) % 6));
      });
    for (auto& w : workers) w.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  // Every lookup is exactly one hit or one miss.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(last_seen, cache.hits() + cache.misses());
}

// ------------------------------------------------------------ LRU bound

TEST(InstanceCacheLru, UnboundedByDefault) {
  const auto grid = topology::grid5000_testbed();
  InstanceCache cache(grid);
  EXPECT_EQ(cache.capacity(), InstanceCache::kUnbounded);
  for (Bytes m = KiB(256); m <= MiB(8); m += KiB(128)) (void)cache.get(0, m);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_GT(cache.bytes_in_use(), 0u);
  EXPECT_EQ(cache.bytes_in_use(),
            cache.entries() *
                InstanceCache::instance_bytes(*cache.get(0, KiB(256))));
}

TEST(InstanceCacheLru, EvictsLeastRecentlyUsedFirst) {
  const auto grid = topology::grid5000_testbed();
  // All grid5000 instances are the same cluster count, hence equal-sized:
  // a capacity of three instances holds exactly three entries.
  const std::size_t one =
      InstanceCache::instance_bytes(sched::Instance::from_grid(grid, 0, MiB(1)));
  InstanceCache cache(grid, 3 * one);

  (void)cache.get(0, MiB(1));
  (void)cache.get(0, MiB(2));
  (void)cache.get(0, MiB(3));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch MiB(1) so MiB(2) becomes the LRU victim.
  (void)cache.get(0, MiB(1));
  (void)cache.get(0, MiB(4));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);

  const std::uint64_t misses = cache.misses();
  (void)cache.get(0, MiB(1));  // still cached
  (void)cache.get(0, MiB(3));  // still cached
  (void)cache.get(0, MiB(4));  // still cached
  EXPECT_EQ(cache.misses(), misses);
  (void)cache.get(0, MiB(2));  // evicted: re-derives
  EXPECT_EQ(cache.misses(), misses + 1);
}

TEST(InstanceCacheLru, HandlesSurviveEviction) {
  const auto grid = topology::grid5000_testbed();
  const std::size_t one =
      InstanceCache::instance_bytes(sched::Instance::from_grid(grid, 0, MiB(1)));
  InstanceCache cache(grid, one);  // room for a single entry

  const InstancePtr held = cache.get(0, MiB(1));
  (void)cache.get(0, MiB(2));  // evicts MiB(1)
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  // The holder's instance is untouched by the eviction.
  EXPECT_EQ(held->root(), 0u);
  EXPECT_GT(held->T(0), 0.0);
}

TEST(InstanceCacheLru, TinyCapacityStillServes) {
  const auto grid = topology::grid5000_testbed();
  InstanceCache cache(grid, 1);  // smaller than any instance
  const InstancePtr a = cache.get(0, MiB(1));
  const InstancePtr b = cache.get(0, MiB(1));
  // Every get derives (nothing can be retained), but results stay valid.
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.entries(), 0u);
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->T(0), b->T(0));
}

}  // namespace
}  // namespace gridcast::exp
