#include "serve/plan_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace gridcast::serve {
namespace {

PlanSignature sig_of(std::uint32_t bucket, ClusterId root = 0) {
  return PlanSignature{1, collective::Verb::kBcast, root, bucket, 2};
}

/// A synthetic plan: no entry or transfers (the cache never looks inside),
/// constant-size so byte capacities convert to entry counts exactly.
PlanPtr fake_plan(const PlanSignature& sig) {
  return std::make_shared<const SchedulePlan>(SchedulePlan{
      sig, "fake", nullptr, sched::Schedule{},
      static_cast<Time>(sig.size_bucket), 64});
}

std::size_t one_plan() { return SchedulePlanCache::plan_bytes(*fake_plan(sig_of(0))); }

/// The plan for `bucket`, built on a miss.
PlanPtr get_plan(SchedulePlanCache& cache, std::uint32_t bucket) {
  return cache.get(sig_of(bucket), fake_plan);
}

TEST(PlanCache, GetMissesThenHits) {
  SchedulePlanCache cache;
  EXPECT_EQ(cache.capacity(), SchedulePlanCache::kUnbounded);
  const PlanPtr resident = get_plan(cache, 10);
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes_in_use(), one_plan());

  EXPECT_EQ(get_plan(cache, 10).get(), resident.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(get_plan(cache, 11)->signature, sig_of(11));
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCache, GetBuildsExactlyOncePerSignature) {
  SchedulePlanCache cache;
  int builds = 0;
  const auto build = [&](const PlanSignature& s) {
    ++builds;
    return fake_plan(s);
  };
  const PlanSignature base = sig_of(20);
  const PlanPtr a = cache.get(base, build);
  const PlanPtr b = cache.get(base, build);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(builds, 1);

  // The whole signature is the key: signatures that differ from `base`
  // in any one field each build once and hold their own entry.
  std::vector<PlanSignature> variants(5, base);
  variants[0].grid_hash = 3;
  variants[1].verb = collective::Verb::kScatter;
  variants[2].root = 1;
  variants[3].size_bucket = 21;
  variants[4].sched_rev = 4;
  for (const PlanSignature& v : variants) {
    const PlanPtr p = cache.get(v, build);
    EXPECT_EQ(cache.get(v, build).get(), p.get());
    EXPECT_EQ(p->signature, v);
  }
  EXPECT_EQ(builds, 6);
  EXPECT_EQ(cache.entries(), 6u);
  EXPECT_EQ(cache.peek(base).get(), a.get());
}

TEST(PlanCache, EvictsLeastRecentlyUsedFirst) {
  SchedulePlanCache cache(3 * one_plan());
  (void)get_plan(cache, 0);
  (void)get_plan(cache, 1);
  (void)get_plan(cache, 2);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch bucket 0 so bucket 1 becomes the LRU victim.
  (void)get_plan(cache, 0);
  (void)get_plan(cache, 8);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.peek(sig_of(0)), nullptr);
  EXPECT_NE(cache.peek(sig_of(2)), nullptr);
  EXPECT_NE(cache.peek(sig_of(8)), nullptr);
  EXPECT_EQ(cache.peek(sig_of(1)), nullptr);  // evicted
}

TEST(PlanCache, HoldersSurviveEviction) {
  SchedulePlanCache cache(one_plan());
  const PlanPtr held = get_plan(cache, 40);
  (void)get_plan(cache, 41);  // evicts bucket 40
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(held->signature.size_bucket, 40u);
  EXPECT_DOUBLE_EQ(held->predicted_makespan, 40.0);
}

TEST(PlanCache, TinyCapacityStillServes) {
  SchedulePlanCache cache(1);  // smaller than any plan
  const PlanPtr p = get_plan(cache, 60);
  // The fresh entry is its own eviction victim; the caller still gets it.
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->signature.size_bucket, 60u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(PlanCache, ConcurrentGetsShareOneObjectPerSignature) {
  // The TSan-lane stress pin: N threads hammer get() over a handful of
  // signatures through a bound small enough to keep evictions racing,
  // while a monitor thread polls the relaxed counters.  Apart from being
  // race-free, the accounting must stay exact: every lookup lands in
  // hits or misses.
  SchedulePlanCache cache(3 * one_plan());
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  constexpr std::uint32_t kSignatures = 6;

  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)cache.hits();
      (void)cache.misses();
      (void)cache.evictions();
      (void)cache.build_waits();
    }
  });
  std::vector<PlanPtr> last(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      workers.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          const auto sig = sig_of((r + t) % kSignatures);
          last[t] = cache.get(sig, [](const PlanSignature& s) {
            return fake_plan(s);
          });
        }
      });
    for (auto& w : workers) w.join();
  }
  stop.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kRounds);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.entries(), 3u);
  for (int t = 0; t < kThreads; ++t) ASSERT_NE(last[t], nullptr);
  // Whatever is resident now is the shared object for its signature.
  for (std::uint32_t b = 0; b < kSignatures; ++b) {
    if (const PlanPtr p = cache.peek(sig_of(b))) {
      EXPECT_EQ(p->signature, sig_of(b));
    }
  }
}

TEST(PlanCache, PeekCountsHitsButNeverMisses) {
  SchedulePlanCache cache;
  // Absent: no counters move — the follow-up get() owns the miss.
  EXPECT_EQ(cache.peek(sig_of(70)), nullptr);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  const PlanPtr resident = get_plan(cache, 70);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.peek(sig_of(70)).get(), resident.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // peek promotes like a hit: under a 2-plan bound, peeking bucket 70
  // makes bucket 71 the LRU victim.
  SchedulePlanCache lru(2 * one_plan());
  (void)get_plan(lru, 70);
  (void)get_plan(lru, 71);
  ASSERT_NE(lru.peek(sig_of(70)), nullptr);
  (void)get_plan(lru, 72);
  EXPECT_NE(lru.peek(sig_of(70)), nullptr);
  EXPECT_EQ(lru.peek(sig_of(71)), nullptr);  // evicted
}

TEST(PlanCache, LatchBuildsOnceAndWaitersShareTheResult) {
  // Two concurrent get()s for one missing signature: the first builds
  // (held on a gate until the second has provably latched), the second
  // waits and shares the object — one build, one wait counted.
  SchedulePlanCache cache;
  std::promise<void> entered;
  std::promise<void> release;
  std::atomic<int> builds{0};

  PlanPtr first;
  std::thread builder([&] {
    first = cache.get(sig_of(80), [&](const PlanSignature& s) {
      ++builds;
      entered.set_value();
      release.get_future().wait();
      return fake_plan(s);
    });
  });
  entered.get_future().wait();

  PlanPtr second;
  SchedulePlanCache::GetStats gs;
  std::thread waiter([&] {
    second = cache.get(
        sig_of(80),
        [&](const PlanSignature& s) {
          ++builds;
          return fake_plan(s);
        },
        &gs);
  });
  // The waiter must land on the latch before the build is released.
  while (cache.build_waits() == 0) std::this_thread::yield();
  release.set_value();
  builder.join();
  waiter.join();

  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_FALSE(gs.hit);
  EXPECT_EQ(cache.build_waits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);  // both requests missed; one build
}

TEST(PlanCache, LatchedBuildFailurePropagatesAndClears) {
  SchedulePlanCache cache;
  const auto boom = [](const PlanSignature&) -> PlanPtr {
    throw InvalidInput("no plan for you");
  };
  EXPECT_THROW((void)cache.get(sig_of(81), boom), InvalidInput);
  // The latch is cleared: the next requester retries (and can succeed).
  const PlanPtr p =
      cache.get(sig_of(81), [](const PlanSignature& s) { return fake_plan(s); });
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->signature.size_bucket, 81u);
}

TEST(PlanCache, BuilderMustReturnThePlanItWasAskedFor) {
  SchedulePlanCache cache;
  EXPECT_THROW((void)cache.get(sig_of(90),
                               [](const PlanSignature&) {
                                 return fake_plan(sig_of(91));
                               }),
               LogicError);
  EXPECT_THROW((void)cache.get(sig_of(90),
                               [](const PlanSignature&) { return PlanPtr{}; }),
               LogicError);
  EXPECT_EQ(cache.entries(), 0u);
  // Neither failure left a latch behind.
  EXPECT_NE(cache.get(sig_of(90), fake_plan), nullptr);
}

}  // namespace
}  // namespace gridcast::serve
