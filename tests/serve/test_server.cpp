#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::serve {
namespace {

const topology::Grid& testbed() {
  static const topology::Grid grid = topology::grid5000_testbed();
  return grid;
}

std::vector<ReplayRequest> checked_in_log() {
  std::ifstream in(std::string(GRIDCAST_TEST_DATA_DIR) +
                   "/serve_requests.txt");
  EXPECT_TRUE(in.good());
  return parse_request_log(in);
}

// ------------------------------------------------------------ signatures

TEST(PlanService, SignatureCanonicalisesAlltoallRoot) {
  PlanService svc(testbed(), "g5k");
  const auto a = svc.signature_for(collective::Verb::kAlltoall, 1, MiB(1));
  const auto b = svc.signature_for(collective::Verb::kAlltoall, 4, MiB(1));
  EXPECT_EQ(a, b);  // all-to-all is root-symmetric: one plan for all roots
  EXPECT_EQ(a.root, 0u);
  // Broadcast roots stay distinct.
  const auto c = svc.signature_for(collective::Verb::kBcast, 1, MiB(1));
  const auto d = svc.signature_for(collective::Verb::kBcast, 4, MiB(1));
  EXPECT_NE(c, d);
}

TEST(PlanService, SignatureRejectsBadRequests) {
  PlanService svc(testbed(), "g5k");
  const auto n = static_cast<ClusterId>(testbed().cluster_count());
  EXPECT_THROW((void)svc.signature_for(collective::Verb::kBcast, n, MiB(1)),
               InvalidInput);
  // The all-to-all root is canonicalised but still range-checked.
  EXPECT_THROW((void)svc.signature_for(collective::Verb::kAlltoall, n, MiB(1)),
               InvalidInput);
  EXPECT_THROW((void)svc.signature_for(collective::Verb::kBcast, 0, 0),
               InvalidInput);
}

TEST(PlanService, RejectsUnknownSchedulerNames) {
  ServeOptions opts;
  opts.sched_names = {"NoSuchScheduler"};
  EXPECT_THROW(PlanService(testbed(), "g5k", opts), InvalidInput);
}

// ------------------------------------------------------------- planning

TEST(PlanService, PlanForSharesOnePlanPerBucket) {
  PlanService svc(testbed(), "g5k");
  const PlanPtr a = svc.plan_for(collective::Verb::kBcast, 0, MiB(1));
  ASSERT_NE(a, nullptr);
  // Same quarter-octave bucket: answered from cache, same object.
  const PlanPtr b = svc.plan_for(collective::Verb::kBcast, 0, MiB(1) + 1);
  EXPECT_EQ(b.get(), a.get());
  EXPECT_EQ(svc.plans().hits(), 1u);
  EXPECT_EQ(svc.plans().misses(), 1u);
  // The plan is built for the bucket floor, not the request size.
  EXPECT_EQ(a->planned_size, bucket_floor(a->signature.size_bucket));
  EXPECT_GT(a->predicted_makespan, 0.0);
  EXPECT_FALSE(a->scheduler.empty());
  ASSERT_NE(a->entry, nullptr);
  EXPECT_EQ(a->entry->name(), a->scheduler);
}

TEST(PlanService, AlltoallBuildCachesOneInstancePerSize) {
  // The all-to-all gate re-roots the size's one instance instead of
  // deriving one per root cluster.
  PlanService svc(testbed(), "g5k");
  (void)svc.plan_for(collective::Verb::kAlltoall, 3, MiB(1));
  EXPECT_EQ(svc.instances().entries(), 1u);
  EXPECT_EQ(svc.instances().misses(), 1u);
  (void)svc.plan_for(collective::Verb::kAlltoall, 0, MiB(2));
  EXPECT_EQ(svc.instances().entries(), 2u);
  EXPECT_EQ(svc.instances().misses(), 2u);
}

TEST(PlanService, BuildPlanRejectsForeignSignatures) {
  PlanService svc(testbed(), "g5k");
  PlanSignature sig = svc.signature_for(collective::Verb::kBcast, 0, MiB(1));
  sig.grid_hash ^= 1;
  EXPECT_THROW((void)svc.build_plan(sig), InvalidInput);
  sig = svc.signature_for(collective::Verb::kBcast, 0, MiB(1));
  sig.sched_rev ^= 1;
  EXPECT_THROW((void)svc.build_plan(sig), InvalidInput);
}

TEST(PlanService, SelectionIsDeterministic) {
  PlanService a(testbed(), "g5k");
  PlanService b(testbed(), "g5k");
  for (const auto verb : collective::kAllVerbs) {
    const PlanPtr pa = a.plan_for(verb, 2, KiB(256));
    const PlanPtr pb = b.plan_for(verb, 2, KiB(256));
    ASSERT_NE(pa, nullptr);
    EXPECT_EQ(pa->scheduler, pb->scheduler);
    EXPECT_EQ(pa->predicted_makespan, pb->predicted_makespan);
    EXPECT_EQ(pa->schedule.transfers.size(), pb->schedule.transfers.size());
  }
}

// ------------------------------------------------------------- protocol

TEST(PlanServiceProtocol, BlankAndCommentLinesAreSilent) {
  PlanService svc(testbed(), "g5k");
  EXPECT_EQ(svc.handle_line("").text, "");
  EXPECT_EQ(svc.handle_line("   \t").text, "");
  EXPECT_EQ(svc.handle_line("# a comment").text, "");
  EXPECT_FALSE(svc.handle_line("").quit);
}

TEST(PlanServiceProtocol, QuitClosesTheSession) {
  PlanService svc(testbed(), "g5k");
  const auto reply = svc.handle_line("quit");
  EXPECT_EQ(reply.text, "bye");
  EXPECT_TRUE(reply.quit);
}

TEST(PlanServiceProtocol, PlanRepliesAreStableAndMarkHits) {
  PlanService svc(testbed(), "g5k");
  const auto first = svc.handle_line("plan bcast 0 1M");
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(first.text.rfind("plan verb=bcast root=0 size=1048576 bucket=80 "
                             "sched=",
                             0),
            0u)
      << first.text;
  EXPECT_NE(first.text.find(" makespan="), std::string::npos);
  EXPECT_NE(first.text.find(" transfers="), std::string::npos);
  EXPECT_EQ(first.text.substr(first.text.size() - 5), " miss");

  // Same bucket again: a hit, and the reply differs only in the tail.
  const auto second = svc.handle_line("plan bcast 0 1M");
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.text.substr(second.text.size() - 4), " hit");
  EXPECT_EQ(first.text.substr(0, first.text.size() - 5),
            second.text.substr(0, second.text.size() - 4));

  // All-to-all ignores the requested root for caching purposes.
  EXPECT_FALSE(svc.handle_line("plan alltoall 1 64K").hit);
  EXPECT_TRUE(svc.handle_line("plan alltoall 3 64K").hit);
}

TEST(PlanServiceProtocol, ErrorsKeepTheSessionAlive) {
  PlanService svc(testbed(), "g5k");
  EXPECT_EQ(svc.handle_line("plan bcast 0").text,
            "error: usage: plan <verb> <root> <size>");
  EXPECT_EQ(svc.handle_line("frobnicate").text,
            "error: unknown command 'frobnicate' (valid: plan, stats, quit)");
  EXPECT_EQ(svc.handle_line("plan gather 0 1M").text.rfind("error: unknown "
                                                           "verb",
                                                           0),
            0u);
  EXPECT_EQ(svc.handle_line("plan bcast x 1M").text,
            "error: root must be a decimal integer in [0, 4294967295], got "
            "'x'");
  EXPECT_EQ(svc.handle_line("plan bcast 99 1M").text.rfind("error: root "
                                                           "cluster 99",
                                                           0),
            0u);
  // The session still answers after every error above.
  EXPECT_FALSE(svc.handle_line("plan bcast 0 1M").text.empty());
}

TEST(PlanServiceProtocol, SizesAreReadExactly) {
  // Read through a double, 2^53 + 1 came back as 2^53.
  PlanService svc(testbed(), "g5k");
  const std::string reply =
      svc.handle_line("plan bcast 0 9007199254740993").text;
  EXPECT_NE(reply.find(" size=9007199254740993 "), std::string::npos)
      << reply;
}

TEST(PlanServiceProtocol, StatsReportTheCaches) {
  PlanService svc(testbed(), "g5k");
  (void)svc.handle_line("plan bcast 0 1M");
  (void)svc.handle_line("plan bcast 0 1M");
  const std::string s = svc.handle_line("stats").text;
  EXPECT_EQ(s.rfind("stats grid=g5k schedulers=", 0), 0u) << s;
  EXPECT_NE(s.find(" plans=1 "), std::string::npos) << s;
  EXPECT_NE(s.find(" hits=1 "), std::string::npos) << s;
  EXPECT_NE(s.find(" misses=1 "), std::string::npos) << s;
  EXPECT_NE(s.find(" instance_misses="), std::string::npos) << s;
}

// --------------------------------------------------------------- replay

TEST(Replay, ParseRequestLogIsStrict) {
  std::istringstream good(
      "# comment\n\nplan bcast 0 1M\nplan alltoall 2 64K\n");
  const auto reqs = parse_request_log(good);
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].verb, collective::Verb::kBcast);
  EXPECT_EQ(reqs[1].size, KiB(64));

  std::istringstream bad("plan bcast 0 1M\nplan bcast zero 1M\n");
  try {
    (void)parse_request_log(bad);
    FAIL() << "malformed line accepted";
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Replay, EmptyLogIsRefused) {
  PlanService svc(testbed(), "g5k");
  ThreadPool pool(0);
  EXPECT_THROW((void)replay_requests(svc, {}, pool), InvalidInput);
}

TEST(Replay, ReportIsByteIdenticalAcrossThreadsSessionsAndWarmth) {
  // The headline determinism pin: the default (no --timing) serve report
  // over the checked-in CI log is one byte string, whatever worker count
  // runs the builds, however many concurrent sessions hammer the live
  // caches, and however warm the live cache already is.
  const std::vector<ReplayRequest> requests = checked_in_log();
  ASSERT_FALSE(requests.empty());
  const auto run = [&](std::size_t workers, std::size_t sessions, bool warm) {
    PlanService svc(testbed(), "g5k");
    ThreadPool pool(workers);
    if (warm) (void)warm_requests(svc, requests, pool);
    ReplayOptions opts;
    opts.sessions = sessions;
    return io::bench_to_json(replay_requests(svc, requests, pool, opts));
  };
  const std::string reference = run(0, 1, false);
  EXPECT_EQ(run(4, 1, false), reference);
  EXPECT_EQ(run(4, 8, false), reference);  // 8 concurrent live sessions
  EXPECT_EQ(run(4, 8, true), reference);   // ... over a pre-warmed cache
  EXPECT_EQ(run(1, 2, true), reference);
}

TEST(Replay, BatchScopesOnlyBuildWaits) {
  // `build_waits` is defined over the batch window (a same-batch repeat
  // of a newly-scheduled build would have waited on its latch), so batch
  // boundaries may move it — and nothing else.  A batch of one means
  // nobody could ever wait.
  const std::vector<ReplayRequest> requests = checked_in_log();
  const auto run = [&](std::size_t batch) {
    PlanService svc(testbed(), "g5k");
    ThreadPool pool(2);
    ReplayOptions opts;
    opts.batch = batch;
    return replay_requests(svc, requests, pool, opts);
  };
  const io::BenchReport wide = run(64);
  const io::BenchReport narrow = run(7);
  const io::BenchReport serial = run(1);
  for (const char* name :
       {"hit_rate", "hits", "misses", "plans_built", "evictions",
        "predicted_sum_s"}) {
    const auto* w = wide.find_series(name);
    const auto* n = narrow.find_series(name);
    const auto* s = serial.find_series(name);
    ASSERT_NE(w, nullptr) << name;
    ASSERT_NE(n, nullptr) << name;
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(w->makespan_s[0], n->makespan_s[0]) << name;
    EXPECT_EQ(w->makespan_s[0], s->makespan_s[0]) << name;
  }
  const auto* waits = serial.find_series("build_waits");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->makespan_s[0], 0.0);
  const auto* wide_waits = wide.find_series("build_waits");
  ASSERT_NE(wide_waits, nullptr);
  EXPECT_GT(wide_waits->makespan_s[0], 0.0);  // the CI log has repeats
}

TEST(Replay, LiveStatsEqualTheReportSeries) {
  // The report's exact series come from a private model cache.  Serving
  // the same log one line at a time must leave the live cache with the
  // same counts, also under byte bounds that make it evict.
  for (const std::size_t capacity : {SchedulePlanCache::kUnbounded,
                                     std::size_t{6000}, std::size_t{12000}}) {
    SCOPED_TRACE(capacity);
    ServeOptions opts;
    opts.plan_capacity = capacity;
    PlanService svc(testbed(), "g5k", opts);
    std::ifstream log(std::string(GRIDCAST_TEST_DATA_DIR) +
                      "/serve_requests.txt");
    for (std::string line; std::getline(log, line);)
      (void)svc.handle_line(line);
    const std::string stats = svc.stats_line();

    ThreadPool pool(0);
    const io::BenchReport report = replay_requests(
        svc, checked_in_log(), pool, ReplayOptions{.batch = 1});
    for (const std::string name :
         {"hits", "misses", "evictions"}) {
      const auto* series = report.find_series(name);
      ASSERT_NE(series, nullptr) << name;
      const auto at = stats.find(' ' + name + '=');
      ASSERT_NE(at, std::string::npos) << stats;
      EXPECT_EQ(std::stod(stats.substr(at + name.size() + 2)),
                series->makespan_s[0])
          << name << " in " << stats;
    }
  }
}

TEST(Replay, WarmRequestsPrimesTheLiveCache) {
  const std::vector<ReplayRequest> requests = checked_in_log();
  PlanService svc(testbed(), "g5k");
  ThreadPool pool(2);
  const std::size_t built = warm_requests(svc, requests, pool);
  EXPECT_GT(built, 0u);
  // Warming is idempotent: a second pass finds everything resident.
  EXPECT_EQ(warm_requests(svc, requests, pool), 0u);
  // Every logged request is now answered from residency on the live path.
  for (const auto& rq : requests)
    EXPECT_TRUE(svc.handle_line("plan " +
                                std::string(collective::verb_name(rq.verb)) +
                                ' ' + std::to_string(rq.root) + ' ' +
                                std::to_string(rq.size))
                    .hit);
}

TEST(PlanService, HitCompletesWhileMissBuilds) {
  // The async-miss acceptance pin: a hit for a resident plan completes
  // while a miss for a *different* signature is still mid-build — the
  // build-once latch never queues other signatures behind it.
  PlanService svc(testbed(), "g5k");
  (void)svc.handle_line("plan bcast 0 1M");  // make Y resident
  std::promise<void> entered;
  std::promise<void> release;
  std::thread builder([&] {
    const PlanSignature sig_x =
        svc.signature_for(collective::Verb::kScatter, 1, KiB(64));
    (void)svc.plans().get(sig_x, [&](const PlanSignature& s) {
      entered.set_value();
      release.get_future().wait();  // hold the build until the hit landed
      return svc.build_plan(s);
    });
  });
  entered.get_future().wait();
  const auto reply = svc.handle_line("plan bcast 0 1M");
  EXPECT_TRUE(reply.hit);  // answered while X's build is still blocked
  release.set_value();
  builder.join();
  EXPECT_EQ(svc.plans().build_waits(), 0u);  // nobody had to wait
}

TEST(Replay, ReportRoundTripsAndSelfCompares) {
  const std::vector<ReplayRequest> requests = checked_in_log();
  PlanService svc(testbed(), "grid5000_testbed");
  ThreadPool pool(2);
  const io::BenchReport report = replay_requests(svc, requests, pool);

  EXPECT_EQ(report.bench, "serve");
  ASSERT_EQ(report.sizes.size(), 1u);
  EXPECT_EQ(report.sizes[0], requests.size());

  // hits + misses partition the log, and the hit_rate cell agrees.
  const auto* hits = report.find_series("hits");
  const auto* misses = report.find_series("misses");
  const auto* rate = report.find_series("hit_rate");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(hits->makespan_s[0] + misses->makespan_s[0],
            static_cast<double>(requests.size()));
  EXPECT_DOUBLE_EQ(rate->makespan_s[0],
                   hits->makespan_s[0] / static_cast<double>(requests.size()));

  // Strict-parser round trip is byte-exact, and the report gates cleanly
  // against itself.
  const std::string json = io::bench_to_json(report);
  EXPECT_EQ(io::bench_to_json(io::bench_from_json(json)), json);
  EXPECT_TRUE(io::compare_bench(report, report).empty());
}

TEST(Replay, TimingSeriesRideAlongWithoutDisturbingTheRest) {
  const std::vector<ReplayRequest> requests = checked_in_log();
  PlanService svc(testbed(), "g5k");
  ThreadPool pool(2);
  ReplayOptions opts;
  opts.timing = true;
  const io::BenchReport report = replay_requests(svc, requests, pool, opts);

  const auto* rps = report.find_series("requests_per_s");
  ASSERT_NE(rps, nullptr);
  ASSERT_EQ(rps->throughput.size(), 1u);
  EXPECT_GT(rps->throughput[0], 0.0);
  for (const char* name : {"latency_p50_s", "latency_p99_s"}) {
    const auto* s = report.find_series(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_GE(s->wall_time_s, 0.0);
    ASSERT_EQ(s->makespan_s.size(), 1u);
    EXPECT_TRUE(std::isnan(s->makespan_s[0]));  // wall cost, null value cell
  }
  // The timing report still round-trips the strict parser byte-exactly.
  const std::string json = io::bench_to_json(report);
  EXPECT_EQ(io::bench_to_json(io::bench_from_json(json)), json);
}

}  // namespace
}  // namespace gridcast::serve
