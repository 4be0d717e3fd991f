#include "exp/race_cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::exp {
namespace {

RaceSpec two_sched_spec() {
  RaceSpec spec;
  spec.sched_names = {"FlatTree", "ECEF-LAT"};
  spec.sizes = {KiB(512), MiB(1), MiB(2)};
  return spec;
}

// ---------------------------------------------------------------- parsing

TEST(RaceCliParse, DefaultsToFullRegistryRunOnGrid5000) {
  const RaceCli cli = parse_race_cli({});
  EXPECT_EQ(cli.action, RaceCli::Action::kRun);
  EXPECT_TRUE(cli.spec.sched_names.empty());  // empty = all registered
  EXPECT_TRUE(cli.spec.sizes.empty());        // empty = default ladder
  EXPECT_EQ(cli.grid_arg, "grid5000");
  EXPECT_EQ(cli.spec.shard.shards, 1u);
  EXPECT_FALSE(cli.spec.wall);
}

TEST(RaceCliParse, SchedListSizesAndMode) {
  const RaceCli cli = parse_race_cli(
      {"--sched=FlatTree,ecef-lat", "--sizes=256K,1M,4MiB",
       "--mode=measured", "--jitter=0.1", "--seed=9", "--root=2",
       "--out=x.json"});
  ASSERT_EQ(cli.spec.sched_names.size(), 2u);
  EXPECT_EQ(cli.spec.sched_names[1], "ecef-lat");
  ASSERT_EQ(cli.spec.sizes.size(), 3u);
  EXPECT_EQ(cli.spec.sizes[0], KiB(256));
  EXPECT_EQ(cli.spec.sizes[1], MiB(1));
  EXPECT_EQ(cli.spec.sizes[2], MiB(4));
  // "--mode=measured" survives as an alias of the "sim" backend and is
  // stored canonically.
  EXPECT_EQ(cli.spec.backend, "sim");
  EXPECT_DOUBLE_EQ(cli.spec.jitter, 0.1);
  EXPECT_EQ(cli.spec.seed, 9u);
  EXPECT_EQ(cli.spec.root, 2u);
  EXPECT_EQ(cli.out_path, "x.json");
}

TEST(RaceCliParse, BackendFlagAndAliases) {
  EXPECT_EQ(parse_race_cli({}).spec.backend, "plogp");
  EXPECT_EQ(parse_race_cli({"--backend=sim"}).spec.backend, "sim");
  EXPECT_EQ(parse_race_cli({"--backend=plogp"}).spec.backend, "plogp");
  // Legacy spellings and case-insensitive lookups resolve in the registry
  // and canonicalise.
  EXPECT_EQ(parse_race_cli({"--backend=predicted"}).spec.backend, "plogp");
  EXPECT_EQ(parse_race_cli({"--backend=MEASURED"}).spec.backend, "sim");
  EXPECT_EQ(parse_race_cli({"--mode=Sim"}).spec.backend, "sim");
  // Unknown backends fail at parse time, listing what is registered.
  try {
    (void)parse_race_cli({"--backend=mpi"});
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("plogp"), std::string::npos);
    EXPECT_NE(what.find("sim"), std::string::npos);
  }
}

TEST(RaceCliParse, ListBackends) {
  EXPECT_EQ(parse_race_cli({"--list-backends"}).action,
            RaceCli::Action::kListBackends);
  EXPECT_THROW((void)parse_race_cli({"--list-backends", "stray"}),
               InvalidInput);
}

TEST(RaceCliParse, ShardForms) {
  EXPECT_EQ(parse_race_cli({"--shards=4", "--shard=3"}).spec.shard.shard, 3u);
  const RaceCli pair = parse_race_cli({"--shard=1/3"});
  EXPECT_EQ(pair.spec.shard.shards, 3u);
  EXPECT_EQ(pair.spec.shard.shard, 1u);
  // Agreeing redundant forms are fine; disagreeing ones are not.
  EXPECT_NO_THROW((void)parse_race_cli({"--shards=3", "--shard=1/3"}));
  EXPECT_THROW((void)parse_race_cli({"--shards=2", "--shard=1/3"}),
               InvalidInput);
  // Shard index out of range.
  EXPECT_THROW((void)parse_race_cli({"--shards=2", "--shard=2"}),
               InvalidInput);
}

TEST(RaceCliParse, RejectsBadInput) {
  EXPECT_THROW((void)parse_race_cli({"--nonsense"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--no-prune"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"stray.json"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--mode=both"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--sizes=12Q"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--sizes=,1M"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--seed=ten"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--sched=a,,b"}), InvalidInput);
  // Wall time is machine-local; sharded outputs must stay byte-mergeable.
  EXPECT_THROW((void)parse_race_cli({"--wall", "--shards=2", "--shard=0"}),
               InvalidInput);
  // A keyed flag without '=' must not silently use itself as its value.
  EXPECT_THROW((void)parse_race_cli({"--out"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--check"}), InvalidInput);
  // A zero shard count in the k/N form must not degrade to unsharded.
  EXPECT_THROW((void)parse_race_cli({"--shard=0/0"}), InvalidInput);
}

TEST(RaceCliParse, MergeTakesOutputThenInputs) {
  const RaceCli cli =
      parse_race_cli({"--merge", "out.json", "a.json", "b.json"});
  EXPECT_EQ(cli.action, RaceCli::Action::kMerge);
  EXPECT_EQ(cli.out_path, "out.json");
  ASSERT_EQ(cli.merge_inputs.size(), 2u);
  EXPECT_EQ(cli.merge_inputs[1], "b.json");
  EXPECT_THROW((void)parse_race_cli({"--merge", "out.json"}), InvalidInput);
}

TEST(RaceCliParse, CheckNeedsBaseline) {
  const RaceCli cli = parse_race_cli(
      {"--check=cur.json", "--baseline=base.json", "--rtol=1e-3",
       "--wall-tol=5"});
  EXPECT_EQ(cli.action, RaceCli::Action::kCheck);
  EXPECT_EQ(cli.check_path, "cur.json");
  EXPECT_EQ(cli.baseline_path, "base.json");
  EXPECT_DOUBLE_EQ(cli.tolerances.makespan_rtol, 1e-3);
  EXPECT_DOUBLE_EQ(cli.tolerances.wall_factor, 5.0);
  EXPECT_THROW((void)parse_race_cli({"--check=cur.json"}), InvalidInput);
}

TEST(RaceCliParse, SizeUnits) {
  EXPECT_EQ(parse_size("262144"), Bytes{262144});
  EXPECT_EQ(parse_size("256K"), KiB(256));
  EXPECT_EQ(parse_size("256kib"), KiB(256));
  EXPECT_EQ(parse_size("4M"), MiB(4));
  EXPECT_EQ(parse_size("0.5MiB"), KiB(512));
  EXPECT_THROW((void)parse_size("MiB"), InvalidInput);
  EXPECT_THROW((void)parse_size("0K"), InvalidInput);
  // Sub-byte sizes would truncate to 0; huge ones would overflow the cast.
  EXPECT_THROW((void)parse_size("0.5"), InvalidInput);
  EXPECT_THROW((void)parse_size("99999999999999999999999"), InvalidInput);
}

// ------------------------------------------------------------- resolution

TEST(RaceResolve, UnknownNameListsRegisteredSchedulers) {
  try {
    (void)resolve_competitors({"FlatTree", "NoSuchHeuristic"}, {});
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("NoSuchHeuristic"), std::string::npos);
    EXPECT_NE(what.find("ECEF-LAT"), std::string::npos);
    EXPECT_NE(what.find("BottomUp"), std::string::npos);
  }
}

TEST(RaceResolve, RejectsDuplicatesEvenViaAliases) {
  EXPECT_THROW((void)resolve_competitors({"ECEF-LAT", "ecef-lat"}, {}),
               InvalidInput);
}

// ------------------------------------------------------- shard round trip

TEST(RaceShard, MergedShardsAreByteIdenticalToUnsharded) {
  const auto grid = topology::grid5000_testbed();
  ThreadPool pool(2);
  RaceSpec spec = two_sched_spec();

  InstanceCache full_cache(grid);
  const io::BenchReport full =
      run_race_sweep(full_cache, "grid5000_testbed", spec, pool);

  std::vector<io::BenchReport> shards;
  for (std::size_t k = 0; k < 3; ++k) {
    spec.shard = {3, k};
    InstanceCache cache(grid);
    shards.push_back(run_race_sweep(cache, "grid5000_testbed", spec, pool));
  }
  const io::BenchReport merged = merge_race_shards(shards);
  EXPECT_EQ(io::bench_to_json(merged), io::bench_to_json(full));
}

TEST(RaceShard, MeasuredModeMergesByteIdenticallyToo) {
  const auto grid = topology::grid5000_testbed();
  ThreadPool pool(2);
  RaceSpec spec = two_sched_spec();
  spec.backend = "sim";
  spec.jitter = 0.05;
  spec.seed = 42;

  InstanceCache full_cache(grid);
  const io::BenchReport full =
      run_race_sweep(full_cache, "grid5000_testbed", spec, pool);
  ASSERT_EQ(full.series[0].name, "DefaultLAM");

  std::vector<io::BenchReport> shards;
  for (std::size_t k = 0; k < 2; ++k) {
    spec.shard = {2, k};
    InstanceCache cache(grid);
    shards.push_back(run_race_sweep(cache, "grid5000_testbed", spec, pool));
  }
  const io::BenchReport merged =
      merge_race_shards({shards[1], shards[0]});  // order must not matter
  EXPECT_EQ(io::bench_to_json(merged), io::bench_to_json(full));
}

TEST(RaceShard, MergeRejectsBadShardSets) {
  const auto grid = topology::grid5000_testbed();
  ThreadPool pool(0);
  RaceSpec spec = two_sched_spec();

  std::vector<io::BenchReport> shards;
  for (std::size_t k = 0; k < 2; ++k) {
    spec.shard = {2, k};
    InstanceCache cache(grid);
    shards.push_back(run_race_sweep(cache, "grid5000_testbed", spec, pool));
  }

  EXPECT_THROW((void)merge_race_shards({}), InvalidInput);
  EXPECT_THROW((void)merge_race_shards({shards[0]}), InvalidInput);
  EXPECT_THROW((void)merge_race_shards({shards[0], shards[0]}), InvalidInput);

  // A cell computed by a shard that does not own it is corruption.
  auto bad = shards;
  bad[1].series[0].makespan_s = bad[0].series[0].makespan_s;
  EXPECT_THROW((void)merge_race_shards(bad), InvalidInput);

  // Metadata must agree.
  bad = shards;
  bad[1].grid = "other_grid";
  EXPECT_THROW((void)merge_race_shards(bad), InvalidInput);
}

// -------------------------------------------------------- engine details

TEST(RaceSweep, WallTimesOnlyWhereRequestedAndMeaningful) {
  const auto grid = topology::grid5000_testbed();
  ThreadPool pool(0);
  RaceSpec spec = two_sched_spec();
  spec.wall = true;
  spec.backend = "sim";
  InstanceCache cache(grid);
  const io::BenchReport r =
      run_race_sweep(cache, "grid5000_testbed", spec, pool);
  ASSERT_EQ(r.series.size(), 3u);
  EXPECT_TRUE(std::isnan(r.series[0].wall_time_s));  // DefaultLAM
  EXPECT_GE(r.series[1].wall_time_s, 0.0);
  EXPECT_GE(r.series[2].wall_time_s, 0.0);

  spec.shard = {2, 0};
  InstanceCache cache2(grid);
  EXPECT_THROW((void)run_race_sweep(cache2, "grid5000_testbed", spec, pool),
               InvalidInput);
}

TEST(RaceSweep, GatedEntriesAreSkippedNotRaced) {
  // grid5000 is a genuine WAN: the LAN-only and star-shaped specialists
  // must refuse via can_schedule and be dropped from the report — with no
  // series and no NaN holes — rather than raced.
  const auto grid = topology::grid5000_testbed();
  ThreadPool pool(0);
  InstanceCache cache(grid);
  RaceSpec spec;
  spec.sched_names = {"FlatTree", "LAN-Flat", "Star-WAN", "ECEF-LAT"};
  spec.sizes = {MiB(1)};
  std::vector<std::string> skipped;
  const io::BenchReport r =
      run_race_sweep(cache, "grid5000_testbed", spec, pool, &skipped);
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_EQ(r.series[0].name, "FlatTree");
  EXPECT_EQ(r.series[1].name, "ECEF-LAT");
  EXPECT_FALSE(std::isnan(r.series[0].makespan_s[0]));
  ASSERT_EQ(skipped.size(), 2u);
  EXPECT_EQ(skipped[0], "LAN-Flat");
  EXPECT_EQ(skipped[1], "Star-WAN");

  // All competitors gated: the sweep refuses instead of emitting an
  // empty report.
  spec.sched_names = {"LAN-Flat"};
  InstanceCache cache2(grid);
  EXPECT_THROW(
      (void)run_race_sweep(cache2, "grid5000_testbed", spec, pool),
      InvalidInput);
}

TEST(RaceSweep, EmptySchedulerListRejected) {
  const auto grid = topology::grid5000_testbed();
  ThreadPool pool(0);
  InstanceCache cache(grid);
  RaceSpec spec;
  spec.sizes = {MiB(1)};
  EXPECT_THROW((void)run_race_sweep(cache, "g", spec, pool), InvalidInput);
}

// --------------------------------------------------------- CLI end to end

// ------------------------------------------------- Monte-Carlo race mode

RaceGridSpec tiny_race() {
  RaceGridSpec spec;
  spec.sched_names = {"FlatTree", "ECEF-LAT"};
  spec.cluster_counts = {3, 4};
  spec.iterations = 12;
  spec.block_iters = 4;  // 3 blocks x 2 points = 6 shardable cells
  spec.seed = 11;
  return spec;
}

/// Mirrors tools/gridcast_race's main(): parse + run, InvalidInput -> 2.
/// The error-path tests assert on this, not on a thrown type, so they pin
/// the *process* contract (non-zero exit, one-line diagnostic on stderr).
int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  try {
    return run_race_cli(parse_race_cli(args), out, err);
  } catch (const InvalidInput& e) {
    err << "gridcast_race: " << e.what() << "\n";
    return 2;
  }
}

TEST(RaceGridParse, RaceFlagsAndDefaults) {
  const RaceCli cli = parse_race_cli(
      {"--race", "--sched=FlatTree,ECEF-LAT", "--clusters=2-4,8,10-20:5",
       "--iters=77", "--seed=3", "--backend=plogp"});
  EXPECT_EQ(cli.action, RaceCli::Action::kRace);
  const std::vector<std::size_t> want{2, 3, 4, 8, 10, 15, 20};
  EXPECT_EQ(cli.race.cluster_counts, want);
  EXPECT_EQ(cli.race.iterations, 77u);
  EXPECT_EQ(cli.race.seed, 3u);
  EXPECT_EQ(cli.race.backend, "plogp");
  EXPECT_FALSE(cli.race.realise);
  EXPECT_TRUE(parse_race_cli({"--race", "--realise"}).race.realise);
  // Shard flags flow through to the race spec.
  EXPECT_EQ(parse_race_cli({"--race", "--shard=1/3"}).race.shard.shards, 3u);
}

TEST(RaceGridParse, LadderHelpersMatchThePaper) {
  EXPECT_EQ(fig1_cluster_ladder(),
            (std::vector<std::size_t>{2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(fig2_cluster_ladder(),
            (std::vector<std::size_t>{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}));
  EXPECT_EQ(parse_cluster_list("2-10"), fig1_cluster_ladder());
  EXPECT_EQ(parse_cluster_list("5-50:5"), fig2_cluster_ladder());
}

TEST(RaceGridParse, RejectsSweepOnlyAndMalformedFlags) {
  EXPECT_THROW((void)parse_race_cli({"--race", "--sizes=1M"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--race", "--grid=g.txt"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--race", "--wall"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--race", "--merge", "a", "b"}),
               InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--clusters=3"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--iters=5"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--realise"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--race", "--iters=0"}), InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--race", "--clusters=5-3"}),
               InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--race", "--clusters=3-9:0"}),
               InvalidInput);
  EXPECT_THROW((void)parse_race_cli({"--race", "--clusters=3,,5"}),
               InvalidInput);
  // Ranges ending near 2^64 must neither wrap (infinite loop) nor expand
  // into an absurd point list.
  EXPECT_EQ(parse_cluster_list("2-18446744073709551615:18446744073709551615"),
            (std::vector<std::size_t>{2}));
  EXPECT_THROW((void)parse_cluster_list("2-18446744073709551615"),
               InvalidInput);
}

TEST(RaceGrid, ShardCountsOneTwoSevenAreByteIdentical) {
  // The property the CI job enforces end to end: same (seed, scheduler
  // set, backend) => the merged report is byte-identical for any shard
  // count, for the analytic backend and for the executing backend over
  // realised draws.
  ThreadPool pool(2);
  for (const bool realise : {false, true}) {
    RaceGridSpec spec = tiny_race();
    spec.backend = realise ? "sim" : "plogp";
    spec.realise = realise;
    spec.jitter = realise ? 0.1 : 0.0;

    spec.shard = {1, 0};
    const std::string unsharded =
        io::bench_to_json(run_race_grid(spec, pool));

    for (const std::size_t shards :
         {std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
      std::vector<io::BenchReport> parts;
      for (std::size_t k = 0; k < shards; ++k) {
        spec.shard = {shards, k};
        parts.push_back(run_race_grid(spec, pool));
      }
      // Merge order must not matter; rotate the inputs.
      std::rotate(parts.begin(), parts.begin() + 1, parts.end());
      EXPECT_EQ(io::bench_to_json(merge_race_grid_shards(parts)), unsharded)
          << (realise ? "sim" : "plogp") << " x " << shards << " shards";
    }
  }
}

TEST(RaceGrid, ThreadCountDoesNotChangeTheBytes) {
  RaceGridSpec spec = tiny_race();
  spec.backend = "sim";
  spec.realise = true;
  spec.jitter = 0.05;
  ThreadPool inline_pool(0);
  ThreadPool threaded(5);
  EXPECT_EQ(io::bench_to_json(run_race_grid(spec, inline_pool)),
            io::bench_to_json(run_race_grid(spec, threaded)));
}

TEST(RaceGrid, AddingACompetitorLeavesExistingSeriesUntouched) {
  // The PR 2 seed lesson applied to races: per-cell seeds derive from the
  // cluster count and the series name, never the competitor set — so a
  // newcomer cannot reseed (or re-jitter) the series that were already
  // there.  Makespans must be bit-identical; hit counts may legitimately
  // change (the newcomer can lower the global minimum).
  ThreadPool pool(0);
  for (const bool realise : {false, true}) {
    RaceGridSpec small = tiny_race();
    small.backend = realise ? "sim" : "plogp";
    small.realise = realise;
    small.jitter = realise ? 0.1 : 0.0;
    RaceGridSpec grown = small;
    grown.sched_names = {"FlatTree", "ECEF-LAT", "ECEF"};

    const io::BenchReport a = run_race_grid(small, pool);
    const io::BenchReport b = run_race_grid(grown, pool);
    for (const auto& name : small.sched_names) {
      const io::BenchSeries* sa = a.find_series(name);
      const io::BenchSeries* sb = b.find_series(name);
      ASSERT_NE(sa, nullptr);
      ASSERT_NE(sb, nullptr);
      EXPECT_EQ(sa->makespan_s, sb->makespan_s) << name;
    }
  }
}

TEST(RaceGrid, HitsCreditEveryAchieverAndGlobalMinDominates) {
  ThreadPool pool(0);
  RaceGridSpec spec = tiny_race();
  spec.sched_names = {"FlatTree", "FEF", "ECEF", "ECEF-LA", "ECEF-LAt",
                      "ECEF-LAT", "BottomUp"};
  const io::BenchReport r = run_race_grid(spec, pool);
  ASSERT_EQ(r.series.back().name, "GlobalMin");
  EXPECT_TRUE(r.series.back().hits.empty());
  for (std::size_t p = 0; p < r.sizes.size(); ++p) {
    double total = 0.0;
    for (std::size_t s = 0; s + 1 < r.series.size(); ++s) {
      total += r.series[s].hits[p];
      // The mean of per-iteration minima lower-bounds every series' mean.
      EXPECT_LE(r.series.back().makespan_s[p],
                r.series[s].makespan_s[p] + 1e-12);
    }
    // Every iteration has at least one achiever; ties can push the sum
    // past the iteration count (the Fig. 4 convention).
    EXPECT_GE(total, static_cast<double>(r.iterations));
  }
}

TEST(RaceGrid, MergeRejectsBadShardSets) {
  ThreadPool pool(0);
  RaceGridSpec spec = tiny_race();
  std::vector<io::BenchReport> shards;
  for (std::size_t k = 0; k < 2; ++k) {
    spec.shard = {2, k};
    shards.push_back(run_race_grid(spec, pool));
  }

  EXPECT_THROW((void)merge_race_grid_shards({}), InvalidInput);
  EXPECT_THROW((void)merge_race_grid_shards({shards[0]}), InvalidInput);
  EXPECT_THROW((void)merge_race_grid_shards({shards[0], shards[0]}),
               InvalidInput);

  // A block computed by a shard that does not own it is corruption.
  auto bad = shards;
  bad[1].series[0].block_sum_s = bad[0].series[0].block_sum_s;
  EXPECT_THROW((void)merge_race_grid_shards(bad), InvalidInput);

  // Metadata must agree (a different seed means different draws).
  bad = shards;
  bad[1].seed ^= 1;
  EXPECT_THROW((void)merge_race_grid_shards(bad), InvalidInput);

  // Monte-Carlo shards must not slip through the sweep merge, nor sweep
  // shards through this one.
  EXPECT_THROW((void)merge_race_shards(shards), InvalidInput);
}

TEST(RaceGrid, RealiseParityWithTheSampledPath) {
  // plogp over realised grids must reproduce plogp over the raw draws to
  // the last bit: the realisation is exact and the analytic backend only
  // sees the (identical) instance.  Only the grid label differs.
  ThreadPool pool(0);
  RaceGridSpec spec = tiny_race();
  const io::BenchReport raw = run_race_grid(spec, pool);
  spec.realise = true;
  const io::BenchReport realised = run_race_grid(spec, pool);
  EXPECT_EQ(raw.grid, "table2_sampled");
  EXPECT_EQ(realised.grid, "table2_realised");
  ASSERT_EQ(raw.series.size(), realised.series.size());
  for (std::size_t s = 0; s < raw.series.size(); ++s) {
    EXPECT_EQ(raw.series[s].makespan_s, realised.series[s].makespan_s);
    EXPECT_EQ(raw.series[s].hits, realised.series[s].hits);
  }
}

TEST(RaceGrid, GoldenReportIsStable) {
  // A tiny pinned race compared field by field against the checked-in
  // expectation, parsed by the strict bench_json reader — so silent
  // report-format drift (new/renamed keys, changed axis spelling, lost
  // hit counts) fails loudly here instead of in a downstream consumer.
  std::ifstream in(std::string(GRIDCAST_TEST_DATA_DIR) +
                   "/race_golden.json");
  ASSERT_TRUE(in) << "missing tests/data/race_golden.json";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden_text = buf.str();
  const io::BenchReport golden = io::bench_from_json(golden_text);

  // Writer stability: re-serialising the parse reproduces the file bytes.
  EXPECT_EQ(io::bench_to_json(golden), golden_text);

  RaceGridSpec spec;
  spec.sched_names = {"FlatTree", "ECEF-LAT"};
  spec.cluster_counts = {3, 5};
  spec.iterations = 8;
  spec.seed = 7;
  ThreadPool pool(0);
  const io::BenchReport live = run_race_grid(spec, pool);

  EXPECT_EQ(live.bench, golden.bench);
  EXPECT_EQ(live.grid, golden.grid);
  EXPECT_EQ(live.mode, golden.mode);
  EXPECT_EQ(live.root, golden.root);
  EXPECT_EQ(live.seed, golden.seed);
  EXPECT_EQ(live.iterations, golden.iterations);
  EXPECT_EQ(live.sizes, golden.sizes);
  ASSERT_EQ(live.series.size(), golden.series.size());
  for (std::size_t s = 0; s < live.series.size(); ++s) {
    EXPECT_EQ(live.series[s].name, golden.series[s].name);
    EXPECT_EQ(live.series[s].hits, golden.series[s].hits);  // exact counts
    ASSERT_EQ(live.series[s].makespan_s.size(),
              golden.series[s].makespan_s.size());
    for (std::size_t i = 0; i < live.series[s].makespan_s.size(); ++i)
      EXPECT_NEAR(live.series[s].makespan_s[i],
                  golden.series[s].makespan_s[i],
                  1e-9 * golden.series[s].makespan_s[i]);
  }
}

TEST(RaceGrid, RaceCheckGateCatchesHitDrift) {
  // The race baseline gate compares hit counts exactly.
  ThreadPool pool(0);
  const io::BenchReport base = run_race_grid(tiny_race(), pool);
  io::BenchReport cur = base;
  cur.series[0].hits[1] += 1;
  const auto problems = io::compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("hit-count drift"), std::string::npos);
  EXPECT_TRUE(io::compare_bench(base, base).empty());
}

TEST(RaceCliErrors, OneLineDiagnosticsAndNonZeroExit) {
  // Each CLI misuse must exit non-zero with a single-line diagnostic —
  // asserted here on the same parse-run-catch path main() uses.
  const auto run = [](const std::vector<std::string>& args,
                      std::string* diag = nullptr) {
    std::ostringstream out, err;
    const int code = cli_main(args, out, err);
    if (diag != nullptr) *diag = err.str();
    return code;
  };

  // instance_only() mismatch: an executing backend without --realise.
  std::string diag;
  EXPECT_NE(run({"--race", "--backend=sim", "--clusters=3", "--iters=2"},
                &diag),
            0);
  EXPECT_NE(diag.find("instance_only"), std::string::npos);
  EXPECT_NE(diag.find("--realise"), std::string::npos);
  EXPECT_EQ(diag.find('\n'), diag.size() - 1) << diag;  // one line

  // Unknown scheduler, listing what is registered.
  EXPECT_NE(run({"--race", "--sched=NoSuchHeuristic", "--iters=2"}, &diag),
            0);
  EXPECT_NE(diag.find("NoSuchHeuristic"), std::string::npos);
  EXPECT_NE(diag.find("ECEF-LAT"), std::string::npos);
  EXPECT_EQ(diag.find('\n'), diag.size() - 1) << diag;

  // A shape-gated entry refuses the Table 2 draws: designed error, named.
  EXPECT_NE(run({"--race", "--sched=FlatTree,LAN-Flat", "--clusters=3",
                 "--iters=2"},
                &diag),
            0);
  EXPECT_NE(diag.find("LAN-Flat"), std::string::npos);
  EXPECT_EQ(diag.find('\n'), diag.size() - 1) << diag;

  // Shard index out of range.
  EXPECT_NE(run({"--race", "--shards=2", "--shard=2", "--iters=2"}, &diag),
            0);
  EXPECT_NE(diag.find("out of range"), std::string::npos);
  EXPECT_EQ(diag.find('\n'), diag.size() - 1) << diag;

  // Root outside the smallest parameter point.
  EXPECT_NE(run({"--race", "--clusters=3,5", "--root=4", "--iters=2"},
                &diag),
            0);
  EXPECT_NE(diag.find("--root"), std::string::npos);
}

TEST(RaceCliErrors, RootAboveTheClusterIdRangeIsRejectedNotTruncated) {
  // Truncated to 32 bits, 2^32 + 1 would run root 1 and write --root=1's
  // report byte for byte.
  EXPECT_EQ(parse_race_cli({"--root=4294967295"}).spec.root, 4294967295u);
  for (const std::string big : {"4294967296", "4294967297"}) {
    std::ostringstream out, err;
    EXPECT_EQ(cli_main({"--sched=FlatTree", "--sizes=1M", "--root=" + big},
                       out, err),
              2);
    EXPECT_EQ(err.str(), "gridcast_race: --root: '" + big +
                             "' is out of range (max 4294967295)\n");
    EXPECT_EQ(out.str(), "");
  }
}

TEST(RaceCliDriver, RaceRunMergeAndCheckEndToEnd) {
  const std::string dir = testing::TempDir();
  const auto path = [&](const std::string& f) { return dir + "/" + f; };
  std::ostringstream out, err;

  // Sharded run -> merge -> gate against an unsharded baseline.
  ASSERT_EQ(cli_main({"--race", "--sched=FlatTree,ECEF-LAT",
                      "--clusters=3,4", "--iters=10", "--seed=5",
                      "--out=" + path("race_full.json")},
                     out, err),
            0);
  for (const std::string k : {"0", "1"}) {
    ASSERT_EQ(cli_main({"--race", "--sched=FlatTree,ECEF-LAT",
                        "--clusters=3,4", "--iters=10", "--seed=5",
                        "--shards=2", "--shard=" + k,
                        "--out=" + path("race_s" + k + ".json")},
                       out, err),
              0);
  }
  ASSERT_EQ(cli_main({"--merge", path("race_merged.json"),
                      path("race_s0.json"), path("race_s1.json")},
                     out, err),
            0);

  std::ifstream a(path("race_full.json")), b(path("race_merged.json"));
  std::ostringstream abuf, bbuf;
  abuf << a.rdbuf();
  bbuf << b.rdbuf();
  EXPECT_EQ(abuf.str(), bbuf.str());

  EXPECT_EQ(cli_main({"--check=" + path("race_merged.json"),
                      "--baseline=" + path("race_full.json")},
                     out, err),
            0);

  // Tamper with a hit count: the gate must fail.
  io::BenchReport tampered;
  {
    std::ifstream in(path("race_full.json"));
    tampered = io::read_bench_json(in);
  }
  tampered.series[0].hits[0] += 1;
  {
    std::ofstream o(path("race_bad.json"));
    io::write_bench_json(o, tampered);
  }
  std::ostringstream err2;
  EXPECT_EQ(cli_main({"--check=" + path("race_bad.json"),
                      "--baseline=" + path("race_full.json")},
                     out, err2),
            1);
  EXPECT_NE(err2.str().find("hit-count drift"), std::string::npos);
}

TEST(RaceCliDriver, CheckGatePassesAndFails) {
  const std::string dir = testing::TempDir();
  const std::string base_path = dir + "/race_base.json";
  const std::string cur_path = dir + "/race_cur.json";

  RaceCli run;
  run.spec = two_sched_spec();
  run.out_path = base_path;
  std::ostringstream out, err;
  ASSERT_EQ(run_race_cli(run, out, err), 0);

  RaceCli check;
  check.action = RaceCli::Action::kCheck;
  check.check_path = base_path;
  check.baseline_path = base_path;
  EXPECT_EQ(run_race_cli(check, out, err), 0);

  // Corrupt one makespan cell: the gate must fail.
  io::BenchReport tampered;
  {
    std::ifstream in(base_path);
    tampered = io::read_bench_json(in);
  }
  tampered.series[0].makespan_s[0] *= 1.5;
  {
    std::ofstream o(cur_path);
    io::write_bench_json(o, tampered);
  }
  check.check_path = cur_path;
  std::ostringstream err2;
  EXPECT_EQ(run_race_cli(check, out, err2), 1);
  EXPECT_NE(err2.str().find("makespan drift"), std::string::npos);
}

}  // namespace
}  // namespace gridcast::exp
