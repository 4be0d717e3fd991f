#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "collective/backends.hpp"
#include "topology/cluster.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::exp {
namespace {

/// The GRID5000 testbed with an instance cache, an inline pool and both
/// built-in backends (the simulator without jitter).
struct Testbed {
  topology::Grid grid = topology::grid5000_testbed();
  InstanceCache cache{grid};
  ThreadPool pool{0};
  collective::PlogpBackend plogp;
  collective::SimBackend sim{grid};
};

TEST(Sweep, DefaultLadderMatchesThePaperAxis) {
  // Fig. 5/6: 256 KiB steps from 256 KiB to 4 MiB — exactly 16 points.
  // (An off-by-one endpoint used to emit a 17th 4.25 MiB point.)
  const auto sizes = default_size_ladder();
  ASSERT_EQ(sizes.size(), 16u);
  EXPECT_EQ(sizes.front(), KiB(256));
  EXPECT_EQ(sizes.back(), MiB(4));
  for (std::size_t i = 1; i < sizes.size(); ++i)
    EXPECT_EQ(sizes[i] - sizes[i - 1], KiB(256));
}

TEST(Sweep, PredictedSeriesShapes) {
  Testbed tb;
  const auto comps = sched::paper_heuristics();
  const std::vector<Bytes> sizes{KiB(512), MiB(1), MiB(2)};
  const SweepResult r =
      backend_sweep(tb.plogp, tb.cache, 0, comps, sizes, 0, tb.pool);
  ASSERT_EQ(r.series.size(), comps.size());
  ASSERT_EQ(r.sizes.size(), 3u);
  for (const auto& s : r.series) {
    ASSERT_EQ(s.completion.size(), 3u);
    // Completion grows with message size for every heuristic.
    EXPECT_LT(s.completion[0], s.completion[2]);
  }
}

TEST(Sweep, PredictedNamesMatchSchedulers) {
  Testbed tb;
  const auto comps = sched::paper_heuristics();
  const std::vector<Bytes> sizes{MiB(1)};
  const SweepResult r =
      backend_sweep(tb.plogp, tb.cache, 0, comps, sizes, 0, tb.pool);
  EXPECT_EQ(r.series[0].name, "FlatTree");
  EXPECT_EQ(r.series[6].name, "BottomUp");
}

TEST(Sweep, MeasuredIncludesDefaultLam) {
  Testbed tb;
  const auto comps = sched::ecef_family();
  const std::vector<Bytes> sizes{KiB(512), MiB(1)};
  const SweepResult r =
      backend_sweep(tb.sim, tb.cache, 0, comps, sizes, 1, tb.pool);
  ASSERT_EQ(r.series.size(), comps.size() + 1);
  EXPECT_EQ(r.series[0].name, "DefaultLAM");
  for (const auto& s : r.series) {
    ASSERT_EQ(s.completion.size(), 2u);
    EXPECT_GT(s.completion[0], 0.0);
  }
}

TEST(Sweep, MeasuredTracksPredictedWithoutJitter) {
  Testbed tb;
  sched::HeuristicOptions opts;
  opts.completion = sched::CompletionModel::kAfterLastSend;
  const std::vector<sched::Scheduler> comps{
      sched::Scheduler("ECEF-LA", opts)};
  const std::vector<Bytes> sizes{MiB(1), MiB(4)};
  const SweepResult pred =
      backend_sweep(tb.plogp, tb.cache, 0, comps, sizes, 0, tb.pool);
  const SweepResult meas =
      backend_sweep(tb.sim, tb.cache, 0, comps, sizes, 1, tb.pool);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double p = pred.series[0].completion[i];
    const double m = meas.series[1].completion[i];  // [0] is DefaultLAM
    // The executor adds receive overheads the model omits; the paper's
    // own Fig. 5 vs 6 gap is of the same nature.
    EXPECT_NEAR(m, p, p * 0.25) << "size " << sizes[i];
    EXPECT_GE(m, p - 1e-9);  // overheads only ever slow execution down
  }
}

TEST(Sweep, ThreadedSweepMatchesInline) {
  // Sweeps dispatch across the pool; any worker count must produce
  // exactly the inline result.
  Testbed tb;
  const collective::SimBackend sim(tb.grid, {0.05});
  const auto comps = sched::ecef_family();
  const std::vector<Bytes> sizes{KiB(512), MiB(1), MiB(2)};
  ThreadPool pool(3);
  const SweepResult pi =
      backend_sweep(tb.plogp, tb.cache, 0, comps, sizes, 0, tb.pool);
  const SweepResult pt =
      backend_sweep(tb.plogp, tb.cache, 0, comps, sizes, 0, pool);
  const SweepResult mi =
      backend_sweep(sim, tb.cache, 0, comps, sizes, 9, tb.pool);
  const SweepResult mt = backend_sweep(sim, tb.cache, 0, comps, sizes, 9, pool);
  for (std::size_t s = 0; s < pi.series.size(); ++s)
    EXPECT_EQ(pi.series[s].completion, pt.series[s].completion);
  for (std::size_t s = 0; s < mi.series.size(); ++s)
    EXPECT_EQ(mi.series[s].completion, mt.series[s].completion);
}

TEST(Sweep, MeasuredSeriesInvariantUnderCompetitorSetGrowth) {
  // Regression: per-cell seeds used to be derived from the flat cell
  // index, which encodes the competitor count — adding one competitor
  // silently reseeded every existing series, DefaultLAM included.  Seeds
  // now come from (size index, series name), so a series' results cannot
  // depend on who else is racing.
  Testbed tb;
  const std::vector<Bytes> sizes{KiB(512), MiB(1), MiB(2)};
  // Jitter large enough to expose reseeding.
  const collective::SimBackend sim(tb.grid, {0.10});
  const std::vector<sched::Scheduler> small{sched::Scheduler("ECEF-LA")};
  const std::vector<sched::Scheduler> big{
      sched::Scheduler("ECEF-LA"), sched::Scheduler("FlatTree"),
      sched::Scheduler("BottomUp")};

  const SweepResult a =
      backend_sweep(sim, tb.cache, 0, small, sizes, 7, tb.pool);
  const SweepResult b =
      backend_sweep(sim, tb.cache, 0, big, sizes, 7, tb.pool);

  ASSERT_EQ(a.series[0].name, "DefaultLAM");
  ASSERT_EQ(b.series[0].name, "DefaultLAM");
  EXPECT_EQ(a.series[0].completion, b.series[0].completion);
  ASSERT_EQ(a.series[1].name, "ECEF-LA");
  ASSERT_EQ(b.series[1].name, "ECEF-LA");
  EXPECT_EQ(a.series[1].completion, b.series[1].completion);
  // Reordering competitors must not change anyone's numbers either.
  const std::vector<sched::Scheduler> reordered{
      sched::Scheduler("BottomUp"), sched::Scheduler("ECEF-LA"),
      sched::Scheduler("FlatTree")};
  const SweepResult c =
      backend_sweep(sim, tb.cache, 0, reordered, sizes, 7, tb.pool);
  EXPECT_EQ(c.series[2].completion, b.series[1].completion);  // ECEF-LA
  EXPECT_EQ(c.series[1].completion, b.series[3].completion);  // BottomUp
}

TEST(Sweep, MeasuredCellSeedsDisperse) {
  // Distinct (seed, size index, name) triples map to distinct streams.
  EXPECT_NE(measured_cell_seed(1, 0, "A"), measured_cell_seed(1, 0, "B"));
  EXPECT_NE(measured_cell_seed(1, 0, "A"), measured_cell_seed(1, 1, "A"));
  EXPECT_NE(measured_cell_seed(1, 0, "A"), measured_cell_seed(2, 0, "A"));
  // And are pure functions of their inputs.
  EXPECT_EQ(measured_cell_seed(1, 3, "ECEF-LAT"),
            measured_cell_seed(1, 3, "ECEF-LAT"));
}

TEST(Sweep, ShardedCellsUnionToTheUnshardedResult) {
  Testbed tb;
  const collective::SimBackend sim(tb.grid, {0.05});
  const auto comps = sched::ecef_family();
  const std::vector<Bytes> sizes{KiB(512), MiB(1)};
  const SweepResult full =
      backend_sweep(sim, tb.cache, 0, comps, sizes, 3, tb.pool);

  const std::size_t n_series = comps.size() + 1;
  std::vector<SweepResult> parts;
  for (std::size_t k = 0; k < 2; ++k)
    parts.push_back(
        backend_sweep(sim, tb.cache, 0, comps, sizes, 3, tb.pool, {2, k}));

  for (std::size_t s = 0; s < n_series; ++s) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const std::size_t owner = (i * n_series + s) % 2;
      EXPECT_EQ(parts[owner].series[s].completion[i],
                full.series[s].completion[i]);
      EXPECT_TRUE(std::isnan(parts[1 - owner].series[s].completion[i]));
    }
  }
}

TEST(Sweep, EmptyInputsRejected) {
  Testbed tb;
  const std::vector<Bytes> sizes{MiB(1)};
  EXPECT_THROW(
      (void)backend_sweep(tb.plogp, tb.cache, 0, {}, sizes, 0, tb.pool),
      LogicError);
  EXPECT_THROW((void)backend_sweep(tb.plogp, tb.cache, 0,
                                   sched::paper_heuristics(), {}, 0, tb.pool),
               LogicError);
}

// ------------------------------------------------------------ verb gate

/// Four clusters whose hub is cluster 0: every spoke-to-spoke link costs
/// about twice a hub link, and every link dwarfs the internal broadcasts
/// (a WAN).  Star-WAN's gate therefore accepts root 0 and no other root.
topology::Grid star_grid() {
  std::vector<topology::Cluster> cs;
  for (int c = 0; c < 4; ++c)
    cs.emplace_back("c" + std::to_string(c), 4,
                    plogp::Params::latency_bandwidth(us(50), 1e9));
  topology::Grid grid(std::move(cs));
  for (ClusterId i = 0; i < 4; ++i)
    for (ClusterId j = i + 1; j < 4; ++j)
      grid.set_link_symmetric(
          i, j,
          i == 0 ? plogp::Params::latency_bandwidth(ms(10), 1e7)
                 : plogp::Params::latency_bandwidth(ms(20), 5e6));
  return grid;
}

/// The all-to-all gate's definition: every registered scheduler accepts
/// the instance rooted at each cluster, each derived afresh.
void expect_alltoall_gate_is_every_root(const topology::Grid& grid) {
  InstanceCache cache(grid);
  for (const Bytes m : {KiB(256), MiB(1), MiB(4)})
    for (const std::string& name : sched::registry().names()) {
      const sched::Scheduler comp(name);
      bool every_root = true;
      for (ClusterId r = 0; r < grid.cluster_count(); ++r) {
        const sched::Instance fresh = sched::Instance::from_grid(grid, r, m);
        every_root = every_root &&
                     comp.entry().can_schedule(sched::SchedulerRuntimeInfo(
                         fresh, m, sched::CompletionModel::kEager));
      }
      EXPECT_EQ(verb_accepts(comp, collective::Verb::kAlltoall, cache, 0, m),
                every_root)
          << name << " at " << m << " B";
    }
}

TEST(VerbGate, AlltoallAcceptsWhatEveryRootAccepts) {
  expect_alltoall_gate_is_every_root(topology::grid5000_testbed());
  const topology::Grid star = star_grid();
  expect_alltoall_gate_is_every_root(star);

  // On the star, a gate that probed its cached root-0 instance without
  // re-rooting it would accept Star-WAN.
  const sched::Scheduler star_wan("Star-WAN");
  InstanceCache cache(star);
  EXPECT_TRUE(verb_accepts(star_wan, collective::Verb::kBcast, cache, 0,
                           MiB(1)));
  EXPECT_FALSE(verb_accepts(star_wan, collective::Verb::kBcast, cache, 1,
                            MiB(1)));
  EXPECT_FALSE(verb_accepts(star_wan, collective::Verb::kAlltoall, cache, 0,
                            MiB(1)));
}

TEST(VerbGate, AlltoallSweepDerivesOneInstancePerSize) {
  Testbed tb;
  std::vector<sched::Scheduler> all;
  for (const std::string& name : sched::registry().names())
    all.emplace_back(name);
  const collective::PlogpBackend plogp(&tb.grid);
  const std::vector<Bytes> ladder = default_size_ladder();
  (void)backend_sweep(plogp, tb.cache, 0, all, ladder, 0, tb.pool, {},
                      collective::Verb::kAlltoall);
  EXPECT_EQ(tb.cache.misses(), ladder.size());
  EXPECT_EQ(tb.cache.entries(), ladder.size());
}

}  // namespace
}  // namespace gridcast::exp
