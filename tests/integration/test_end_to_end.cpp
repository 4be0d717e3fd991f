// The full Section 7 pipeline, end to end: node latency matrix ->
// Lowekamp logical clusters -> grid -> pLogP instance -> heuristic
// schedules -> simulated execution.

#include <gtest/gtest.h>

#include <string_view>

#include "clustering/lowekamp.hpp"
#include "clustering/node_matrix.hpp"
#include "collective/backends.hpp"
#include "collective/bcast.hpp"
#include "exp/sweep.hpp"
#include "plogp/fit.hpp"
#include "sched/registry.hpp"
#include "support/rng.hpp"
#include "topology/grid5000.hpp"

namespace gridcast {
namespace {

TEST(EndToEnd, ClusterMapFeedsTheTestbed) {
  // Re-derive the Table 3 cluster map from noisy node measurements, then
  // confirm the preset testbed agrees with it.
  auto lat = topology::grid5000_latency_matrix();
  for (std::size_t c = 0; c < lat.size(); ++c)
    if (lat(c, c) == 0.0) lat(c, c) = us(50.0);
  Rng rng(7);
  const auto node_matrix = clustering::synthesize_node_matrix(
      topology::grid5000_sizes(), lat, 0.02, rng);
  const auto map = clustering::lowekamp_cluster(node_matrix, 0.30);

  const topology::Grid grid = topology::grid5000_testbed();
  ASSERT_EQ(map.group_count(), grid.cluster_count());
  for (std::size_t c = 0; c < map.group_count(); ++c)
    EXPECT_EQ(map.groups[c].size(), grid.cluster(static_cast<ClusterId>(c)).size());
}

TEST(EndToEnd, FourMegabyteBroadcastMagnitudes) {
  // The paper's Section 7 headline: ECEF-family < 3 s for 4 MB; FlatTree
  // several times worse; the grid-unaware binomial in between.
  const topology::Grid grid = topology::grid5000_testbed();
  const Bytes m = MiB(4);
  const auto inst = sched::Instance::from_grid(grid, 0, m);

  const auto run = [&](std::string_view name) {
    // Straight from the registry entry to a simulated execution.
    const auto entry = sched::registry().make(name);
    sim::Network net(grid, {}, 1);
    return collective::run_hierarchical_bcast(net, 0, *entry, m).completion;
  };
  const Time ecef_la = run("ECEF-LA");
  const Time flat = run("FlatTree");

  sim::Network lam_net(grid, {}, 1);
  const Time lam =
      collective::run_grid_unaware_binomial(lam_net, 0, m).completion;

  EXPECT_LT(ecef_la, 3.5);
  EXPECT_GT(flat / ecef_la, 2.0);  // "almost six times" on real hardware
  EXPECT_GT(flat, lam);            // flat even loses to grid-unaware LAM
  EXPECT_GT(lam, ecef_la);
}

TEST(EndToEnd, PredictionsTrackSimulatedExecution) {
  // Fig. 5 vs Fig. 6: "performance predictions fit with a good precision
  // the practical results".
  const topology::Grid grid = topology::grid5000_testbed();
  sched::HeuristicOptions opts;
  opts.completion = sched::CompletionModel::kAfterLastSend;
  const auto comps = sched::paper_heuristics(opts);
  const std::vector<Bytes> sizes{MiB(1), MiB(4)};

  exp::InstanceCache cache(grid);
  ThreadPool pool(0);
  const auto pred = exp::backend_sweep(collective::PlogpBackend(), cache, 0,
                                       comps, sizes, 0, pool);
  const auto meas = exp::backend_sweep(collective::SimBackend(grid), cache, 0,
                                       comps, sizes, 1, pool);

  for (std::size_t s = 0; s < comps.size(); ++s) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const double p = pred.series[s].completion[i];
      const double m = meas.series[s + 1].completion[i];  // [0] is LAM
      EXPECT_NEAR(m, p, p * 0.25)
          << comps[s].name() << " at " << sizes[i] << " bytes";
    }
  }
}

TEST(EndToEnd, RootRotationKeepsHeuristicsFunctional) {
  // The paper notes FlatTree degrades when applications rotate the
  // broadcast root; the scheduled heuristics must stay valid and
  // reasonable from any root.
  const topology::Grid grid = topology::grid5000_testbed();
  const Bytes m = MiB(1);
  for (ClusterId root = 0; root < grid.cluster_count(); ++root) {
    const auto inst = sched::Instance::from_grid(grid, root, m);
    for (const auto& s : sched::ecef_family()) {
      const auto sched_run = s.run(inst);
      EXPECT_EQ(describe_invalid(sched_run, inst.clusters()), "")
          << s.name() << " root " << root;
      EXPECT_LT(sched_run.makespan, 5.0);
    }
  }
}

TEST(EndToEnd, MeasurementPipelineFeedsScheduling) {
  // pLogP acquisition -> link params -> instance -> schedule, using the
  // synthetic-link fitting path (the measurement substitution).
  plogp::SyntheticLink::Config wan;
  wan.latency = ms(10);
  wan.bandwidth_Bps = 2e6;
  wan.jitter_frac = 0.03;
  plogp::SyntheticLink::Config lan;
  lan.latency = us(60);
  lan.bandwidth_Bps = 1e8;
  lan.jitter_frac = 0.03;

  Rng rng(3);
  const plogp::Params wan_params =
      plogp::fit_link(plogp::SyntheticLink(wan), {}, rng);
  const plogp::Params lan_params =
      plogp::fit_link(plogp::SyntheticLink(lan), {}, rng);

  std::vector<topology::Cluster> cs;
  cs.emplace_back("a", 8, lan_params);
  cs.emplace_back("b", 8, lan_params);
  topology::Grid grid(std::move(cs));
  grid.set_link_symmetric(0, 1, wan_params);
  grid.validate();

  const auto inst = sched::Instance::from_grid(grid, 0, MiB(1));
  const auto s = sched::Scheduler("ECEF-LA").run(inst);
  EXPECT_EQ(describe_invalid(s, 2), "");
  // Fitted WAN transfer must dominate the schedule (~0.5 s for 1 MiB at
  // 2 MB/s plus latency).
  EXPECT_NEAR(s.transfers[0].arrival, 0.5 + ms(10), 0.1);
}

}  // namespace
}  // namespace gridcast
