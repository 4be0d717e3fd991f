// Model-vs-execution consistency: with zero-overhead pLogP parameters and
// no jitter, the analytic evaluator (after-last-send model) and the
// discrete-event executor must agree to floating-point precision, for any
// heuristic, topology and message size.  This is the invariant that makes
// Fig. 5 (predicted) meaningful as a forecast of Fig. 6 (measured).

#include <gtest/gtest.h>

#include "collective/bcast.hpp"
#include "sched/evaluate.hpp"
#include "sched/registry.hpp"
#include "support/rng.hpp"
#include "topology/grid.hpp"

namespace gridcast {
namespace {

plogp::Params bare(Time L, Time g0, double bw) {
  plogp::Params p;
  p.L = L;
  p.g = plogp::GapFunction::affine(g0, bw);
  p.os = plogp::GapFunction::constant(0.0);
  p.orecv = plogp::GapFunction::constant(0.0);
  return p;
}

/// Random zero-overhead grid: cluster sizes 1-8, LAN intra, mixed links.
topology::Grid random_bare_grid(std::uint64_t seed, std::uint32_t clusters) {
  Rng rng = Rng::stream(seed, 0xBADE);
  std::vector<topology::Cluster> cs;
  for (std::uint32_t c = 0; c < clusters; ++c) {
    const auto size = static_cast<std::uint32_t>(rng.between(1, 8));
    cs.emplace_back(std::string("c").append(std::to_string(c)), size,
                    bare(rng.uniform(us(20), us(100)), us(10),
                         rng.uniform(5e7, 2e8)));
  }
  topology::Grid grid(std::move(cs));
  for (ClusterId i = 0; i < clusters; ++i)
    for (ClusterId j = static_cast<ClusterId>(i + 1); j < clusters; ++j)
      grid.set_link_symmetric(
          i, j,
          bare(rng.uniform(ms(1), ms(20)), us(100), rng.uniform(1e6, 1e7)));
  grid.validate();
  return grid;
}

struct SimCase {
  std::uint64_t seed;
  std::uint32_t clusters;
  Bytes message;
};

class ModelVsSim : public ::testing::TestWithParam<SimCase> {};

TEST_P(ModelVsSim, ExecutorEqualsEvaluatorExactly) {
  const auto [seed, clusters, message] = GetParam();
  const topology::Grid grid = random_bare_grid(seed, clusters);
  const auto inst = sched::Instance::from_grid(grid, 0, message);
  for (const auto& s : sched::paper_heuristics()) {
    const sched::SendOrder order = s.order(inst);
    const Time predicted =
        sched::evaluate_order(inst, order,
                              sched::CompletionModel::kAfterLastSend)
            .makespan;
    sim::Network net(grid, {}, seed);
    const Time measured =
        collective::run_hierarchical_bcast(net, 0, order, message)
            .completion;
    EXPECT_NEAR(measured, predicted, 1e-9)
        << s.name() << " diverged on seed " << seed;
  }
}

TEST_P(ModelVsSim, PerClusterFinishTimesAgree) {
  const auto [seed, clusters, message] = GetParam();
  const topology::Grid grid = random_bare_grid(seed, clusters);
  const auto inst = sched::Instance::from_grid(grid, 0, message);
  const auto order =
      sched::Scheduler("ECEF-LA").order(inst);
  const sched::Schedule pred = sched::evaluate_order(
      inst, order, sched::CompletionModel::kAfterLastSend);

  sim::Network net(grid, {}, seed);
  const auto run = collective::run_hierarchical_bcast(net, 0, order, message);
  // The evaluator's per-cluster finish is the last delivery within the
  // cluster (or the coordinator's last activity for senders).
  for (ClusterId c = 0; c < clusters; ++c) {
    Time last_delivery = 0.0;
    for (NodeId l = 0; l < grid.cluster(c).size(); ++l)
      last_delivery =
          std::max(last_delivery, run.delivered[grid.global_rank(c, l)]);
    EXPECT_LE(last_delivery, pred.cluster_finish[c] + 1e-9) << "cluster " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelVsSim,
    ::testing::Values(SimCase{1, 2, KiB(64)}, SimCase{2, 3, MiB(1)},
                      SimCase{3, 4, KiB(256)}, SimCase{4, 5, MiB(2)},
                      SimCase{5, 6, MiB(1)}, SimCase{6, 8, KiB(512)},
                      SimCase{7, 10, MiB(1)}, SimCase{8, 6, MiB(4)}),
    [](const auto& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_n" +
             std::to_string(param_info.param.clusters);
    });

}  // namespace
}  // namespace gridcast
