#include "collective/alltoall.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "sched/registry.hpp"
#include "topology/generator.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::collective {
namespace {

plogp::Params bare(Time L, Time g0, double bw) {
  plogp::Params p;
  p.L = L;
  p.g = plogp::GapFunction::affine(g0, bw);
  p.os = plogp::GapFunction::constant(0.0);
  p.orecv = plogp::GapFunction::constant(0.0);
  return p;
}

topology::Grid two_sites(std::uint32_t a, std::uint32_t b) {
  std::vector<topology::Cluster> cs;
  cs.emplace_back("a", a, bare(us(50), us(10), 1e8));
  cs.emplace_back("b", b, bare(us(50), us(10), 1e8));
  topology::Grid g(std::move(cs));
  g.set_link_symmetric(0, 1, bare(ms(12), us(200), 2e6));
  return g;
}

TEST(Alltoall, NaiveMessageCount) {
  const auto grid = two_sites(3, 2);
  sim::Network net(grid, {}, 1);
  const auto r = run_naive_alltoall(net, KiB(4));
  EXPECT_EQ(r.messages, 5u * 4u);  // N(N-1)
  for (const Time t : r.completed) EXPECT_GT(t, 0.0);
}

TEST(Alltoall, NaiveBytesAccounting) {
  const auto grid = two_sites(3, 2);
  sim::Network net(grid, {}, 1);
  const Bytes block = KiB(4);
  const auto r = run_naive_alltoall(net, block);
  EXPECT_EQ(r.bytes, 20u * block);
}

TEST(Alltoall, HierarchicalCompletesEveryRank) {
  const auto grid = two_sites(4, 3);
  sim::Network net(grid, {}, 1);
  const auto r = run_hierarchical_alltoall(net, KiB(4));
  ASSERT_EQ(r.completed.size(), 7u);
  for (const Time t : r.completed) EXPECT_GT(t, 0.0);
  EXPECT_DOUBLE_EQ(
      r.completion,
      *std::max_element(r.completed.begin(), r.completed.end()));
}

TEST(Alltoall, HierarchicalMessageCount) {
  // Clusters (4, 3): intra 4*3 + 3*2 = 18; gathers (4-1)+(3-1) = 5;
  // coordinator aggregates 2; deliveries (4-1)+(3-1) = 5.  Total 30.
  const auto grid = two_sites(4, 3);
  sim::Network net(grid, {}, 1);
  const auto r = run_hierarchical_alltoall(net, KiB(4));
  EXPECT_EQ(r.messages, 30u);
}

TEST(Alltoall, HierarchicalSendsFewerWanMessagesThanNaive) {
  // Naive crosses the WAN size_a * size_b * 2 = 24 times; hierarchical
  // exactly twice (one aggregate each way).
  const auto grid = two_sites(4, 3);
  sim::Network n1(grid, {}, 1);
  const auto naive = run_naive_alltoall(n1, KiB(4));
  sim::Network n2(grid, {}, 1);
  const auto hier = run_hierarchical_alltoall(n2, KiB(4));
  EXPECT_EQ(naive.messages, 42u);
  EXPECT_EQ(naive.wan_messages, 24u);
  EXPECT_EQ(hier.wan_messages, 2u);
  // Aggregates carry exactly the cross-cluster blocks: no inflation.
  EXPECT_EQ(naive.wan_bytes, hier.wan_bytes);
  EXPECT_LT(hier.messages, naive.messages);
}

TEST(Alltoall, HierarchicalWinsWhenPerMessageWanCostDominates) {
  // Aggregation pays off when the per-message WAN cost dwarfs the bytes:
  // with 2 ms setup per WAN message and 64-byte blocks, each rank's six
  // serialized crossings (12 ms on its NIC) lose to one aggregate.
  std::vector<topology::Cluster> cs;
  cs.emplace_back("a", 6, bare(us(50), us(10), 1e8));
  cs.emplace_back("b", 6, bare(us(50), us(10), 1e8));
  topology::Grid grid(std::move(cs));
  grid.set_link_symmetric(0, 1, bare(ms(12), ms(2), 1e7));

  const Bytes block = 64;
  sim::Network n1(grid, {}, 1);
  const Time naive = run_naive_alltoall(n1, block).completion;
  sim::Network n2(grid, {}, 1);
  const Time hier = run_hierarchical_alltoall(n2, block).completion;
  EXPECT_LT(hier, naive);
}

TEST(Alltoall, NaiveWinsWhenBandwidthDominates) {
  // The converse regime: large blocks on a bandwidth-limited WAN.  The
  // aggregate serializes all cross traffic through one coordinator NIC,
  // while naive spreads it over every rank's NIC.  Documents that the
  // grid-aware variant is a message-count optimisation, not a universal
  // win - matching the paper's framing of scatter/alltoall as future work.
  const auto grid = two_sites(6, 6);
  const Bytes block = KiB(64);
  sim::Network n1(grid, {}, 1);
  const Time naive = run_naive_alltoall(n1, block).completion;
  sim::Network n2(grid, {}, 1);
  const Time hier = run_hierarchical_alltoall(n2, block).completion;
  EXPECT_GT(hier, naive);
}

TEST(Alltoall, SingleClusterDegeneratesToDirectExchange) {
  std::vector<topology::Cluster> cs;
  cs.emplace_back("only", 4, bare(us(50), us(10), 1e8));
  const topology::Grid grid(std::move(cs));
  sim::Network n1(grid, {}, 1);
  const auto naive = run_naive_alltoall(n1, KiB(4));
  sim::Network n2(grid, {}, 1);
  const auto hier = run_hierarchical_alltoall(n2, KiB(4));
  EXPECT_EQ(naive.messages, hier.messages);
  EXPECT_DOUBLE_EQ(naive.completion, hier.completion);
}

TEST(Alltoall, SingletonClustersWork) {
  const auto grid = two_sites(1, 1);
  sim::Network net(grid, {}, 1);
  const auto r = run_hierarchical_alltoall(net, KiB(4));
  EXPECT_EQ(r.messages, 2u);  // one aggregate each way
  for (const Time t : r.completed) EXPECT_GT(t, 0.0);
}

TEST(Alltoall, SingleRankIsInstant) {
  std::vector<topology::Cluster> cs;
  cs.emplace_back("solo", 1, bare(us(50), us(10), 1e8));
  const topology::Grid grid(std::move(cs));
  sim::Network n1(grid, {}, 1);
  EXPECT_DOUBLE_EQ(run_naive_alltoall(n1, KiB(4)).completion, 0.0);
  sim::Network n2(grid, {}, 1);
  EXPECT_DOUBLE_EQ(run_hierarchical_alltoall(n2, KiB(4)).completion, 0.0);
}

// ---- alltoall_dest_order derives one instance and re-roots it per
// coordinator; the orders must be those of a derivation per root.

using DestOrder = std::vector<std::vector<ClusterId>>;

/// The dest order from a fresh Instance::from_grid per root, or nullopt
/// when `sched` refuses one of the roots.
std::optional<DestOrder> per_root_dest_order(
    const topology::Grid& grid, Bytes block,
    const sched::SchedulerEntry& sched) {
  const auto n = static_cast<ClusterId>(grid.cluster_count());
  DestOrder out(n);
  if (n < 2) return out;
  for (ClusterId c = 0; c < n; ++c) {
    const sched::Instance inst = sched::Instance::from_grid(grid, c, block);
    const sched::SchedulerRuntimeInfo info(inst, block);
    if (!sched.can_schedule(info)) return std::nullopt;
    for (const auto& [s, r] : sched.order(info)) out[c].push_back(r);
  }
  return out;
}

TEST(AlltoallDestOrder, EqualsAFreshDerivationPerRoot) {
  topology::GeneratorConfig cfg;
  cfg.clusters = 9;
  cfg.sites = 3;
  Rng rng = Rng::stream(23, 0);
  const topology::Grid grids[] = {topology::grid5000_testbed(),
                                  topology::random_grid(cfg, rng)};
  std::size_t compared = 0;
  for (const topology::Grid& grid : grids) {
    for (const Bytes block : {Bytes{1}, KiB(64), MiB(4)}) {
      for (const std::string& name : sched::registry().names()) {
        SCOPED_TRACE(name + " at " + std::to_string(block) + " B on " +
                     std::to_string(grid.cluster_count()) + " clusters");
        const sched::SchedulerEntryPtr entry = sched::registry().make(name);
        const std::optional<DestOrder> want =
            per_root_dest_order(grid, block, *entry);
        if (!want) {
          EXPECT_THROW((void)alltoall_dest_order(grid, block, *entry),
                       LogicError);
          continue;
        }
        EXPECT_EQ(alltoall_dest_order(grid, block, *entry), *want);
        ++compared;
      }
    }
  }
  // Most entries accept both grids; the shape-gated ones may refuse.
  EXPECT_GE(compared, 2 * 3 * (sched::registry().names().size() - 2));
}

}  // namespace
}  // namespace gridcast::collective
