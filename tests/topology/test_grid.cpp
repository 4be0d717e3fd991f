#include "topology/grid.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace gridcast::topology {
namespace {

Grid make_two_cluster_grid() {
  std::vector<Cluster> cs;
  cs.emplace_back("a", 3, plogp::Params::latency_bandwidth(us(50), 1e8));
  cs.emplace_back("b", 2, plogp::Params::latency_bandwidth(us(60), 1e8));
  Grid g(std::move(cs));
  g.set_link_symmetric(0, 1, plogp::Params::latency_bandwidth(ms(10), 2e6));
  return g;
}

TEST(Grid, CountsNodesAndClusters) {
  const Grid g = make_two_cluster_grid();
  EXPECT_EQ(g.cluster_count(), 2u);
  EXPECT_EQ(g.total_nodes(), 5u);
}

TEST(Grid, EmptyGridThrows) {
  EXPECT_THROW(Grid(std::vector<Cluster>{}), LogicError);
}

TEST(Grid, GlobalRankContiguousByCluster) {
  const Grid g = make_two_cluster_grid();
  EXPECT_EQ(g.global_rank(0, 0), 0u);
  EXPECT_EQ(g.global_rank(0, 2), 2u);
  EXPECT_EQ(g.global_rank(1, 0), 3u);
  EXPECT_EQ(g.global_rank(1, 1), 4u);
}

TEST(Grid, LocateIsInverseOfGlobalRank) {
  const Grid g = make_two_cluster_grid();
  for (NodeId r = 0; r < g.total_nodes(); ++r) {
    const auto [c, l] = g.locate(r);
    EXPECT_EQ(g.global_rank(c, l), r);
  }
}

TEST(Grid, LocateOutOfRangeThrows) {
  const Grid g = make_two_cluster_grid();
  EXPECT_THROW((void)g.locate(5), LogicError);
}

TEST(Grid, GlobalRankBoundsChecked) {
  const Grid g = make_two_cluster_grid();
  EXPECT_THROW((void)g.global_rank(0, 3), LogicError);
  EXPECT_THROW((void)g.global_rank(2, 0), LogicError);
}

TEST(Grid, LinkRoundTrips) {
  const Grid g = make_two_cluster_grid();
  EXPECT_DOUBLE_EQ(g.link(0, 1).L, ms(10));
  EXPECT_DOUBLE_EQ(g.link(1, 0).L, ms(10));
}

TEST(Grid, AsymmetricLinksSupported) {
  std::vector<Cluster> cs;
  cs.emplace_back("a", 1, plogp::Params::latency_bandwidth(us(50), 1e8));
  cs.emplace_back("b", 1, plogp::Params::latency_bandwidth(us(50), 1e8));
  Grid g(std::move(cs));
  g.set_link(0, 1, plogp::Params::latency_bandwidth(ms(5), 2e6));
  g.set_link(1, 0, plogp::Params::latency_bandwidth(ms(9), 2e6));
  EXPECT_DOUBLE_EQ(g.link(0, 1).L, ms(5));
  EXPECT_DOUBLE_EQ(g.link(1, 0).L, ms(9));
}

TEST(Grid, SelfLinkRejected) {
  Grid g = make_two_cluster_grid();
  EXPECT_THROW(
      g.set_link(0, 0, plogp::Params::latency_bandwidth(ms(1), 1e6)),
      LogicError);
  EXPECT_THROW((void)g.link(1, 1), LogicError);
}

TEST(Grid, UnsetLinkAccessThrows) {
  std::vector<Cluster> cs;
  cs.emplace_back("a", 1, plogp::Params::latency_bandwidth(us(50), 1e8));
  cs.emplace_back("b", 1, plogp::Params::latency_bandwidth(us(50), 1e8));
  const Grid g(std::move(cs));
  EXPECT_THROW((void)g.link(0, 1), LogicError);
}

TEST(Grid, ValidateFlagsMissingLinks) {
  std::vector<Cluster> cs;
  cs.emplace_back("a", 1, plogp::Params::latency_bandwidth(us(50), 1e8));
  cs.emplace_back("b", 1, plogp::Params::latency_bandwidth(us(50), 1e8));
  cs.emplace_back("c", 1, plogp::Params::latency_bandwidth(us(50), 1e8));
  Grid g(std::move(cs));
  g.set_link_symmetric(0, 1, plogp::Params::latency_bandwidth(ms(1), 1e7));
  EXPECT_THROW(g.validate(), LogicError);
  g.set_link_symmetric(0, 2, plogp::Params::latency_bandwidth(ms(1), 1e7));
  g.set_link_symmetric(1, 2, plogp::Params::latency_bandwidth(ms(1), 1e7));
  EXPECT_NO_THROW(g.validate());
}

}  // namespace
}  // namespace gridcast::topology
