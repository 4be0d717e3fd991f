#include "topology/cluster.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace gridcast::topology {
namespace {

TEST(Cluster, BasicProperties) {
  const Cluster c("orsay", 31, plogp::Params::latency_bandwidth(us(50), 1e8));
  EXPECT_EQ(c.name(), "orsay");
  EXPECT_EQ(c.size(), 31u);
  EXPECT_EQ(c.algorithm(), plogp::BcastAlgorithm::kBinomial);
}

TEST(Cluster, ZeroSizeThrows) {
  EXPECT_THROW(
      Cluster("x", 0, plogp::Params::latency_bandwidth(us(50), 1e8)),
      LogicError);
}

TEST(Cluster, SingletonBroadcastIsFree) {
  const Cluster c("solo", 1, plogp::Params::latency_bandwidth(us(50), 1e8));
  EXPECT_DOUBLE_EQ(c.internal_bcast_time(MiB(4)), 0.0);
}

TEST(Cluster, InternalTimeMatchesPredictor) {
  const auto p = plogp::Params::latency_bandwidth(us(50), 1e8);
  const Cluster c("c", 20, p);
  EXPECT_DOUBLE_EQ(c.internal_bcast_time(MiB(1)),
                   plogp::predict_binomial_bcast(p, 20, MiB(1)));
}

TEST(Cluster, TimeGrowsWithMessage) {
  const Cluster c("c", 16, plogp::Params::latency_bandwidth(us(50), 1e8));
  EXPECT_LT(c.internal_bcast_time(KiB(64)), c.internal_bcast_time(MiB(4)));
}

}  // namespace
}  // namespace gridcast::topology
