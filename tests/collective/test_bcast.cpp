#include "collective/bcast.hpp"

#include <gtest/gtest.h>

#include "plogp/collective_predict.hpp"

namespace gridcast::collective {
namespace {

/// One homogeneous cluster with zero overheads: executor timings must
/// match the analytic predictor *exactly*.
plogp::Params bare_params(Time L, Time g0, double bw) {
  plogp::Params p;
  p.L = L;
  p.g = plogp::GapFunction::affine(g0, bw);
  p.os = plogp::GapFunction::constant(0.0);
  p.orecv = plogp::GapFunction::constant(0.0);
  return p;
}

topology::Grid single_cluster(std::uint32_t nodes) {
  std::vector<topology::Cluster> cs;
  cs.emplace_back("c", nodes, bare_params(0.001, 0.01, 1e8));
  return topology::Grid(std::move(cs));
}

std::vector<NodeId> iota_ranks(std::uint32_t n) {
  std::vector<NodeId> r(n);
  for (std::uint32_t i = 0; i < n; ++i) r[i] = i;
  return r;
}

TEST(Bcast, SingleRankIsInstant) {
  const auto grid = single_cluster(1);
  sim::Network net(grid, {}, 1);
  const auto r = run_binomial_bcast(net, {0}, MiB(1));
  EXPECT_DOUBLE_EQ(r.completion, 0.0);
  EXPECT_EQ(r.messages, 0u);
}

class BcastMatchesPredictor
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, Bytes>> {};

TEST_P(BcastMatchesPredictor, Binomial) {
  const auto [n, m] = GetParam();
  const auto grid = single_cluster(n);
  const auto p = grid.cluster(0).intra();
  sim::Network net(grid, {}, 1);
  const auto r = run_binomial_bcast(net, iota_ranks(n), m);
  EXPECT_NEAR(r.completion, plogp::predict_binomial_bcast(p, n, m), 1e-12);
  EXPECT_EQ(r.messages, n - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BcastMatchesPredictor,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 5u, 8u, 13u, 16u, 31u),
                       ::testing::Values(Bytes{1000}, KiB(64), MiB(1))));

TEST(Bcast, BinomialDeliversEveryRankOnce) {
  const std::uint32_t n = 16;
  const auto grid = single_cluster(n);
  sim::Network net(grid, {}, 1);
  const auto r = run_binomial_bcast(net, iota_ranks(n), KiB(4));
  for (std::uint32_t i = 1; i < n; ++i) {
    EXPECT_GT(r.delivered[i], 0.0) << "rank " << i << " never delivered";
    EXPECT_LE(r.delivered[i], r.completion);
  }
}

TEST(Bcast, CompletionIsMaxDelivery) {
  const std::uint32_t n = 9;
  const auto grid = single_cluster(n);
  sim::Network net(grid, {}, 1);
  const auto r = run_binomial_bcast(net, iota_ranks(n), KiB(16));
  Time max_d = 0.0;
  for (const Time d : r.delivered) max_d = std::max(max_d, d);
  EXPECT_DOUBLE_EQ(r.completion, max_d);
}

TEST(Bcast, EmptyRankSetRejected) {
  const auto grid = single_cluster(2);
  sim::Network net(grid, {}, 1);
  EXPECT_THROW((void)run_binomial_bcast(net, {}, 100), LogicError);
}

}  // namespace
}  // namespace gridcast::collective
