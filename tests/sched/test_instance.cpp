#include "sched/instance.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "support/error.hpp"
#include "topology/grid.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::sched {
namespace {

Instance make_triangle() {
  // 3 clusters; transfer(0,1)=0.11, transfer(0,2)=0.22, transfer(1,2)=0.15.
  SquareMatrix<Time> g(3, 0.0), L(3, 0.0);
  g(0, 1) = g(1, 0) = 0.10;
  g(0, 2) = g(2, 0) = 0.20;
  g(1, 2) = g(2, 1) = 0.14;
  L(0, 1) = L(1, 0) = 0.01;
  L(0, 2) = L(2, 0) = 0.02;
  L(1, 2) = L(2, 1) = 0.01;
  return Instance(0, std::move(g), std::move(L), {0.5, 0.3, 1.0});
}

TEST(Instance, Accessors) {
  const Instance inst = make_triangle();
  EXPECT_EQ(inst.clusters(), 3u);
  EXPECT_EQ(inst.root(), 0u);
  EXPECT_DOUBLE_EQ(inst.g(0, 1), 0.10);
  EXPECT_DOUBLE_EQ(inst.L(0, 2), 0.02);
  EXPECT_DOUBLE_EQ(inst.T(2), 1.0);
  EXPECT_DOUBLE_EQ(inst.transfer(0, 1), 0.11);
  EXPECT_DOUBLE_EQ(inst.transfer(1, 2), 0.15);
}

/// Every transfer(i, j), and the row accessors the kernels read, equal
/// g(i, j) + L(i, j) and L(i, j) bit for bit.
void expect_table_in_step(const Instance& inst) {
  const std::size_t n = inst.clusters();
  for (ClusterId i = 0; i < n; ++i)
    for (ClusterId j = 0; j < n; ++j) {
      const Time sum = inst.g(i, j) + inst.L(i, j);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(inst.transfer(i, j)),
                std::bit_cast<std::uint64_t>(sum))
          << "(" << i << ", " << j << ")";
      EXPECT_EQ(inst.transfer_row(i)[j], inst.transfer(i, j));
      EXPECT_EQ(inst.transfer_row(0)[i * n + j], inst.transfer(i, j));
      EXPECT_EQ(inst.L_row(i)[j], inst.L(i, j));
    }
}

TEST(InstanceTransferTable, AsymmetricExplicitMatrices) {
  SquareMatrix<Time> g(3, 0.0), L(3, 0.0);
  for (ClusterId i = 0; i < 3; ++i)
    for (ClusterId j = 0; j < 3; ++j) {
      if (i == j) continue;
      g(i, j) = 0.1 * (i + 1) + 0.03 * j;  // g(i, j) != g(j, i)
      L(i, j) = 0.007 * (3 * i + j + 1);
    }
  const Instance inst(1, std::move(g), std::move(L), {0.5, 0.3, 1.0});
  ASSERT_NE(inst.transfer(0, 2), inst.transfer(2, 0));
  expect_table_in_step(inst);
}

TEST(InstanceTransferTable, FromGrid) {
  const topology::Grid grid = topology::grid5000_testbed();
  expect_table_in_step(Instance::from_grid(grid, 2, MiB(3)));
}

TEST(InstanceTransferTable, CopyThenSetRoot) {
  const topology::Grid grid = topology::grid5000_testbed();
  const Instance original = Instance::from_grid(grid, 0, MiB(1));
  Instance copy = original;
  copy.set_root(3);
  EXPECT_EQ(copy.root(), 3u);
  expect_table_in_step(copy);
  for (ClusterId i = 0; i < copy.clusters(); ++i)
    for (ClusterId j = 0; j < copy.clusters(); ++j)
      EXPECT_EQ(copy.transfer(i, j), original.transfer(i, j));
}

TEST(Instance, MaxT) {
  EXPECT_DOUBLE_EQ(make_triangle().max_T(), 1.0);
}

TEST(Instance, LowerBoundHandComputed) {
  const Instance inst = make_triangle();
  // Root: T = 0.5.  Cluster 1: cheapest in-edge 0.11 + 0.3 = 0.41.
  // Cluster 2: cheapest in-edge 0.15 + 1.0 = 1.15.  Max = 1.15.
  EXPECT_DOUBLE_EQ(inst.lower_bound(), 1.15);
}

TEST(Instance, RootOutOfRangeThrows) {
  SquareMatrix<Time> g(2, 0.0), L(2, 0.0);
  EXPECT_THROW(Instance(2, std::move(g), std::move(L), {0.0, 0.0}),
               LogicError);
}

TEST(Instance, MatrixSizeMismatchThrows) {
  SquareMatrix<Time> g(3, 0.0), L(2, 0.0);
  EXPECT_THROW(Instance(0, std::move(g), std::move(L), {0.0, 0.0}),
               LogicError);
}

TEST(Instance, NegativeTimesThrow) {
  SquareMatrix<Time> g(2, 0.0), L(2, 0.0);
  g(0, 1) = -0.1;
  g(1, 0) = 0.1;
  EXPECT_THROW(Instance(0, std::move(g), std::move(L), {0.0, 0.0}),
               LogicError);
  SquareMatrix<Time> g2(2, 0.0), L2(2, 0.0);
  EXPECT_THROW(Instance(0, std::move(g2), std::move(L2), {0.0, -1.0}),
               LogicError);
}

TEST(Instance, FromGridPullsLinkParameters) {
  std::vector<topology::Cluster> cs;
  cs.emplace_back("a", 4, plogp::Params::latency_bandwidth(us(50), 1e8));
  cs.emplace_back("b", 1, plogp::Params::latency_bandwidth(us(50), 1e8));
  topology::Grid grid(std::move(cs));
  grid.set_link_symmetric(0, 1,
                          plogp::Params::latency_bandwidth(ms(10), 2e6));

  const Bytes m = MiB(1);
  const Instance inst = Instance::from_grid(grid, 0, m);
  EXPECT_DOUBLE_EQ(inst.L(0, 1), ms(10));
  EXPECT_DOUBLE_EQ(inst.g(0, 1), grid.link(0, 1).g(m));
  EXPECT_DOUBLE_EQ(inst.T(0), grid.cluster(0).internal_bcast_time(m));
  EXPECT_DOUBLE_EQ(inst.T(1), 0.0);
}

TEST(Instance, FromGridRespectsRoot) {
  std::vector<topology::Cluster> cs;
  cs.emplace_back("a", 2, plogp::Params::latency_bandwidth(us(50), 1e8));
  cs.emplace_back("b", 2, plogp::Params::latency_bandwidth(us(50), 1e8));
  topology::Grid grid(std::move(cs));
  grid.set_link_symmetric(0, 1, plogp::Params::latency_bandwidth(ms(5), 1e7));
  EXPECT_EQ(Instance::from_grid(grid, 1, MiB(1)).root(), 1u);
}

}  // namespace
}  // namespace gridcast::sched
