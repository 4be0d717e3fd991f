#include "plogp/collective_predict.hpp"

#include <gtest/gtest.h>

namespace gridcast::plogp {
namespace {

/// Params with zero overheads: makes hand computation exact.
Params bare(Time L, Time gap) {
  Params p;
  p.L = L;
  p.g = GapFunction::constant(gap);
  p.os = GapFunction::constant(0.0);
  p.orecv = GapFunction::constant(0.0);
  return p;
}

TEST(Predict, SingleNodeIsFree) {
  const Params p = bare(0.001, 0.01);
  EXPECT_DOUBLE_EQ(predict_binomial_bcast(p, 1, MiB(1)), 0.0);
}

TEST(Predict, BinomialTwoNodes) {
  const Params p = bare(0.001, 0.01);
  // One hop: g + L.
  EXPECT_NEAR(predict_binomial_bcast(p, 2, 100), 0.011, 1e-12);
}

TEST(Predict, BinomialThreeNodes) {
  const Params p = bare(0.001, 0.01);
  // Root sends to the child covering 1 node (hop 0.011), then to the next
  // (starts at g=0.01, lands at 0.021).  Completion = 0.021.
  EXPECT_NEAR(predict_binomial_bcast(p, 3, 100), 0.021, 1e-12);
}

TEST(Predict, BinomialFourNodes) {
  const Params p = bare(0.001, 0.01);
  // Root->c1 (covers 2) at hop 0.011; c1 relays once -> 0.022.
  // Root continues: second send starts 0.01, lands 0.021.
  EXPECT_NEAR(predict_binomial_bcast(p, 4, 100), 0.022, 1e-12);
}

TEST(Predict, BinomialLogarithmicDepth) {
  const Params p = bare(0.0, 1.0);  // pure gap: depth counts rounds
  // With zero latency, completion = ceil(log2 n) gaps... in fact the last
  // delivery happens after the longest send chain; for n = 8 it is 3.
  EXPECT_NEAR(predict_binomial_bcast(p, 8, 1), 3.0, 1e-12);
  EXPECT_NEAR(predict_binomial_bcast(p, 16, 1), 4.0, 1e-12);
}

struct PredictCase {
  std::uint32_t nodes;
  Bytes size;
};

class PredictMonotone : public ::testing::TestWithParam<PredictCase> {};

TEST_P(PredictMonotone, TimeGrowsWithNodesAndSize) {
  const Params p = Params::latency_bandwidth(us(60), 80e6);
  const auto [n, m] = GetParam();
  EXPECT_LE(predict_binomial_bcast(p, n, m),
            predict_binomial_bcast(p, n + 1, m) + 1e-15);
  EXPECT_LE(predict_binomial_bcast(p, n, m),
            predict_binomial_bcast(p, n, m + KiB(64)) + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PredictMonotone,
    ::testing::Values(PredictCase{2, KiB(4)}, PredictCase{5, KiB(64)},
                      PredictCase{17, MiB(1)}, PredictCase{63, MiB(2)},
                      PredictCase{100, KiB(16)}));

}  // namespace
}  // namespace gridcast::plogp
