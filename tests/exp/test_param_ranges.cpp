#include "exp/param_ranges.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace gridcast::exp {
namespace {

TEST(ParamRanges, PaperDefaultsMatchTable2) {
  const ParamRanges r = ParamRanges::paper();
  EXPECT_DOUBLE_EQ(r.L_lo, ms(1));
  EXPECT_DOUBLE_EQ(r.L_hi, ms(15));
  EXPECT_DOUBLE_EQ(r.g_lo, ms(100));
  EXPECT_DOUBLE_EQ(r.g_hi, ms(600));
  EXPECT_DOUBLE_EQ(r.T_lo, ms(20));
  EXPECT_DOUBLE_EQ(r.T_hi, ms(3000));
  EXPECT_EQ(r.gap_sampling, GapSampling::kPerPair);
}

TEST(ParamRanges, InvalidRangesRejected) {
  ParamRanges r;
  r.L_lo = ms(20);
  r.L_hi = ms(10);
  EXPECT_THROW(r.validate(), LogicError);
}

TEST(SampleInstance, ValuesStayInRange) {
  Rng rng = Rng::stream(1, 0);
  const auto inst = sample_instance(ParamRanges::paper(), 8, rng);
  for (ClusterId i = 0; i < 8; ++i) {
    EXPECT_GE(inst.T(i), ms(20));
    EXPECT_LE(inst.T(i), ms(3000));
    for (ClusterId j = 0; j < 8; ++j) {
      if (i == j) continue;
      EXPECT_GE(inst.L(i, j), ms(1));
      EXPECT_LE(inst.L(i, j), ms(15));
      EXPECT_GE(inst.g(i, j), ms(100));
      EXPECT_LE(inst.g(i, j), ms(600));
    }
  }
}

TEST(SampleInstance, LinksAreSymmetric) {
  Rng rng = Rng::stream(2, 5);
  const auto inst = sample_instance(ParamRanges::paper(), 10, rng);
  for (ClusterId i = 0; i < 10; ++i)
    for (ClusterId j = 0; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(inst.g(i, j), inst.g(j, i));
      EXPECT_DOUBLE_EQ(inst.L(i, j), inst.L(j, i));
    }
}

TEST(SampleInstance, PerPairGapsActuallyVary) {
  Rng rng = Rng::stream(3, 0);
  const auto inst = sample_instance(ParamRanges::paper(), 10, rng);
  bool varies = false;
  for (ClusterId j = 2; j < 10 && !varies; ++j)
    varies = inst.g(0, 1) != inst.g(0, j);
  EXPECT_TRUE(varies);
}

TEST(SampleInstance, SharedGapIsUniformAcrossPairs) {
  Rng rng = Rng::stream(3, 0);
  const auto inst = sample_instance(ParamRanges::shared_gap(), 10, rng);
  for (ClusterId i = 0; i < 10; ++i)
    for (ClusterId j = 0; j < 10; ++j)
      if (i != j) {
        EXPECT_DOUBLE_EQ(inst.g(i, j), inst.g(0, 1));
      }
}

TEST(SampleInstance, RootIsConfigurable) {
  Rng rng = Rng::stream(4, 0);
  const auto inst = sample_instance(ParamRanges::paper(), 5, rng, 3);
  EXPECT_EQ(inst.root(), 3u);
}

TEST(SampleInstance, DeterministicPerStream) {
  Rng a = Rng::stream(7, 123);
  Rng b = Rng::stream(7, 123);
  const auto ia = sample_instance(ParamRanges::paper(), 6, a);
  const auto ib = sample_instance(ParamRanges::paper(), 6, b);
  for (ClusterId i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(ia.T(i), ib.T(i));
    for (ClusterId j = 0; j < 6; ++j)
      if (i != j) {
        EXPECT_DOUBLE_EQ(ia.transfer(i, j), ib.transfer(i, j));
      }
  }
}

TEST(SampleInstance, ReusedInstanceKeepsItsTransferTableInStep) {
  // The Monte-Carlo loops refill one Instance across cluster counts; the
  // reshape between draws must resize and reset the g+L table too.
  Rng rng = Rng::stream(11, 0);
  sched::Instance inst;
  for (const std::size_t n : {50, 5, 50}) {
    sample_instance_into(ParamRanges::paper(), n, rng, 0, inst);
    ASSERT_EQ(inst.clusters(), n);
    for (ClusterId i = 0; i < n; ++i)
      for (ClusterId j = 0; j < n; ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(inst.transfer(i, j)),
                  std::bit_cast<std::uint64_t>(inst.g(i, j) + inst.L(i, j)))
            << "n=" << n << " (" << i << ", " << j << ")";
        EXPECT_EQ(inst.transfer_row(0)[i * n + j], inst.transfer(i, j));
      }
  }
}

TEST(SampleInstance, InvalidArgumentsThrow) {
  Rng rng(1);
  EXPECT_THROW((void)sample_instance(ParamRanges::paper(), 0, rng),
               LogicError);
  EXPECT_THROW((void)sample_instance(ParamRanges::paper(), 3, rng, 3),
               LogicError);
}

}  // namespace
}  // namespace gridcast::exp
