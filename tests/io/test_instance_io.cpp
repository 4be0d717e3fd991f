#include "io/instance_io.hpp"

#include <gtest/gtest.h>

#include <string>

#include "exp/param_ranges.hpp"
#include "support/rng.hpp"

namespace gridcast::io {
namespace {

sched::Instance sample(std::size_t n, std::uint64_t seed = 3) {
  Rng rng = Rng::stream(seed, 0);
  return exp::sample_instance(exp::ParamRanges::paper(), n, rng);
}

TEST(InstanceIo, RoundTripPreservesEverything) {
  const sched::Instance a = sample(7);
  const sched::Instance b = instance_from_string(instance_to_string(a));
  ASSERT_EQ(b.clusters(), a.clusters());
  EXPECT_EQ(b.root(), a.root());
  for (ClusterId i = 0; i < a.clusters(); ++i) {
    EXPECT_DOUBLE_EQ(b.T(i), a.T(i));
    for (ClusterId j = 0; j < a.clusters(); ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(b.g(i, j), a.g(i, j));
      EXPECT_DOUBLE_EQ(b.L(i, j), a.L(i, j));
    }
  }
}

TEST(InstanceIo, HeaderIsHumanReadable) {
  const std::string text = instance_to_string(sample(3));
  EXPECT_EQ(text.rfind("gridcast-instance v1", 0), 0u);
  EXPECT_NE(text.find("clusters 3 root 0"), std::string::npos);
}

TEST(InstanceIo, CommentsAreSkipped) {
  std::string text = instance_to_string(sample(2));
  text.insert(text.find("T"), "# a comment line\n");
  EXPECT_NO_THROW((void)instance_from_string(text));
}

TEST(InstanceIo, BadMagicRejected) {
  EXPECT_THROW((void)instance_from_string("bogus v1"), InvalidInput);
}

TEST(InstanceIo, TruncatedInputRejected) {
  std::string text = instance_to_string(sample(4));
  text.resize(text.size() / 2);
  EXPECT_THROW((void)instance_from_string(text), InvalidInput);
}

TEST(InstanceIo, NonNumericFieldRejected) {
  std::string text = instance_to_string(sample(2));
  const auto pos = text.find("T ") + 2;
  text.replace(pos, 1, "x");
  EXPECT_THROW((void)instance_from_string(text), InvalidInput);
}

TEST(InstanceIo, RootOutOfRangeRejected) {
  EXPECT_THROW((void)instance_from_string(
                   "gridcast-instance v1 clusters 2 root 5 T 0 0 "
                   "g 0 0 0 0 L 0 0 0 0"),
               InvalidInput);
}

TEST(InstanceIo, HugeClusterCountIsAnInputErrorNotAnAllocation) {
  // The count is untrusted: above the 32-bit cluster ids it is rejected,
  // and below them it sizes nothing before its values have been read.
  const auto rejection = [](const std::string& text) -> std::string {
    try {
      (void)instance_from_string(text);
    } catch (const InvalidInput& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(rejection("gridcast-instance v1 clusters 4294967296 root 0"),
            "cluster count 4294967296 is out of range (max 4294967295)");
  EXPECT_EQ(rejection("gridcast-instance v1 clusters 4294967295 root 7 T 0"),
            "unexpected end of input, expected T value");
  // Every T value present, one matrix cell: the file ends before any
  // n x n storage exists.
  std::string t_values;
  for (int c = 0; c < 100000; ++c) t_values += " 0";
  EXPECT_EQ(rejection("gridcast-instance v1 clusters 100000 root 0 T" +
                      t_values + " g 0"),
            "unexpected end of input, expected g");
  // At or above 2^64 the count is not an integer a cast can hold.
  EXPECT_EQ(rejection("gridcast-instance v1 clusters 1e30 root 0"),
            "cluster count must be a non-negative integer");
}

TEST(InstanceIo, ZeroClustersRejected) {
  EXPECT_THROW(
      (void)instance_from_string("gridcast-instance v1 clusters 0 root 0"),
      InvalidInput);
}

TEST(InstanceIo, NegativeValuesRejectedAsInvalidInput) {
  // -1 gap violates the Instance invariants; io must surface it as
  // InvalidInput (bad file), not LogicError (bug).
  EXPECT_THROW((void)instance_from_string(
                   "gridcast-instance v1 clusters 2 root 0 T 0 0 "
                   "g 0 -1 0 0 L 0 0 0 0"),
               InvalidInput);
}

TEST(InstanceIo, NonFiniteNumbersAreInputErrors) {
  // std::stod reads all of these; an infinite gap or latency used to pass
  // the Instance invariants and kill every heuristic with an internal
  // error.
  const auto rejection = [](const std::string& T, const std::string& g,
                            const std::string& L) -> std::string {
    try {
      (void)instance_from_string("gridcast-instance v1 clusters 2 root 0 T " +
                                 T + " 0 g 0 " + g + " 0.1 0 L 0 " + L +
                                 " 0.01 0");
    } catch (const InvalidInput& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(rejection("0.5", "0.1", "0.01"), "accepted");
  for (const std::string bad : {"inf", "INF", "infinity", "-inf", "nan"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(rejection(bad, "0.1", "0.01"),
              "T value must be finite, got '" + bad + "'");
    EXPECT_EQ(rejection("0.5", bad, "0.01"),
              "g must be finite, got '" + bad + "'");
    EXPECT_EQ(rejection("0.5", "0.1", bad),
              "L must be finite, got '" + bad + "'");
  }
}

TEST(InstanceIo, FractionalClusterCountRejected) {
  EXPECT_THROW(
      (void)instance_from_string("gridcast-instance v1 clusters 2.5 root 0"),
      InvalidInput);
}

}  // namespace
}  // namespace gridcast::io
