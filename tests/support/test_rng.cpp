#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace gridcast {
namespace {

TEST(Fnv1a, StandardVectors) {
  static_assert(fnv1a("") == 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  // Folding continues from the hash so far.
  EXPECT_EQ(fnv1a("b", fnv1a("a")), fnv1a("ab"));
  // name_hash is the same loop from its own basis, which every sweep
  // seed derives from.
  EXPECT_EQ(name_hash(""), 1469598103934665603ULL);
  EXPECT_EQ(name_hash("a"), fnv1a("a", 1469598103934665603ULL));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, StreamsAreIndependentOfDrawOrder) {
  // Stream k must produce the same sequence regardless of what other
  // streams did before - the property the Monte-Carlo harness relies on.
  Rng s3 = Rng::stream(42, 3);
  const auto v1 = s3.next();
  Rng s7 = Rng::stream(42, 7);
  (void)s7.next();
  Rng s3_again = Rng::stream(42, 3);
  EXPECT_EQ(s3_again.next(), v1);
}

TEST(Rng, DistinctStreamsDiffer) {
  Rng a = Rng::stream(42, 0);
  Rng b = Rng::stream(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.5, 9.75);
    EXPECT_GE(u, 2.5);
    EXPECT_LT(u, 9.75);
  }
}

TEST(Rng, UniformMeanApproximatesMidpoint) {
  Rng r(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformDegenerateRange) {
  Rng r(7);
  EXPECT_DOUBLE_EQ(r.uniform(3.0, 3.0), 3.0);
}

TEST(Rng, UniformInvalidRangeThrows) {
  Rng r(7);
  EXPECT_THROW((void)r.uniform(2.0, 1.0), LogicError);
}

TEST(Rng, BelowStaysBelow) {
  Rng r(13);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowZeroThrows) {
  Rng r(13);
  EXPECT_THROW((void)r.below(0), LogicError);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(17);
  std::array<int, 5> seen{};
  for (int i = 0; i < 1000; ++i) ++seen[r.below(5)];
  for (const int c : seen) EXPECT_GT(c, 100);  // roughly uniform
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng r(19);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(23);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, NormalScaled) {
  Rng r(29);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += r.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

/// Draws `refills` blocks of N normals from one stream of `seed` and
/// checks each against successive normal() calls on a twin stream, bit
/// for bit.  Returns the normals compared.
template <std::size_t N>
std::size_t expect_blocks_equal_scalar(std::uint64_t seed, int refills) {
  Rng blocks = Rng::stream(seed, 5);
  Rng scalar = Rng::stream(seed, 5);
  std::array<double, N> buf{};
  std::size_t compared = 0;
  for (int refill = 0; refill < refills; ++refill) {
    const std::size_t k = blocks.normal_block(buf);
    EXPECT_GE(k, 2u);
    EXPECT_LE(k, N);
    EXPECT_EQ(k % 2, 0u);
    for (std::size_t i = 0; i < k; ++i) {
      const double want = scalar.normal();
      if (std::bit_cast<std::uint64_t>(buf[i]) !=
          std::bit_cast<std::uint64_t>(want)) {
        ADD_FAILURE() << "seed " << seed << ", block of " << N << ", refill "
                      << refill << ", normal " << i << ": " << buf[i]
                      << " != " << want;
        return compared;
      }
      ++compared;
    }
  }
  return compared;
}

TEST(Rng, NormalBlockEqualsSuccessiveNormals) {
  // A block takes the same candidates in the same order as normal() and
  // keeps the accepted ones, so its normals are normal()'s, bit for bit.
  for (const std::uint64_t seed : {0ull, 1ull, 42ull, 0xD15C0ull, 9011ull}) {
    // 64 normals per block, as the simulator's jitter buffer draws them.
    EXPECT_GT(expect_blocks_equal_scalar<64>(seed, 500), 20000u);
    // One candidate per block: about one block in five accepts nothing
    // on its first pass and must draw again, never hand out stale slots.
    EXPECT_EQ(expect_blocks_equal_scalar<2>(seed, 2000), 4000u);
  }
}

TEST(Rng, NormalBlockNeedsAPairBoundary) {
  Rng r(3);
  (void)r.normal();  // leaves the pair's second normal pending
  std::array<double, 8> buf{};
  EXPECT_THROW((void)r.normal_block(buf), LogicError);
  (void)r.normal();
  EXPECT_GE(r.normal_block(buf), 2u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(31);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  r.shuffle(w);
  EXPECT_NE(w, v);  // astronomically unlikely to be identity
  std::sort(w.begin(), w.end());
  EXPECT_EQ(w, v);
}

class RngStreamSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngStreamSweep, StreamsReproducible) {
  const std::uint64_t id = GetParam();
  Rng a = Rng::stream(99, id);
  Rng b = Rng::stream(99, id);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST_P(RngStreamSweep, UniformBoundsHold) {
  Rng r = Rng::stream(7, GetParam());
  for (int i = 0; i < 512; ++i) {
    const double u = r.uniform(0.1, 0.9);
    EXPECT_GE(u, 0.1);
    EXPECT_LT(u, 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, RngStreamSweep,
                         ::testing::Values(0, 1, 2, 17, 1000, 99999));

}  // namespace
}  // namespace gridcast
