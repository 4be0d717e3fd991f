#include "serve/plan_signature.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "exp/race_cli.hpp"
#include "sched/registry.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topology/generator.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::serve {
namespace {

// ------------------------------------------------------ size bucketing

TEST(SizeBucket, SmallSizesAreWholeBuckets) {
  EXPECT_EQ(size_bucket_of(1), 0u);
  EXPECT_EQ(size_bucket_of(2), 1u);
  EXPECT_EQ(size_bucket_of(3), 2u);
  // From 4 bytes up each octave splits into four quarters: 4 -> 4*2+0.
  EXPECT_EQ(size_bucket_of(4), 8u);
  EXPECT_EQ(size_bucket_of(5), 9u);
  EXPECT_EQ(size_bucket_of(6), 10u);
  EXPECT_EQ(size_bucket_of(7), 11u);
  EXPECT_EQ(size_bucket_of(8), 12u);
}

TEST(SizeBucket, ZeroSizeThrows) {
  EXPECT_THROW((void)size_bucket_of(0), InvalidInput);
}

TEST(SizeBucket, MonotoneInSize) {
  std::uint32_t prev = 0;
  for (Bytes m = 1; m <= 4096; ++m) {
    const std::uint32_t b = size_bucket_of(m);
    EXPECT_GE(b, prev) << "bucket not monotone at m=" << m;
    prev = b;
  }
}

TEST(SizeBucket, QuarterOctaveWidth) {
  // All of [2^20, 2^20 + 2^18) is one bucket — sizes within a quarter
  // octave (~19% spread) share a plan; the next quarter starts a new one.
  const Bytes base = Bytes{1} << 20;
  const Bytes quarter = Bytes{1} << 18;
  const std::uint32_t b = size_bucket_of(base);
  EXPECT_EQ(b, 4u * 20u);
  EXPECT_EQ(size_bucket_of(base + quarter - 1), b);
  EXPECT_EQ(size_bucket_of(base + quarter), b + 1);
}

TEST(SizeBucket, FloorRoundTripsForEveryReachableBucket) {
  // bucket_floor is the inverse of size_bucket_of on floors, and the
  // floor never exceeds the sizes that map to its bucket.
  for (Bytes m : {Bytes{1}, Bytes{2}, Bytes{3}, Bytes{4}, Bytes{17},
                  Bytes{100}, Bytes{4096}, KiB(96), KiB(300), Bytes{333333},
                  MiB(1), MiB(1.5), MiB(8), Bytes{1} << 40,
                  ~Bytes{0}}) {
    const std::uint32_t b = size_bucket_of(m);
    EXPECT_EQ(size_bucket_of(bucket_floor(b)), b) << "m=" << m;
    EXPECT_LE(bucket_floor(b), m) << "m=" << m;
  }
}

TEST(SizeBucket, MaxSizeUsesLastBucket) {
  EXPECT_EQ(size_bucket_of(~Bytes{0}), 255u);
  EXPECT_EQ(bucket_floor(255),
            (Bytes{1} << 63) + Bytes{3} * (Bytes{1} << 61));
}

TEST(SizeBucket, UnreachableBucketsThrow) {
  // Octaves below 4 bytes have no quarters (buckets 3-7), and no 64-bit
  // size has an msb past 63 (buckets > 255).
  for (const std::uint32_t b : {3u, 4u, 5u, 6u, 7u, 256u, 1000u})
    EXPECT_THROW((void)bucket_floor(b), InvalidInput) << "bucket=" << b;
}

// ---------------------------------------------------------- encoding

TEST(PlanSignatureEncode, PinnedTextForm) {
  // The encoding is the collision check's ground truth; its exact shape
  // (fixed-width lowercase hex, field order, separators) is a contract.
  const PlanSignature sig{0xDEADBEEFULL, collective::Verb::kScatter, 3, 42,
                          0x1ULL};
  EXPECT_EQ(sig.encode(),
            "g=00000000deadbeef;v=scatter;r=3;b=42;s=0000000000000001");
}

TEST(PlanSignatureEncode, InjectiveAcrossEveryField) {
  const PlanSignature base{7, collective::Verb::kBcast, 1, 80, 11};
  std::vector<PlanSignature> sigs = {base, base, base, base, base, base};
  sigs[1].grid_hash = 8;
  sigs[2].verb = collective::Verb::kAlltoall;
  sigs[3].root = 2;
  sigs[4].size_bucket = 81;
  sigs[5].sched_rev = 12;
  std::set<std::string> encodings;
  std::set<std::uint64_t> hashes;
  for (const auto& s : sigs) {
    encodings.insert(s.encode());
    hashes.insert(s.hash());
  }
  EXPECT_EQ(encodings.size(), sigs.size());
  // Not guaranteed in theory (64-bit FNV), but a same-family collision
  // here would be a real bug in the fold, not bad luck.
  EXPECT_EQ(hashes.size(), sigs.size());
  // Equal signatures encode and hash identically.
  const PlanSignature copy = base;
  EXPECT_EQ(copy, base);
  EXPECT_EQ(copy.encode(), base.encode());
  EXPECT_EQ(copy.hash(), base.hash());
}

// ------------------------------------------------------- fingerprints

TEST(GridFingerprint, StableAndGridSensitive) {
  const auto g5k = topology::grid5000_testbed();
  EXPECT_EQ(grid_fingerprint(g5k), grid_fingerprint(g5k));

  Rng rng_a(1);
  Rng rng_b(2);
  const topology::GeneratorConfig cfg;
  const auto a = topology::random_grid(cfg, rng_a);
  const auto b = topology::random_grid(cfg, rng_b);
  EXPECT_NE(grid_fingerprint(a), grid_fingerprint(g5k));
  EXPECT_NE(grid_fingerprint(a), grid_fingerprint(b));
}

TEST(SchedulerSetRevision, StableAndSetSensitive) {
  const std::vector<std::string> names = sched::registry().names();
  ASSERT_GE(names.size(), 2u);
  const sched::HeuristicOptions opts;
  const auto all = exp::resolve_competitors(names, opts);
  EXPECT_EQ(scheduler_set_revision(all),
            scheduler_set_revision(exp::resolve_competitors(names, opts)));

  // Dropping a competitor changes the revision...
  const std::vector<std::string> subset(names.begin(), names.end() - 1);
  EXPECT_NE(scheduler_set_revision(exp::resolve_competitors(subset, opts)),
            scheduler_set_revision(all));
  // ...and so does reordering: selection ties break by position.
  std::vector<std::string> reversed(names.rbegin(), names.rend());
  EXPECT_NE(scheduler_set_revision(exp::resolve_competitors(reversed, opts)),
            scheduler_set_revision(all));
}

TEST(SchedulerSetRevision, RollsWhenAutoJoins) {
  // Registering "auto" must invalidate cached plans: an empty sched set
  // means "every registered scheduler", and the revision is what tells a
  // serving replay that the set grew.
  std::vector<std::string> names = sched::registry().names();
  ASSERT_EQ(names.back(), "auto");
  const sched::HeuristicOptions opts;
  const auto with_auto = exp::resolve_competitors(names, opts);
  names.pop_back();
  const auto without_auto = exp::resolve_competitors(names, opts);
  EXPECT_NE(scheduler_set_revision(with_auto),
            scheduler_set_revision(without_auto));
}

}  // namespace
}  // namespace gridcast::serve
