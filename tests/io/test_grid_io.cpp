#include "io/grid_io.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sched/instance.hpp"
#include "topology/generator.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::io {
namespace {

TEST(GridIo, RoundTripsTheTestbed) {
  const topology::Grid a = topology::grid5000_testbed();
  const topology::Grid b = grid_from_string(grid_to_string(a));
  ASSERT_EQ(b.cluster_count(), a.cluster_count());
  EXPECT_EQ(b.total_nodes(), a.total_nodes());
  for (ClusterId c = 0; c < a.cluster_count(); ++c) {
    EXPECT_EQ(b.cluster(c).name(), a.cluster(c).name());
    EXPECT_EQ(b.cluster(c).size(), a.cluster(c).size());
    EXPECT_EQ(b.cluster(c).algorithm(), a.cluster(c).algorithm());
    EXPECT_DOUBLE_EQ(b.cluster(c).intra().L, a.cluster(c).intra().L);
  }
  for (ClusterId i = 0; i < a.cluster_count(); ++i)
    for (ClusterId j = 0; j < a.cluster_count(); ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(b.link(i, j).L, a.link(i, j).L);
      EXPECT_DOUBLE_EQ(b.link(i, j).g(MiB(1)), a.link(i, j).g(MiB(1)));
    }
}

TEST(GridIo, RoundTripPreservesDerivedInstances) {
  // The acid test: a persisted grid poses byte-identical scheduling
  // problems after reload.
  const topology::Grid a = topology::grid5000_testbed();
  const topology::Grid b = grid_from_string(grid_to_string(a));
  const auto ia = sched::Instance::from_grid(a, 0, MiB(2));
  const auto ib = sched::Instance::from_grid(b, 0, MiB(2));
  for (ClusterId i = 0; i < ia.clusters(); ++i) {
    EXPECT_DOUBLE_EQ(ib.T(i), ia.T(i));
    for (ClusterId j = 0; j < ia.clusters(); ++j)
      if (i != j) {
        EXPECT_DOUBLE_EQ(ib.transfer(i, j), ia.transfer(i, j));
      }
  }
}

TEST(GridIo, RoundTripsRandomGrids) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    Rng rng(seed);
    topology::GeneratorConfig cfg;
    cfg.clusters = 5;
    const topology::Grid a = topology::random_grid(cfg, rng);
    const topology::Grid b = grid_from_string(grid_to_string(a));
    EXPECT_EQ(b.total_nodes(), a.total_nodes());
    EXPECT_DOUBLE_EQ(b.link(0, 4).g(KiB(512)), a.link(0, 4).g(KiB(512)));
  }
}

TEST(GridIo, WriteReadWriteIsByteIdentical) {
  Rng rng(16);
  topology::GeneratorConfig cfg;
  cfg.clusters = 16;
  for (const topology::Grid& grid :
       {topology::grid5000_testbed(), topology::random_grid(cfg, rng)}) {
    const std::string text = grid_to_string(grid);
    EXPECT_EQ(grid_to_string(grid_from_string(text)), text);
  }
}

TEST(GridIo, AlgorithmSurvivesRoundTrip) {
  topology::Grid a = topology::grid5000_testbed();
  a.cluster(5).set_algorithm(plogp::BcastAlgorithm::kSegmentedChain);
  const topology::Grid b = grid_from_string(grid_to_string(a));
  EXPECT_EQ(b.cluster(5).algorithm(),
            plogp::BcastAlgorithm::kSegmentedChain);
}

TEST(GridIo, CommentsAllowed) {
  std::string text = grid_to_string(topology::grid5000_testbed());
  text.insert(text.find("cluster "), "# hello\n");
  EXPECT_NO_THROW((void)grid_from_string(text));
}

TEST(GridIo, BadMagicRejected) {
  EXPECT_THROW((void)grid_from_string("nope v1"), InvalidInput);
}

TEST(GridIo, TruncationRejected) {
  std::string text = grid_to_string(topology::grid5000_testbed());
  text.resize(text.size() * 2 / 3);
  EXPECT_THROW((void)grid_from_string(text), InvalidInput);
}

TEST(GridIo, MissingLinkRejected) {
  // Remove one link line: validate() inside read_grid must flag it.
  std::string text = grid_to_string(topology::grid5000_testbed());
  const auto pos = text.find("link 5 4");
  ASSERT_NE(pos, std::string::npos);
  const auto eol = text.find('\n', pos);
  text.erase(pos, eol - pos + 1);
  EXPECT_THROW((void)grid_from_string(text), InvalidInput);
}

TEST(GridIo, UnknownAlgorithmRejected) {
  std::string text = grid_to_string(topology::grid5000_testbed());
  const auto pos = text.find("binomial");
  text.replace(pos, 8, "mystical");
  EXPECT_THROW((void)grid_from_string(text), InvalidInput);
}

TEST(GridIo, ZeroSizeClusterRejected) {
  std::string text = grid_to_string(topology::grid5000_testbed());
  const auto pos = text.find(" 31 ");
  text.replace(pos, 4, " 0 ");
  EXPECT_THROW((void)grid_from_string(text), InvalidInput);
}

/// The one-line InvalidInput message `text` is rejected with.
std::string rejection(const std::string& text) {
  try {
    (void)grid_from_string(text);
  } catch (const InvalidInput& e) {
    return e.what();
  }
  return "accepted";
}

TEST(GridIo, ClusterSizeAbove32BitsRejectedNotTruncated) {
  // Truncated to 32 bits, 2^32 would reach the Cluster assertion as size
  // 0 (an internal error) and 2^32 + 1 would parse as a one-rank cluster.
  const std::string text = grid_to_string(topology::grid5000_testbed());
  const auto pos = text.find(" 31 ");
  for (const std::string big : {"4294967296", "4294967297"}) {
    std::string bad = text;
    bad.replace(pos, 4, " " + big + " ");
    const std::string diag = rejection(bad);
    EXPECT_EQ(diag, "cluster size must be a decimal integer in [0, "
                    "4294967295], got '" + big + "'");
  }
  std::string widest = text;
  widest.replace(pos, 4, " 4294967295 ");
  EXPECT_EQ(grid_from_string(widest).cluster(0).size(), 4294967295u);
}

TEST(GridIo, HugeClusterCountIsAnInputErrorNotAnAllocation) {
  // The count is untrusted: it must not size an allocation before the
  // clusters it promises have been read.
  EXPECT_EQ(rejection("gridcast-grid v1 clusters 4294967296"),
            "cluster count must be a decimal integer in [0, 4294967295], "
            "got '4294967296'");
  EXPECT_EQ(rejection("gridcast-grid v1 clusters 4294967295"),
            "unexpected end of input, expected cluster");
  EXPECT_EQ(rejection("gridcast-grid v1 clusters 1e30"),
            "cluster count must be a decimal integer in [0, 4294967295], "
            "got '1e30'");
}

/// A two-cluster grid whose cluster-0 intra latency, link 0->1 latency
/// and link 0->1 gap sample are the given tokens.
std::string two_cluster_grid(const std::string& intra_latency,
                             const std::string& link_latency,
                             const std::string& gap_sample) {
  const std::string overheads = " fn 1 0 1e-06 fn 1 0 1e-06\n";
  return "gridcast-grid v1\nclusters 2\n"
         "cluster a 4 binomial params " + intra_latency + " fn 1 0 1e-06" +
         overheads +
         "cluster b 4 binomial params 1e-05 fn 1 0 1e-06" + overheads +
         "link 0 1 params " + link_latency + " fn 1 0 " + gap_sample +
         overheads +
         "link 1 0 params 0.01 fn 1 0 0.1" + overheads + "end\n";
}

TEST(GridIo, NonFiniteNumbersAreInputErrors) {
  // An infinite latency or gap used to pass validation and kill every
  // heuristic with an internal error.
  EXPECT_EQ(rejection(two_cluster_grid("1e-05", "0.01", "0.1")), "accepted");
  for (const std::string bad : {"inf", "INF", "infinity", "-inf", "nan"}) {
    SCOPED_TRACE(bad);
    const std::string got = " must be a finite decimal number, got '" + bad +
                            "'";
    EXPECT_EQ(rejection(two_cluster_grid(bad, "0.01", "0.1")),
              "cluster 0 ('a'): latency" + got);
    EXPECT_EQ(rejection(two_cluster_grid("1e-05", bad, "0.1")),
              "link 0 -> 1: latency" + got);
    EXPECT_EQ(rejection(two_cluster_grid("1e-05", "0.01", bad)),
              "link 0 -> 1: sample value" + got);
  }
}

TEST(GridIo, NumbersAreSpelledAsTheWriterSpellsThem) {
  // std::stod read a hex float, a '+' and an exponent-spelt size, none of
  // which write_grid emits.
  for (const std::string bad : {"0x1p-4", "+0.01"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(rejection(two_cluster_grid("1e-05", bad, "0.1")),
              "link 0 -> 1: latency must be a finite decimal number, got '" +
                  bad + "'");
  }
  std::string text = two_cluster_grid("1e-05", "0.01", "0.1");
  text.replace(text.find(" 4 "), 3, " 3.1e1 ");
  EXPECT_EQ(rejection(text),
            "cluster size must be a decimal integer in [0, 4294967295], "
            "got '3.1e1'");
}

TEST(GridIo, SampleSizesAboveTwoToThe53RoundTripExactly) {
  // Read through a double, 2^53 + 1 came back as 2^53.
  std::string text = two_cluster_grid("1e-05", "0.01", "0.1");
  const std::string gap = "fn 1 0 0.1";
  text.replace(text.find(gap), gap.size(), "fn 2 0 0.1 9007199254740993 0.2");
  const topology::Grid grid = grid_from_string(text);
  EXPECT_EQ(grid.link(0, 1).g.samples().back().first, 9007199254740993u);
  const std::string written = grid_to_string(grid);
  EXPECT_NE(written.find(" 9007199254740993 "), std::string::npos)
      << written;
  EXPECT_EQ(grid_to_string(grid_from_string(written)), written);
}

TEST(GridIo, ABadLinkIsNamedInTheError) {
  // One bad latency among the testbed's 30 links: the message alone must
  // say which link to fix.
  std::string text = grid_to_string(topology::grid5000_testbed());
  const std::string record = "link 2 3 params ";
  const auto pos = text.find(record);
  ASSERT_NE(pos, std::string::npos);
  const auto latency = pos + record.size();
  text.replace(latency, text.find(' ', latency) - latency, "inf");
  EXPECT_EQ(rejection(text),
            "link 2 -> 3: latency must be a finite decimal number, got 'inf'");
}

}  // namespace
}  // namespace gridcast::io
