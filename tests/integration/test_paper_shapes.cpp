// Statistical reproduction of the paper's figure *shapes* at reduced
// iteration counts (the benches run the full-scale versions).  Each test
// pins one qualitative claim from the paper's evaluation.

#include <gtest/gtest.h>

#include "exp/race_cli.hpp"

namespace gridcast {
namespace {

/// A seed-42 race at one cluster count, read by series index: mean
/// makespan, hits and hit rate, plus the GlobalMin mean.
struct Race {
  io::BenchReport report;
  [[nodiscard]] double mean(std::size_t s) const {
    return report.series[s].makespan_s[0];
  }
  [[nodiscard]] double hits(std::size_t s) const {
    return report.series[s].hits[0];
  }
  [[nodiscard]] double hit_rate(std::size_t s) const {
    return hits(s) / static_cast<double>(report.iterations);
  }
  [[nodiscard]] double global_min() const {
    return report.series.back().makespan_s[0];
  }
};

Race race(std::size_t clusters, std::uint64_t iters = 600,
          const std::vector<sched::Scheduler>& comps =
              sched::paper_heuristics()) {
  exp::RaceGridSpec spec;
  for (const auto& c : comps) spec.sched_names.emplace_back(c.name());
  spec.cluster_counts = {clusters};
  spec.iterations = iters;
  spec.seed = 42;
  ThreadPool pool(0);
  return {exp::run_race_grid(spec, pool)};
}

// Index map for paper_heuristics(): 0 Flat, 1 FEF, 2 ECEF, 3 ECEF-LA,
// 4 ECEF-LAt, 5 ECEF-LAT, 6 BottomUp.
constexpr std::size_t kFlat = 0, kFef = 1, kEcef = 2, kLa = 3, kLat = 4,
                      kLAT = 5, kBu = 6;

TEST(PaperShapes, Fig1FlatTreeIsWorstAndEcefFamilyBest) {
  const auto r = race(10);
  for (std::size_t s = 1; s < 7; ++s)
    EXPECT_GT(r.mean(kFlat), r.mean(s));
  double family_best = 1e18;
  for (const std::size_t fam : {kEcef, kLa, kLat, kLAT}) {
    EXPECT_LT(r.mean(fam), r.mean(kFef));
    family_best = std::min(family_best, r.mean(fam));
  }
  // The best ECEF variant leads the field; BottomUp lands between the
  // family band and FEF (paper Fig. 1 has it strictly above the family -
  // under the eager completion model it overlaps the band's top edge).
  EXPECT_LT(family_best, r.mean(kBu));
}

TEST(PaperShapes, Fig1BottomUpBeatsFef) {
  const auto r = race(10);
  EXPECT_LT(r.mean(kBu), r.mean(kFef));
}

TEST(PaperShapes, Fig2FlatTreeGrowsLinearly) {
  const auto r10 = race(10);
  const auto r40 = race(40);
  const double growth =
      r40.mean(kFlat) / r10.mean(kFlat);
  // Roughly 4x the clusters -> roughly linear growth in root gaps.
  EXPECT_GT(growth, 2.5);
}

TEST(PaperShapes, Fig2EcefFamilyIsNearlyFlatInClusterCount) {
  const auto r10 = race(10);
  const auto r40 = race(40);
  for (const std::size_t fam : {kEcef, kLa, kLat, kLAT}) {
    const double growth =
        r40.mean(fam) / r10.mean(fam);
    EXPECT_LT(growth, 1.35) << "family index " << fam;
  }
}

TEST(PaperShapes, Fig3EcefFamilyStaysInNarrowBand) {
  const auto r = race(30);
  double lo = 1e9, hi = 0.0;
  for (const std::size_t fam : {kEcef, kLa, kLat, kLAT}) {
    lo = std::min(lo, r.mean(fam));
    hi = std::max(hi, r.mean(fam));
  }
  EXPECT_LT(hi / lo, 1.10);  // within ~10% of each other, as in Fig. 3
}

TEST(PaperShapes, Fig4TiesMakeHitsExceedIterations) {
  const auto r = race(5, 400, sched::ecef_family());
  double total = 0.0;
  for (std::size_t s = 0; s < 4; ++s) total += r.hits(s);
  EXPECT_GT(total, 400.0);  // the paper's Fig. 4 sums above 10000
}

TEST(PaperShapes, Fig4TAwareLookaheadLeadsOnSmallGrids) {
  // At small-to-mid cluster counts the grid-aware ECEF-LAT achieves the
  // highest hit rate of the family (the regime the paper recommends the
  // mixed strategy around).
  const auto r = race(8, 600, sched::ecef_family());
  // ecef_family: 0 ECEF, 1 LA, 2 LAt, 3 LAT.
  EXPECT_GT(r.hits(3), r.hits(0));
  EXPECT_GT(r.hits(3), r.hits(1));
}

TEST(PaperShapes, Fig4SpeedOrientedHitRatesDecayWithScale) {
  const auto rs = race(5, 500, sched::ecef_family());
  const auto rl = race(40, 500, sched::ecef_family());
  // ECEF and ECEF-LA match the family minimum far less often at 40
  // clusters than at 5 (the paper's decaying curves).
  EXPECT_LT(rl.hit_rate(0), rs.hit_rate(0));
  EXPECT_LT(rl.hit_rate(1), rs.hit_rate(1));
}

TEST(PaperShapes, GlobalMinimumTightensAgainstBestHeuristic) {
  // Sanity on the hit-rate metric itself: the global minimum can never
  // exceed the best single strategy, and some strategy attains it.
  const auto r = race(15, 300);
  double best = 1e18;
  for (std::size_t s = 0; s < 7; ++s) best = std::min(best, r.mean(s));
  EXPECT_LE(r.global_min(), best);
}

}  // namespace
}  // namespace gridcast
