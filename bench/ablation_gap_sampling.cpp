// Ablation (DESIGN.md §4.9): Table 2 gap sampling.  The paper's sampling
// sentence is ambiguous; this bench runs the ECEF-family hit-rate study
// under both readings.  Per-pair gaps (default) keep transfer
// heterogeneity, which dilutes the T-ordering signal at high cluster
// counts; a shared per-iteration gap removes it, making ECEF-LAT's
// serve-slowest-first ordering all-dominant.  The paper's "constant ~45%"
// for ECEF-LAT sits between the two regimes.

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(2000);
  benchx::print_banner("Ablation: gap sampling",
                       "ECEF-family hit counts, per-pair vs shared gap", opt);
  ThreadPool pool(opt.threads);
  const std::vector<std::size_t> counts{5, 15, 30, 50};
  for (const bool shared : {false, true}) {
    std::cout << "# gap sampling = " << (shared ? "shared-per-iteration"
                                               : "per-pair")
              << '\n';
    benchx::emit(
        benchx::race_table(
            benchx::race(counts, benchx::names_of(sched::ecef_family()), opt,
                         pool, {},
                         shared ? exp::ParamRanges::shared_gap()
                                : exp::ParamRanges::paper()),
            benchx::RaceMetric::kHits),
        opt);
  }
  return 0;
}
