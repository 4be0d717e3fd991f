// Figure 1: mean completion time of a 1 MB broadcast, 2-10 clusters,
// all seven heuristics, random Table 2 parameters.  Thin wrapper over the
// registry-driven Monte-Carlo race engine (exp::run_race_grid) — the same
// code path as `gridcast_race --race --clusters=2-10`.
//
// Expected shape (paper): FlatTree worst and growing with cluster count;
// FEF clearly above the ECEF family; BottomUp between FEF and ECEF*;
// the ECEF family around 3-3.5 s and nearly flat.

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(10000);
  benchx::print_banner(
      "Figure 1", "1 MB broadcast, 2-10 clusters, mean completion time (s)",
      opt);
  ThreadPool pool(opt.threads);
  const Table t = benchx::race_table(
      benchx::race(exp::fig1_cluster_ladder(),
                   benchx::names_of(sched::paper_heuristics()), opt, pool),
      benchx::RaceMetric::kMean);
  benchx::emit(t, opt);
  return 0;
}
