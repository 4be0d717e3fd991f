// Figure 2: mean completion time of a 1 MB broadcast for grids of up to 50
// clusters (x = 5, 10, ..., 50), all seven heuristics.
//
// Expected shape (paper): FlatTree grows ~linearly to ~19 s at 50
// clusters; FEF grows too; the ECEF family stays in the 3-3.7 s band.

// Thin wrapper over exp::run_race_grid — the same code path as
// `gridcast_race --race --clusters=5-50:5`.

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1000);
  benchx::print_banner(
      "Figure 2", "1 MB broadcast, 5-50 clusters, mean completion time (s)",
      opt);
  ThreadPool pool(opt.threads);
  const Table t = benchx::race_table(
      benchx::race(exp::fig2_cluster_ladder(),
                   benchx::names_of(sched::paper_heuristics()), opt, pool),
      benchx::RaceMetric::kMean);
  benchx::emit(t, opt);
  return 0;
}
