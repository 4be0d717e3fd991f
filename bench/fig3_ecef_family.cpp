// Figure 3: the ECEF family alone (ECEF, ECEF-LA, ECEF-LAt, ECEF-LAT),
// 5-50 clusters — the zoomed comparison where the paper observes that all
// four sit within a narrow band and that ECEF-LAT edges ahead as the
// cluster count grows.

// Thin wrapper over exp::run_race_grid — the same code path as
// `gridcast_race --race --sched=ECEF,ECEF-LA,ECEF-LAt,ECEF-LAT`.

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1500);
  benchx::print_banner(
      "Figure 3",
      "1 MB broadcast, ECEF-family heuristics, mean completion time (s)",
      opt);
  ThreadPool pool(opt.threads);
  const Table t = benchx::race_table(
      benchx::race(exp::fig2_cluster_ladder(),
                   benchx::names_of(sched::ecef_family()), opt, pool),
      benchx::RaceMetric::kMean);
  benchx::emit(t, opt);
  return 0;
}
