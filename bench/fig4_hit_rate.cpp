// Figure 4: hit rate of the ECEF-family heuristics — how often each one
// matches the per-iteration global minimum over all four techniques.
//
// Expected shape (paper): ECEF / ECEF-LA / ECEF-LAt hit rates decay as
// clusters are added; ECEF-LAT stays roughly constant around 45%.
// Ties credit every achiever, so rows can sum to more than the iteration
// count (same convention as the paper's counts).

// Thin wrapper over exp::run_race_grid — the same code path (and the same
// per-series hit counts) as `gridcast_race --race`, whose BenchReport
// carries them in the "hits" arrays.

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(2000);
  benchx::print_banner("Figure 4",
                       "hits on the global minimum among the ECEF family "
                       "(counts out of the iteration total)",
                       opt);
  ThreadPool pool(opt.threads);
  const Table t = benchx::race_table(
      benchx::race(exp::fig2_cluster_ladder(),
                   benchx::names_of(sched::ecef_family()), opt, pool),
      benchx::RaceMetric::kHits);
  benchx::emit(t, opt);

  std::cout << "# hit rate = count / " << opt.iterations << '\n';
  return 0;
}
