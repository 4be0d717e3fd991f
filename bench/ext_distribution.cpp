// Extension: the distributions behind the paper's mean-only plots.
// Quantiles of the 1 MB makespan at 10 and 40 clusters.  The tail
// (P95/P99) is where ECEF-LAT's slow-cluster insurance is visible even
// when the means sit within a few percent (Fig. 3's "too similar").

#include "common.hpp"
#include "exp/distribution.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(3000);
  benchx::print_banner("Extension: makespan distributions",
                       "quantiles (s) of the 1 MB broadcast makespan", opt);
  ThreadPool pool(opt.threads);
  const auto comps = sched::paper_heuristics();

  for (const std::size_t n : {10UL, 40UL}) {
    exp::DistributionConfig cfg;
    cfg.clusters = n;
    cfg.iterations = opt.iterations;
    cfg.seed = opt.seed;
    const auto r = exp::run_distribution(comps, cfg, pool);

    std::cout << "# " << n << " clusters\n";
    Table t({"heuristic", "mean", "P10", "P50", "P90", "P95", "P99", "max"});
    for (const auto& s : r.series)
      t.add_row(s.name,
                {s.stats.mean(), s.quantile(0.10), s.quantile(0.50),
                 s.quantile(0.90), s.quantile(0.95), s.quantile(0.99),
                 s.stats.max()},
                3);
    benchx::emit(t, opt);
  }
  return 0;
}
