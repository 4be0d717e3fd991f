// Monte-Carlo heuristic race on random Table 2 grids (the Figs. 1-4
// scenario): mean makespan and hit-rate per strategy for a few cluster
// counts.  Usage: heuristic_race [clusters...]   (default: 5 10 20 40)

#include <cstdlib>
#include <iostream>
#include <vector>

#include "exp/race_cli.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace gridcast;

  std::vector<std::size_t> counts;
  for (int i = 1; i < argc; ++i) {
    const long v = std::strtol(argv[i], nullptr, 10);
    if (v < 2) {
      std::cerr << "cluster counts must be >= 2\n";
      return 1;
    }
    counts.push_back(static_cast<std::size_t>(v));
  }
  if (counts.empty()) counts = {5, 10, 20, 40};

  const BenchOptions opt = BenchOptions::from_env(2000);
  ThreadPool pool(opt.threads);
  exp::RaceGridSpec spec;
  for (const auto& c : sched::paper_heuristics())
    spec.sched_names.emplace_back(c.name());
  spec.iterations = opt.iterations;
  spec.seed = opt.seed;

  for (const std::size_t n : counts) {
    spec.cluster_counts = {n};
    const io::BenchReport r = exp::run_race_grid(spec, pool);

    std::cout << "\n== " << n << " clusters, " << r.iterations
              << " iterations ==\n";
    Table t({"heuristic", "mean (s)", "hit rate"});
    const double iters = static_cast<double>(r.iterations);
    for (std::size_t s = 0; s + 1 < r.series.size(); ++s)
      t.add_row(r.series[s].name,
                {r.series[s].makespan_s[0], r.series[s].hits[0] / iters}, 3);
    t.add_row("(global minimum)", {r.series.back().makespan_s[0], 1.0}, 3);
    t.print(std::cout);
  }
  return 0;
}
