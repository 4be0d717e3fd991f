// Monte-Carlo heuristic race on random Table 2 grids (the Figs. 1-4
// scenario): mean makespan and hit-rate per strategy for a few cluster
// counts.  Usage: heuristic_race [clusters...]   (default: 5 10 20 40)

#include <iostream>
#include <vector>

#include "../bench/common.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace gridcast;

  const std::vector<std::size_t> counts = benchx::read_inputs([&] {
    std::vector<std::size_t> out;
    for (int i = 1; i < argc; ++i) {
      const auto n = parse_count<std::size_t>(argv[i], "cluster count");
      if (n < 2)
        throw InvalidInput(std::string("cluster count must be >= 2, got '") +
                           argv[i] + "'");
      out.push_back(n);
    }
    return out.empty() ? std::vector<std::size_t>{5, 10, 20, 40} : out;
  });
  const BenchOptions opt = benchx::options(2000);
  ThreadPool pool(opt.threads);
  for (const std::size_t n : counts) {
    const io::BenchReport r = benchx::race(
        {n}, benchx::names_of(sched::paper_heuristics()), opt, pool);
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
