// Ablation (DESIGN.md §4.2): FEF's edge weight.  Bhat defines the weight
// as "usually the latency" (the paper-faithful default); under Table 2
// ranges the gap dominates the transfer cost by two orders of magnitude,
// so latency-only FEF picks edges nearly at random with respect to the
// true cost.  Giving FEF the informed g+L weight recovers much of the gap
// to ECEF — evidence that FEF's weakness in Figs. 1-2 is the weight, not
// the greedy structure.

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(2000);
  benchx::print_banner("Ablation: FEF edge weight",
                       "mean completion time (s), 1 MB broadcast", opt);
  ThreadPool pool(opt.threads);

  // One race per FEF weight; both see the same draws.  ECEF ignores the
  // weight, so it rides along with the first.
  sched::HeuristicOptions gl, lonly;
  gl.fef_weight = sched::FefWeight::kGapPlusLatency;
  lonly.fef_weight = sched::FefWeight::kLatencyOnly;
  const std::vector<std::size_t> counts{4, 8, 16, 32, 50};
  const auto a = benchx::race(counts, {"FEF", "ECEF"}, opt, pool, gl);
  const auto b = benchx::race(counts, {"FEF"}, opt, pool, lonly);

  Table t({"clusters", "FEF(g+L ablation)", "FEF(L only, paper)", "ECEF"});
  for (std::size_t p = 0; p < counts.size(); ++p)
    t.add_row(std::to_string(counts[p]),
              {a.series[0].makespan_s[p], b.series[0].makespan_s[p],
               a.series[1].makespan_s[p]},
              3);
  benchx::emit(t, opt);
  return 0;
}
