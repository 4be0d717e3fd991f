// Ablation (DESIGN.md §4.1): BottomUp's inner cost with and without the
// sender ready time.  The paper's formula max_j min_i (g_ij + L_ij + T_j)
// omits RT_i; its prose says senders are "released earlier, ready to be
// selected again", which only matters if readiness is modelled.  FEF is
// included as the reference point the paper compares BottomUp against
// (Fig. 1's "BottomUp beats FEF" observation).

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(2000);
  benchx::print_banner("Ablation: BottomUp ready-time",
                       "mean completion time (s), 1 MB broadcast", opt);
  ThreadPool pool(opt.threads);

  // One race per BottomUp policy; both see the same draws.  FEF and
  // ECEF-LAT ignore the policy, so they ride along with the first.
  sched::HeuristicOptions ready, paper;
  ready.bottomup = sched::BottomUpPolicy::kReadyTimeAware;
  paper.bottomup = sched::BottomUpPolicy::kPaperFormula;
  const std::vector<std::size_t> counts{4, 8, 16, 32, 50};
  const auto a =
      benchx::race(counts, {"BottomUp", "FEF", "ECEF-LAT"}, opt, pool, ready);
  const auto b = benchx::race(counts, {"BottomUp"}, opt, pool, paper);

  Table t({"clusters", "BottomUp(RT-aware)", "BottomUp(paper-formula)", "FEF",
           "ECEF-LAT"});
  for (std::size_t p = 0; p < counts.size(); ++p)
    t.add_row(std::to_string(counts[p]),
              {a.series[0].makespan_s[p], b.series[0].makespan_s[p],
               a.series[1].makespan_s[p], a.series[2].makespan_s[p]},
              3);
  benchx::emit(t, opt);
  return 0;
}
