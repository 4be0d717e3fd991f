// Ablation: the lookahead function zoo.  Section 4.4 recounts that Bhat
// proposed several lookahead alternatives beyond the minimum-edge form —
// the average cost from P_j to the rest of B (ECEF-AvgEdge), and the
// average A->B cost if P_j joined A (ECEF-AvgMove).  This bench races all
// six registered ECEF lookahead flavours so the design space the paper
// built ECEF-LAt/-LAT within is visible.

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(2000);
  benchx::print_banner("Ablation: lookahead functions",
                       "mean completion (s) of every ECEF lookahead", opt);
  ThreadPool pool(opt.threads);
  benchx::emit(
      benchx::race_table(
          benchx::race({5, 10, 20, 35, 50},
                       {"ECEF", "ECEF-LA", "ECEF-LAt", "ECEF-LAT",
                        "ECEF-AvgEdge", "ECEF-AvgMove"},
                       opt, pool),
          benchx::RaceMetric::kMean),
      opt);
  return 0;
}
