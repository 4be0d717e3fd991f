// Ablation (DESIGN.md §4.7): the mixed strategy the paper's Section 6
// recommends — ECEF-LA on small grids, ECEF-LAT on large ones.  For each
// cluster count we report both pure strategies and what the mixed strategy
// (threshold = 10) would deliver, in mean makespan and hit rate against
// the full ECEF family.

#include "common.hpp"
#include "sched/mixed.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1500);
  benchx::print_banner("Ablation: mixed strategy",
                       "ECEF-LA vs ECEF-LAT vs mixed(threshold=10)", opt);
  ThreadPool pool(opt.threads);

  const std::vector<std::size_t> counts{4, 8, 10, 12, 20, 35, 50};
  const io::BenchReport r = benchx::race(
      counts, benchx::names_of(sched::ecef_family()), opt, pool);
  const sched::MixedStrategy mixed(10);

  Table t({"clusters", "ECEF-LA mean", "ECEF-LAT mean", "mixed mean",
           "ECEF-LA hits", "ECEF-LAT hits", "mixed hits", "mixed uses"});
  for (std::size_t p = 0; p < counts.size(); ++p) {
    const std::size_t n = counts[p];
    // Series of the family race: 0 ECEF, 1 ECEF-LA, 2 ECEF-LAt, 3 ECEF-LAT.
    const auto& la = r.series[1];
    const auto& lat = r.series[3];
    const auto& pick = mixed.choice(n) == "ECEF-LA" ? la : lat;
    t.add_row({std::to_string(n), Table::fmt(la.makespan_s[p], 3),
               Table::fmt(lat.makespan_s[p], 3),
               Table::fmt(pick.makespan_s[p], 3), Table::fmt(la.hits[p], 0),
               Table::fmt(lat.hits[p], 0), Table::fmt(pick.hits[p], 0),
               std::string(mixed.choice(n))});
  }
  benchx::emit(t, opt);
  return 0;
}
