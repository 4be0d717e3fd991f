// Extension: root rotation (paper Section 4.1/7 remark).  Flat Tree
// "depends on how the clusters list is arranged with respect to the root
// process, and important performance variations can be observed on
// applications that rotate the role of the broadcast root"; the scheduled
// heuristics adapt per root.  For every root cluster of the Table 3
// testbed, report the predicted completion and summarise the spread.

#include "common.hpp"
#include "sched/instance.hpp"
#include "support/stats.hpp"
#include "topology/grid5000.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1);
  benchx::print_banner("Extension: root rotation",
                       "predicted 1 MiB completion (s) per broadcast root",
                       opt);

  const topology::Grid grid = topology::grid5000_testbed();
  const Bytes m = MiB(1);
  const auto comps = sched::paper_heuristics();

  std::vector<std::string> header{"root"};
  for (const auto& c : comps) header.emplace_back(c.name());
  Table t(std::move(header));

  std::vector<RunningStats> spread(comps.size());
  for (ClusterId root = 0; root < grid.cluster_count(); ++root) {
    const auto inst = sched::Instance::from_grid(grid, root, m);
    std::vector<double> row;
    for (std::size_t s = 0; s < comps.size(); ++s) {
      const Time mk = comps[s].makespan(inst);
      row.push_back(mk);
      spread[s].add(mk);
    }
    t.add_row(grid.cluster(root).name(), row, 3);
  }
  std::vector<double> ratio;
  for (const auto& st : spread) ratio.push_back(st.max() / st.min());
  t.add_row("max/min", ratio, 2);
  benchx::emit(t, opt);
  std::cout << "# higher max/min = more sensitive to the root's position\n";
  return 0;
}
