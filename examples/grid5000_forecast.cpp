// The paper's Section 7 scenario as a library user would run it: take the
// 88-machine GRID5000 testbed (Table 3), and forecast the completion time
// of MPI_Bcast for each scheduling heuristic across message sizes — the
// Fig. 5 curves — plus the simulator-measured equivalent for the best and
// worst strategy.

#include <iostream>
#include <string_view>

#include "collective/backends.hpp"
#include "collective/bcast.hpp"
#include "exp/sweep.hpp"
#include "sched/registry.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "topology/grid5000.hpp"

int main() {
  using namespace gridcast;

  const topology::Grid grid = topology::grid5000_testbed();
  std::cout << "Testbed: " << grid.total_nodes() << " machines in "
            << grid.cluster_count() << " logical clusters\n";
  for (ClusterId c = 0; c < grid.cluster_count(); ++c)
    std::cout << "  [" << c << "] " << grid.cluster(c).name() << " x"
              << grid.cluster(c).size() << '\n';
  std::cout << '\n';

  const auto comps = sched::paper_heuristics();
  const std::vector<Bytes> sizes{KiB(512), MiB(1), MiB(2), MiB(4)};
  ThreadPool pool(ThreadPool::default_workers());
  exp::InstanceCache cache(grid);
  const collective::PlogpBackend plogp(&grid);
  const auto sweep =
      exp::backend_sweep(plogp, cache, 0, comps, sizes, /*seed=*/0, pool);

  Table t([&] {
    std::vector<std::string> h{"message"};
    for (const auto& s : sweep.series) h.push_back(s.name);
    return h;
  }());
  for (std::size_t i = 0; i < sweep.sizes.size(); ++i) {
    std::vector<double> row;
    for (const auto& s : sweep.series) row.push_back(s.completion[i]);
    t.add_row(std::to_string(sweep.sizes[i]) + " B", row, 3);
  }
  std::cout << "Predicted completion time (s), per heuristic:\n";
  t.print(std::cout);

  // Execute the extremes on the simulator for comparison, straight from
  // the registry entry (the collective derives the instance itself).
  for (const std::string_view name : {"FlatTree", "ECEF-LAT"}) {
    const auto entry = sched::registry().make(name);
    sim::Network net(grid, {}, 1);
    const auto r = collective::run_hierarchical_bcast(net, 0, *entry, MiB(4));
    std::cout << "\nSimulated 4 MiB broadcast with " << entry->name() << ": "
              << r.completion << " s (" << r.messages << " messages)\n";
  }
  return 0;
}
