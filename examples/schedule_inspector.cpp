// Schedule inspection: build the GRID5000 instance, run two contrasting
// heuristics, and dig into *why* one wins — ASCII Gantt charts, critical
// paths, sender utilisation — then export the winning schedule as JSON
// for external tooling.

#include <iostream>
#include <string_view>

#include "io/schedule_io.hpp"
#include "sched/analysis.hpp"
#include "sched/registry.hpp"
#include "topology/grid5000.hpp"

int main() {
  using namespace gridcast;

  const topology::Grid grid = topology::grid5000_testbed();
  const Bytes m = MiB(4);
  const sched::Instance inst = sched::Instance::from_grid(grid, 0, m);

  for (const std::string_view name : {"FlatTree", "ECEF-LA"}) {
    const sched::Scheduler s(name);
    const sched::Schedule sched_ = s.run(inst);
    const sched::ScheduleAnalysis a = sched::analyze(inst, sched_);

    std::cout << "== " << s.name() << "  (makespan " << sched_.makespan
              << " s) ==\n";
    std::cout << sched::render_gantt(inst, sched_, 64) << '\n';
    std::cout << "relay tree depth: " << a.tree_depth
              << ", mean sender utilisation: " << a.mean_sender_utilisation
              << "\ncritical path:";
    for (const ClusterId c : a.critical_path)
      std::cout << ' ' << grid.cluster(c).name();
    std::cout << " (bottleneck: " << grid.cluster(a.bottleneck).name()
              << ")\n\n";
  }

  // Export the winning schedule for external tools.
  const sched::Schedule best = sched::Scheduler("ECEF-LA").run(inst);
  std::cout << "schedule JSON:\n" << io::schedule_to_json(best) << "\n";
  return 0;
}
