// Ablation (DESIGN.md §4.4): coordinator NIC policy on the simulator.
// Relay-first (MagPIe semantics, the paper's model) lets downstream
// clusters start as early as possible; local-first finishes the local
// cluster sooner but delays every cluster behind it.  Executed on the
// Table 3 testbed with the ECEF-LA schedule.

#include "collective/bcast.hpp"
#include "common.hpp"
#include "sched/instance.hpp"
#include "topology/grid5000.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1);
  benchx::print_banner("Ablation: intra/relay NIC order",
                       "simulated completion (s) on the Table 3 testbed",
                       opt);

  const topology::Grid grid = topology::grid5000_testbed();
  const sched::Scheduler s("ECEF-LA");

  Table t({"bytes", "relay-first", "local-first", "penalty"});
  for (const Bytes m : {KiB(256), MiB(1), MiB(2), MiB(4)}) {
    const auto inst = sched::Instance::from_grid(grid, 0, m);
    const auto order = s.order(inst);
    Time relay_first, local_first;
    {
      sim::Network net(grid, {}, opt.seed);
      relay_first = collective::run_hierarchical_bcast(
                        net, 0, order, m, collective::IntraOrder::kRelayFirst)
                        .completion;
    }
    {
      sim::Network net(grid, {}, opt.seed);
      local_first = collective::run_hierarchical_bcast(
                        net, 0, order, m, collective::IntraOrder::kLocalFirst)
                        .completion;
    }
    t.add_row(std::to_string(m),
              {relay_first, local_first, local_first / relay_first}, 3);
  }
  benchx::emit(t, opt);
  return 0;
}
