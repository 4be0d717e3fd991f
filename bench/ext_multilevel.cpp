// Extension: the related-work ladder of Section 2, executed head-to-head
// on the Table 3 testbed — grid-unaware binomial (LAM), two-level flat
// (ECO/MagPIe = FlatTree), multi-level flat with cross-level overlap
// (Karonis/MPICH-G2), and the paper's scheduled broadcast (ECEF-LA).
// Each rung should beat the previous one.

#include "collective/bcast.hpp"
#include "collective/multilevel.hpp"
#include "common.hpp"
#include "sched/instance.hpp"
#include "topology/grid5000.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1);
  benchx::print_banner("Extension: related-work ladder",
                       "simulated completion (s) on the Table 3 testbed",
                       opt);

  const topology::Grid grid = topology::grid5000_testbed();
  const auto sites = collective::sites_by_latency(grid);

  Table t({"bytes", "DefaultLAM", "FlatTree(2-level)", "Multilevel",
           "ECEF-LA(scheduled)"});
  for (const Bytes m : {KiB(256), MiB(1), MiB(2), MiB(4)}) {
    const auto inst = sched::Instance::from_grid(grid, 0, m);

    sim::Network lam_net(grid, {}, opt.seed);
    const Time lam =
        collective::run_grid_unaware_binomial(lam_net, 0, m).completion;

    sim::Network flat_net(grid, {}, opt.seed);
    const Time flat =
        collective::run_hierarchical_bcast(
            flat_net, 0,
            sched::Scheduler("FlatTree").order(inst), m)
            .completion;

    sim::Network ml_net(grid, {}, opt.seed);
    const Time multi =
        collective::run_multilevel_bcast(ml_net, 0, sites, m).completion;

    sim::Network ecef_net(grid, {}, opt.seed);
    const Time ecef =
        collective::run_hierarchical_bcast(
            ecef_net, 0,
            sched::Scheduler("ECEF-LA").order(inst), m)
            .completion;

    t.add_row(std::to_string(m), {lam, flat, multi, ecef}, 3);
  }
  benchx::emit(t, opt);
  return 0;
}
