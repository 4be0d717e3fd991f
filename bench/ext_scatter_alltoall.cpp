// Extension (the paper's "future work"): grid-aware scatter and
// all-to-all.  The coordinator-routed variants collapse the number of
// *inter-cluster* (WAN) messages — from O(machines) / O(machines^2) down
// to O(clusters) / O(clusters^2) — without changing the bytes a remote
// cluster must receive.  Two regimes are shown:
//   * the Table 3 testbed, whose per-message WAN cost is small: the WAN
//     message collapse is visible in the counters while completion times
//     stay byte-dominated;
//   * a "chatty WAN" (2 ms per message, as 2006-era TCP setup behaved
//     under congestion), where the collapse also wins wall-clock time.

#include "collective/alltoall.hpp"
#include "collective/scatter.hpp"
#include "common.hpp"
#include "topology/grid5000.hpp"

namespace {

using namespace gridcast;

topology::Grid chatty_wan_grid() {
  plogp::Params lan = plogp::Params::latency_bandwidth(us(50), 1e8);
  std::vector<topology::Cluster> cs;
  cs.emplace_back("a", 12, lan);
  cs.emplace_back("b", 12, lan);
  cs.emplace_back("c", 12, lan);
  topology::Grid g(std::move(cs));
  const auto wan = plogp::Params::latency_bandwidth(ms(12), 8e6, ms(2));
  g.set_link_symmetric(0, 1, wan);
  g.set_link_symmetric(0, 2, wan);
  g.set_link_symmetric(1, 2, wan);
  g.validate();
  return g;
}

void run_rows(Table& t, const topology::Grid& grid, const char* scenario,
              Bytes scatter_block, Bytes alltoall_block, std::uint64_t seed) {
  {
    sim::Network n1(grid, {}, seed);
    const auto a = collective::run_naive_scatter(n1, 0, scatter_block);
    sim::Network n2(grid, {}, seed);
    const auto b = collective::run_hierarchical_scatter(n2, 0, scatter_block);
    t.add_row({std::string(scenario), "scatter",
               std::to_string(scatter_block), Table::fmt(a.completion, 3),
               Table::fmt(b.completion, 3),
               std::to_string(a.wan_messages),
               std::to_string(b.wan_messages)});
  }
  {
    sim::Network n1(grid, {}, seed);
    const auto a = collective::run_naive_alltoall(n1, alltoall_block);
    sim::Network n2(grid, {}, seed);
    const auto b = collective::run_hierarchical_alltoall(n2, alltoall_block);
    t.add_row({std::string(scenario), "alltoall",
               std::to_string(alltoall_block), Table::fmt(a.completion, 3),
               Table::fmt(b.completion, 3),
               std::to_string(a.wan_messages),
               std::to_string(b.wan_messages)});
  }
}

}  // namespace

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1);
  benchx::print_banner("Extension: scatter / alltoall",
                       "naive vs grid-aware; WAN messages are the point",
                       opt);

  Table t({"scenario", "pattern", "block", "naive (s)", "grid-aware (s)",
           "naive WAN msgs", "aware WAN msgs"});
  const topology::Grid testbed = topology::grid5000_testbed();
  run_rows(t, testbed, "table3", KiB(64), KiB(4), opt.seed);
  const topology::Grid chatty = chatty_wan_grid();
  run_rows(t, chatty, "chatty-wan", KiB(4), 256, opt.seed);
  benchx::emit(t, opt);

  std::cout << "# grid-aware collapses WAN messages to O(clusters); on the\n"
               "# chatty WAN that also wins time, on the byte-dominated\n"
               "# testbed the WAN byte volume (unchanged) sets the pace.\n";
  return 0;
}
