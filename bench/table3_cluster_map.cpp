// Table 3: the 88-machine GRID5000 testbed.  Prints the latency matrix we
// encode from the paper and re-derives the cluster map: a noisy node-level
// matrix is synthesised from the table and fed to Lowekamp clustering with
// rho = 30% — the exact preprocessing the paper used to obtain its six
// logical clusters.

#include <iostream>

#include "clustering/lowekamp.hpp"
#include "clustering/node_matrix.hpp"
#include "common.hpp"
#include "topology/grid5000.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1);
  benchx::print_banner("Table 3", "GRID5000 testbed latency matrix (us) and "
                                  "recovered cluster map",
                       opt);

  const auto lat = topology::grid5000_latency_matrix();
  const auto sizes = topology::grid5000_sizes();
  const topology::Grid grid = topology::grid5000_testbed();

  std::vector<std::string> header{"cluster"};
  for (std::size_t c = 0; c < lat.size(); ++c)
    header.push_back(grid.cluster(static_cast<ClusterId>(c)).name());
  Table t(std::move(header));
  for (std::size_t i = 0; i < lat.size(); ++i) {
    std::vector<std::string> row{
        grid.cluster(static_cast<ClusterId>(i)).name() + " x" +
        std::to_string(sizes[i])};
    for (std::size_t j = 0; j < lat.size(); ++j)
      row.push_back(lat(i, j) > 0.0 ? Table::fmt(to_us(lat(i, j)), 2) : "-");
    t.add_row(std::move(row));
  }
  benchx::emit(t, opt);

  // Recover the cluster map from a noisy node-level expansion.
  SquareMatrix<Time> patched = lat;
  for (std::size_t c = 0; c < patched.size(); ++c)
    if (patched(c, c) == 0.0) patched(c, c) = us(50.0);
  Rng rng(opt.seed);
  const auto node_matrix =
      clustering::synthesize_node_matrix(sizes, patched, 0.05, rng);
  const auto result = clustering::lowekamp_cluster(node_matrix, 0.30);

  std::cout << "# Lowekamp clustering (rho=30%, 5% noise) on the "
            << node_matrix.size() << "-node expansion:\n";
  Table map({"recovered cluster", "machines"});
  for (std::size_t g = 0; g < result.groups.size(); ++g)
    map.add_row({std::to_string(g), std::to_string(result.groups[g].size())});
  benchx::emit(map, opt);
  std::cout << "# expected sizes: 31 29 6 1 1 20\n";
  return 0;
}
