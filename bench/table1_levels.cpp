// Table 1: the communication-level hierarchy (WAN > LAN > localhost >
// shared memory).  Demonstrates the classifier on representative latencies
// and prints each level's synthesis ranges, which the random topology
// generator draws from.

#include <iostream>

#include "common.hpp"
#include "topology/comm_level.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1);
  benchx::print_banner("Table 1", "communication levels by latency", opt);

  Table t({"level", "name", "latency range", "bandwidth range (MB/s)",
           "example latency", "classified"});
  const std::vector<std::pair<topology::CommLevel, Time>> examples{
      {topology::CommLevel::kWan, ms(12.0)},
      {topology::CommLevel::kLan, us(250.0)},
      {topology::CommLevel::kLocalhost, us(40.0)},
      {topology::CommLevel::kSharedMemory, us(2.0)},
  };
  for (const auto& [level, example] : examples) {
    const auto lr = topology::typical_latency(level);
    const auto br = topology::typical_bandwidth(level);
    t.add_row({std::to_string(static_cast<int>(level)),
               std::string(topology::to_string(level)),
               Table::fmt(to_us(lr.lo), 1) + "-" + Table::fmt(to_us(lr.hi), 1) +
                   " us",
               Table::fmt(br.lo / 1e6, 0) + "-" + Table::fmt(br.hi / 1e6, 0),
               Table::fmt(to_us(example), 1) + " us",
               std::string(topology::to_string(
                   topology::classify_latency(example)))});
  }
  benchx::emit(t, opt);
  return 0;
}
