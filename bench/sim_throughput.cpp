// Simulator throughput lane: events/sec, sends/sec and messages/sec in the
// strict BenchReport grammar (`bench == "micro"`), suitable for the CI
// lower-bound gate (`gridcast_race --check=... --baseline=... ` with
// --throughput-tol).  Unlike the makespan sweeps, these numbers are
// machine-dependent, so the checked-in BENCH_baseline_micro.json is a
// generous floor (current >= baseline / 10 by default), not an equality.
//
// The axis is the per-run workload scale: the engine series schedules
// that many events, the network series issues that many sends, and the
// collective series use it as the block size in bytes.  Every series
// reports items (engine events, sends, or a collective's delivered
// messages) per second of wall time, taking the best rate across
// repetitions so a single scheduler hiccup cannot fail the gate.  The
// collectives count messages, not engine events: a delivery that sends
// nothing further never becomes an event.
//
// This is deliberately NOT a Google Benchmark binary: the bench/
// CMakeLists links `micro_*` stems against the (optional) benchmark
// library, while this reporter must always build so CI can gate on it.
//
// Usage: bench_sim_throughput [--out=FILE] [--min-time=SECONDS]
//        (default: BENCH_micro.json, 0.2 s per cell)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "collective/alltoall.hpp"
#include "collective/scatter.hpp"
#include "common.hpp"
#include "io/bench_json.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "topology/grid5000.hpp"

namespace {

using namespace gridcast;

using Clock = std::chrono::steady_clock;

/// Run `workload` (which returns the items it processed) repeatedly until
/// `min_time` seconds have been spent, and report the best items/sec seen.
template <typename Workload>
double best_rate(double min_time, Workload&& workload) {
  double best = 0.0;
  double spent = 0.0;
  do {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t items = workload();
    const double dt =
        std::chrono::duration<double>(Clock::now() - t0).count();
    spent += dt;
    if (dt > 0.0) best = std::max(best, static_cast<double>(items) / dt);
  } while (spent < min_time);
  return best;
}

/// Pure calendar throughput: schedule `scale` no-op events, drain them.
std::uint64_t engine_workload(std::size_t scale) {
  sim::Engine e;
  for (std::size_t i = 0; i < scale; ++i)
    e.at(static_cast<Time>(i) * 1e-6, [] {});
  e.run();
  return e.processed();
}

/// Send-path throughput: `scale` same-size messages round-robin over the
/// testbed ranks (inter- and intra-cluster pairs alike), memo hot.
std::uint64_t network_workload(const topology::Grid& grid,
                               std::size_t scale) {
  sim::Network net(grid, {}, 1);
  const std::uint32_t ranks = net.ranks();
  for (std::size_t i = 0; i < scale; ++i) {
    const auto from = static_cast<NodeId>(i % ranks);
    const auto to = static_cast<NodeId>((i + 1 + i / ranks) % ranks);
    if (from == to) continue;
    (void)net.send(from, to, KiB(4));
  }
  net.engine().run();
  return net.messages();
}

std::uint64_t scatter_workload(const topology::Grid& grid, Bytes block) {
  sim::Network net(grid, {}, 1);
  (void)collective::run_hierarchical_scatter(net, 0, block);
  return net.messages();
}

std::uint64_t alltoall_workload(const topology::Grid& grid, Bytes block) {
  sim::Network net(grid, {}, 1);
  (void)collective::run_naive_alltoall(net, block);
  return net.messages();
}

/// --min-time's value: > 0, or it would time one pass (the reader already
/// refuses `inf`, which would never stop, and `nan`).
double parse_min_time(const std::string& token) {
  const double v = parse_decimal(token, "--min-time");
  if (v <= 0.0)
    throw InvalidInput("--min-time must be > 0, got '" + token + "'");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gridcast;

  std::string out_path = "BENCH_micro.json";
  double min_time = 0.2;
  benchx::read_inputs([&] {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--out=", 0) == 0)
        out_path = arg.substr(6);
      else if (arg.rfind("--min-time=", 0) == 0)
        min_time = parse_min_time(arg.substr(11));
      else
        throw InvalidInput(
            "usage: bench_sim_throughput [--out=FILE] [--min-time=SECONDS]");
    }
  });

  const topology::Grid grid = topology::grid5000_testbed();
  const std::vector<Bytes> scales = {1000, 100000};

  io::BenchReport r;
  r.bench = "micro";
  r.grid = "grid5000_testbed";
  r.mode = "measured";  // wall-clock numbers; seed/jitter pinned constants
  r.seed = 1;
  r.jitter = 0.0;
  r.sizes = scales;

  io::BenchSeries engine_s;
  engine_s.name = "engine_events";
  io::BenchSeries network_s;
  network_s.name = "network_sends";
  io::BenchSeries scatter_s;
  scatter_s.name = "hierarchical_scatter_messages";
  io::BenchSeries alltoall_s;
  alltoall_s.name = "naive_alltoall_messages";

  for (const Bytes scale : scales) {
    const auto n = static_cast<std::size_t>(scale);
    engine_s.throughput.push_back(
        best_rate(min_time, [&] { return engine_workload(n); }));
    network_s.throughput.push_back(
        best_rate(min_time, [&] { return network_workload(grid, n); }));
    scatter_s.throughput.push_back(
        best_rate(min_time, [&] { return scatter_workload(grid, scale); }));
    alltoall_s.throughput.push_back(
        best_rate(min_time, [&] { return alltoall_workload(grid, scale); }));
  }

  r.series = {engine_s, network_s, scatter_s, alltoall_s};

  std::ofstream os(out_path, std::ios::binary);
  if (!os) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  io::write_bench_json(os, r);
  if (!os.flush()) {
    std::cerr << "write to " << out_path << " failed\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  for (const auto& s : r.series) {
    std::cout << "  " << s.name << ":";
    for (std::size_t i = 0; i < s.throughput.size(); ++i)
      std::cout << "  " << r.sizes[i] << " -> "
                << static_cast<std::uint64_t>(s.throughput[i]) << "/s";
    std::cout << "\n";
  }
  return 0;
}
