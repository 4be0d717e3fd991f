// Microbenchmark: discrete-event simulator throughput — engine event
// processing, full collective executions on the Table 3 testbed (items are
// delivered messages), and one Monte-Carlo race iteration (the unit the
// Figs. 1-4 experiment repeats millions of times).  Every benchmark
// reports items/sec via SetItemsProcessed so regressions read directly in
// throughput terms.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>

#include "collective/alltoall.hpp"
#include "collective/bcast.hpp"
#include "collective/scatter.hpp"
#include "exp/param_ranges.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "support/rng.hpp"
#include "topology/grid5000.hpp"

namespace {

using namespace gridcast;

void BM_EngineThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine e;
    for (std::size_t i = 0; i < n; ++i)
      e.at(static_cast<Time>(i) * 1e-6, [] {});
    e.run();
    benchmark::DoNotOptimize(e.processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_GridBinomialBcast(benchmark::State& state) {
  const topology::Grid grid = topology::grid5000_testbed();
  const Bytes m = static_cast<Bytes>(state.range(0));
  std::int64_t messages = 0;
  for (auto _ : state) {
    sim::Network net(grid, {}, 1);
    benchmark::DoNotOptimize(
        collective::run_grid_unaware_binomial(net, 0, m).completion);
    messages += static_cast<std::int64_t>(net.messages());
  }
  state.SetItemsProcessed(messages);
}

void BM_GridScatter(benchmark::State& state) {
  const topology::Grid grid = topology::grid5000_testbed();
  const Bytes block = static_cast<Bytes>(state.range(0));
  std::int64_t messages = 0;
  for (auto _ : state) {
    sim::Network net(grid, {}, 1);
    benchmark::DoNotOptimize(
        collective::run_hierarchical_scatter(net, 0, block).completion);
    messages += static_cast<std::int64_t>(net.messages());
  }
  state.SetItemsProcessed(messages);
}

void BM_NaiveAlltoall(benchmark::State& state) {
  const topology::Grid grid = topology::grid5000_testbed();
  const Bytes block = static_cast<Bytes>(state.range(0));
  std::int64_t messages = 0;
  for (auto _ : state) {
    // 88 ranks -> 7656 point-to-point messages per run.
    sim::Network net(grid, {}, 1);
    benchmark::DoNotOptimize(
        collective::run_naive_alltoall(net, block).completion);
    messages += static_cast<std::int64_t>(net.messages());
  }
  state.SetItemsProcessed(messages);
}

// One Figs. 1-4 Monte-Carlo iteration: draw a Table 2 instance, schedule
// it with every registered heuristic, track the global best.  Items are
// schedules computed, so the number stays comparable as heuristics are
// added to the registry.
void BM_RaceIteration(benchmark::State& state) {
  const auto clusters = static_cast<std::size_t>(state.range(0));
  const auto comps = sched::registry().make_all({});
  const exp::ParamRanges ranges = exp::ParamRanges::paper();
  sched::Instance inst;
  std::uint64_t it = 0;
  std::int64_t schedules = 0;
  for (auto _ : state) {
    Rng rng = Rng::stream(42, it++);
    exp::sample_instance_into(ranges, clusters, rng, 0, inst);
    Time best = std::numeric_limits<Time>::infinity();
    for (const auto& e : comps) {
      const sched::SchedulerRuntimeInfo info(inst, 0,
                                             e->options().completion);
      if (!e->can_schedule(info)) continue;  // shape-gated entries abstain
      best = std::min(best, e->makespan(inst));
      ++schedules;
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(schedules);
}

}  // namespace

BENCHMARK(BM_EngineThroughput)->Arg(1000)->Arg(100000);
BENCHMARK(BM_GridBinomialBcast)->Arg(1 << 20)->Arg(4 << 20);
BENCHMARK(BM_GridScatter)->Arg(1 << 10)->Arg(1 << 20);
BENCHMARK(BM_NaiveAlltoall)->Arg(1 << 10)->Arg(1 << 20);
BENCHMARK(BM_RaceIteration)->Arg(5)->Arg(10);
