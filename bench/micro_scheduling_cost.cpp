// Microbenchmark: heuristic scheduling cost.  The paper's Section 7 notes
// that "the algorithm complexity is a factor that must be considered when
// implementing more elaborate techniques like ECEF-LAT" — this measures
// exactly that: wall time to produce one schedule, per heuristic, per
// cluster count.

#include <benchmark/benchmark.h>

#include "exp/param_ranges.hpp"
#include "sched/optimal.hpp"
#include "sched/registry.hpp"
#include "support/rng.hpp"

namespace {

using namespace gridcast;

sched::Instance make_instance(std::size_t clusters) {
  Rng rng = Rng::stream(42, clusters);
  return exp::sample_instance(exp::ParamRanges::paper(), clusters, rng);
}

void BM_Heuristic(benchmark::State& state, const char* name) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  const sched::Scheduler s(name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.makespan(inst));
  }
}

void BM_OptimalSearch(benchmark::State& state) {
  const auto inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::optimal_makespan(inst));
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_Heuristic, FlatTree, "FlatTree")
    ->Arg(5)->Arg(10)->Arg(25)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, FEF, "FEF")
    ->Arg(5)->Arg(10)->Arg(25)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, ECEF, "ECEF")
    ->Arg(5)->Arg(10)->Arg(25)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, ECEF_LA, "ECEF-LA")
    ->Arg(5)->Arg(10)->Arg(25)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, ECEF_LAt, "ECEF-LAt")
    ->Arg(5)->Arg(10)->Arg(25)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, ECEF_LAT, "ECEF-LAT")
    ->Arg(5)->Arg(10)->Arg(25)->Arg(50);
BENCHMARK_CAPTURE(BM_Heuristic, BottomUp, "BottomUp")
    ->Arg(5)->Arg(10)->Arg(25)->Arg(50);
// The registry-wide selector: one selection walks every
// non-composite entry, so this row is the Section 7 complexity concern
// for the composite case.
BENCHMARK_CAPTURE(BM_Heuristic, Auto, "auto")
    ->Arg(5)->Arg(10)->Arg(25)->Arg(50);
BENCHMARK(BM_OptimalSearch)->Arg(4)->Arg(6)->Arg(7);
