// Figure 5: model-predicted completion time of a broadcast on the
// 88-machine GRID5000 testbed (Table 3), message sizes up to 4 MiB,
// all seven heuristics.  Delegates to the registry-driven race engine
// (exp::run_race_sweep) over the "plogp" collective backend — the same
// code path as `tools/gridcast_race --backend=plogp`.
//
// Expected shape (paper): ECEF family < BottomUp < FlatTree at every
// size; ECEF family stays under ~3 s at 4 MB while FlatTree is several
// times slower.  Absolute seconds depend on our calibrated bandwidths
// (DESIGN.md substitution table).

#include "common.hpp"
#include "exp/race.hpp"
#include "topology/grid5000.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1);
  benchx::print_banner(
      "Figure 5", "predicted broadcast time on the Table 3 testbed (s)", opt);

  exp::RaceSpec spec;
  spec.backend = "plogp";
  for (const auto& c : sched::paper_heuristics())
    spec.sched_names.emplace_back(c.name());
  // Prediction must mirror the executor's semantics: coordinators
  // serialize relays and the local tree on one NIC (after-last-send).
  spec.completion = sched::CompletionModel::kAfterLastSend;

  const topology::Grid grid = topology::grid5000_testbed();
  exp::InstanceCache cache(grid);
  ThreadPool pool(opt.threads);
  const io::BenchReport r =
      exp::run_race_sweep(cache, "grid5000_testbed", spec, pool);

  std::vector<std::string> header{"bytes"};
  for (const auto& s : r.series) header.push_back(s.name);
  Table t(std::move(header));
  for (std::size_t i = 0; i < r.sizes.size(); ++i) {
    std::vector<double> row;
    for (const auto& s : r.series) row.push_back(s.makespan_s[i]);
    t.add_row(std::to_string(r.sizes[i]), row, 3);
  }
  benchx::emit(t, opt);
  return 0;
}
