// Figure 6: *measured* completion time on the Table 3 testbed — here,
// measured on the discrete-event simulator that substitutes for the live
// grid (DESIGN.md substitution table): every point-to-point message of the
// two-level broadcast is executed, including receive overheads and
// optional per-message jitter, plus the grid-unaware binomial tree the
// paper labels "Default LAM".  Delegates to the registry-driven race
// engine (exp::run_race_sweep) over the "sim" collective backend — the
// same code path as `tools/gridcast_race --backend=sim`.
//
// Expected shape (paper): measured tracks predicted (Fig. 5); ECEF family
// best, DefaultLAM in between, FlatTree worst by several times.

#include "common.hpp"
#include "exp/race_cli.hpp"
#include "sim/network.hpp"
#include "topology/grid5000.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(1);
  const double jitter = benchx::read_inputs([] {
    const auto pct = env_u64("GRIDCAST_JITTER_PCT", 5);
    if (!sim::JitterConfig{pct / 100.0}.valid())
      throw InvalidInput("GRIDCAST_JITTER_PCT must be below 50, got '" +
                         std::to_string(pct) + "'");
    return pct / 100.0;
  });
  benchx::print_banner(
      "Figure 6",
      "simulator-measured broadcast time on the Table 3 testbed (s), "
      "jitter=" + std::to_string(jitter),
      opt);

  exp::RaceSpec spec;
  for (const auto& c : sched::paper_heuristics())
    spec.sched_names.emplace_back(c.name());
  spec.backend = "sim";
  spec.jitter = jitter;
  spec.seed = opt.seed;

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
