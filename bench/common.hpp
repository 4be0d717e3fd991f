#pragma once

// Shared plumbing for the bench binaries (and example_heuristic_race):
// input checking, banner printing and the cluster-count sweep that Figs.
// 1-4 all use.  Each binary prints the same rows/series as the paper
// artefact it reproduces; set GRIDCAST_CSV=1 for machine-readable output
// and GRIDCAST_ITERS to change the Monte-Carlo depth (EXPERIMENTS.md
// records the defaults used for the committed results).

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "exp/race_cli.hpp"
#include "support/error.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace gridcast::benchx {

/// Runs `read`, which reads the binary's inputs (GRIDCAST_* variables,
/// arguments).  A bad value ends the process with its one-line
/// InvalidInput on stderr and exit 2, the CLI tools' usage-error status.
template <typename Read>
auto read_inputs(Read read) {
  try {
    return read();
  } catch (const InvalidInput& e) {
    std::cerr << e.what() << '\n';
    std::exit(2);
  }
}

/// BenchOptions::from_env through read_inputs.
inline BenchOptions options(std::uint64_t default_iters) {
  return read_inputs([=] { return BenchOptions::from_env(default_iters); });
}

inline void print_banner(const std::string& artefact, const std::string& what,
                         const BenchOptions& opt) {
  std::cout << "# " << artefact << ": " << what << '\n'
            << "# iterations=" << opt.iterations << " seed=" << opt.seed
            << " threads=" << opt.threads << '\n';
}

inline void emit(const Table& t, const BenchOptions& opt) {
  if (opt.csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout);
}

/// Registered names of a competitor list, for exp::RaceGridSpec.
inline std::vector<std::string> names_of(
    const std::vector<sched::Scheduler>& comps) {
  std::vector<std::string> names;
  names.reserve(comps.size());
  for (const auto& c : comps) names.emplace_back(c.name());
  return names;
}

/// Race `sched_names` at every cluster count through exp::run_race_grid —
/// the same engine as `gridcast_race --race` — at `opt`'s depth and
/// seed.  Every competitor is resolved with `options`; draws come from
/// `ranges` and depend only on (seed, cluster count, iteration), so races
/// that differ only in their options see the same instances.
inline io::BenchReport race(const std::vector<std::size_t>& counts,
                            std::vector<std::string> sched_names,
                            const BenchOptions& opt, ThreadPool& pool,
                            const sched::HeuristicOptions& options = {},
                            const exp::ParamRanges& ranges =
                                exp::ParamRanges::paper()) {
  exp::RaceGridSpec spec;
  spec.sched_names = std::move(sched_names);
  spec.cluster_counts = counts;
  spec.iterations = opt.iterations;
  spec.seed = opt.seed;
  spec.options = options;
  spec.ranges = ranges;
  return exp::run_race_grid(spec, pool);
}

/// Tabulate a race report one row per cluster count and one column per
/// competitor: mean makespan (plus the GlobalMin column) when
/// `metric == kMean`, hit counts when `metric == kHits`.
enum class RaceMetric { kMean, kHits };

inline Table race_table(const io::BenchReport& r, RaceMetric metric) {
  const std::size_t n_comps = r.series.size() - 1;  // + trailing GlobalMin
  std::vector<std::string> header{"clusters"};
  for (std::size_t s = 0; s < n_comps; ++s) header.push_back(r.series[s].name);
  if (metric == RaceMetric::kMean) header.emplace_back("global-min");
  Table t(std::move(header));

  for (std::size_t p = 0; p < r.sizes.size(); ++p) {
    std::vector<double> row;
    row.reserve(n_comps + 1);
    for (std::size_t s = 0; s < n_comps; ++s)
      row.push_back(metric == RaceMetric::kMean ? r.series[s].makespan_s[p]
                                                : r.series[s].hits[p]);
    if (metric == RaceMetric::kMean)
      row.push_back(r.series[n_comps].makespan_s[p]);  // GlobalMin
    t.add_row(std::to_string(r.sizes[p]), row,
              metric == RaceMetric::kMean ? 3 : 0);
  }
  return t;
}

}  // namespace gridcast::benchx
