#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/race.hpp"

/// The `gridcast_race` command line over exp/race.hpp: one flag table
/// (support/flags.hpp) gives its parser, refusals and `--help`.
namespace gridcast::exp {

/// One parsed `gridcast_race` invocation.
struct RaceCli {
  /// The modes, in the order their selectors are looked for; kRun (the
  /// sweep) is the default.
  enum class Action : std::uint8_t { kRace, kMerge, kCheck, kListBackends,
                                     kRun };
  Action action = Action::kRun;

  // kRun
  RaceSpec spec;
  std::string grid_arg = "grid5000";  ///< "grid5000" or a grid-file path
  std::size_t threads = 0;            ///< 0 = inline
  std::string out_path;               ///< empty = stdout

  // kRace (`--race`): empty sched_names = the paper's seven heuristics
  RaceGridSpec race;

  // kMerge: out_path then inputs, as in `--merge out.json a.json b.json`
  std::vector<std::string> merge_inputs;

  // kCheck
  std::string check_path;
  std::string baseline_path;
  io::BenchCompareOptions tolerances;
};

/// Parse argv (without the program name).  Throws InvalidInput, ready for
/// stderr, on what the flag table refuses, a malformed value or an
/// inconsistent combination (e.g. `--wall` with `--shards`).
[[nodiscard]] RaceCli parse_race_cli(const std::vector<std::string>& args);

/// Parse a `--clusters` list: comma-separated tokens, each a count ("8"),
/// an inclusive range ("5-50", step 1) or a stepped range ("5-50:5").
[[nodiscard]] std::vector<std::size_t> parse_cluster_list(
    const std::string& value);

// The flag spellings gridcast_race and gridcast_serve share.

/// A `--sched` value: "all" (any case) is the empty list, which means
/// every registered scheduler; otherwise the comma-separated names, none
/// of them empty.
[[nodiscard]] std::vector<std::string> parse_sched_names(
    const std::string& value);

/// A `--completion` value: "eager" or "after-last-send", any case.
[[nodiscard]] sched::CompletionModel parse_completion(const std::string& value);

/// A `--grid` value: "grid5000" (any case) is the built-in Table 3
/// testbed, anything else a grid file.  `grid_name` receives the name
/// reports record.
[[nodiscard]] topology::Grid load_grid(const std::string& grid_arg,
                                       std::string& grid_name);

/// Write `r` to the file `path`, or to `fallback` when `path` is empty.
void write_report(const io::BenchReport& r, const std::string& path,
                  std::ostream& fallback);

/// Execute a parsed invocation end to end (grid loading, racing, merging,
/// or the baseline gate).  Reports go to `out_path` or `out`; diagnostics
/// go to `err`.  Returns the process exit code (non-zero when the check
/// action finds regressions).
int run_race_cli(const RaceCli& cli, std::ostream& out, std::ostream& err);

/// `gridcast_race`'s whole `main`, through flags::run.
int race_cli_main(int argc, char** argv, std::ostream& out,
                  std::ostream& err);

}  // namespace gridcast::exp
