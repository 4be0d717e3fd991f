#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "exp/instance_cache.hpp"
#include "exp/param_ranges.hpp"
#include "exp/sweep.hpp"
#include "io/bench_json.hpp"
#include "sched/registry.hpp"
#include "support/thread_pool.hpp"

/// The registry-driven race harness behind the `gridcast_race` CLI.
///
/// Two engines live here.  The *sweep* engine (`run_race_sweep`) races a
/// competitor list over a message-size ladder on a concrete grid — the
/// Figs. 5/6 experiment.  The *Monte-Carlo race* engine (`run_race_grid`,
/// CLI `--race`) runs the Figs. 1-4 experiment: random Table 2 instances
/// per cluster count, mean completion plus hit counts, sharded over the
/// (parameter-point x iteration-block) grid with the same deterministic
/// `--shards/--shard/--merge` machinery and the same `io::BenchReport`
/// JSON (extended with per-series hits) as the sweeps.
///
/// The sweep engine replaces the per-figure bench binaries' duplicated
/// logic: any list of registered scheduler names races over a message-size
/// ladder on any grid, through any registered collective backend —
/// `--backend=plogp` (analytic model) or `--backend=sim` (discrete-event
/// simulator) replace the old predicted/measured mode fork, whose
/// spellings survive as backend aliases — optionally sharded across
/// processes.  Everything lives in the library — the tool is a thin
/// `main` — so argument parsing, shard partitioning, merging and the
/// baseline gate are unit-testable.
namespace gridcast::exp {

/// What to race.  `sched_names` are scheduler-registry names (canonical or
/// alias); empty `sizes` means `default_size_ladder()`; `backend` is a
/// backend-registry name ("plogp"/"sim", or the legacy "predicted"/
/// "measured" aliases).
struct RaceSpec {
  std::vector<std::string> sched_names;
  std::vector<Bytes> sizes;
  ClusterId root = 0;
  std::string backend = "plogp";
  /// Which collective the sweep races (`--verb`): broadcast by default,
  /// scatter (sizes = per-rank blocks) or all-to-all (sizes = per-rank-
  /// pair blocks).  A backend that does not support the verb fails with a
  /// one-line diagnostic.
  collective::Verb verb = collective::Verb::kBcast;
  sched::CompletionModel completion = sched::CompletionModel::kEager;
  double jitter = 0.05;     ///< sim backend only
  std::uint64_t seed = 1;   ///< non-deterministic backends only
  ShardSpec shard = {};
  /// Also time each heuristic's scheduling cost (wall_time_s, the paper's
  /// Section 7 complexity concern).  Unsharded runs only: wall time is
  /// machine-dependent and would break shard-merge byte-identity.
  bool wall = false;
  /// Also time each competitor's *per-selection* cost at every ladder
  /// point (`micro_scheduling_cost_s`, min over timing passes) — the
  /// budget that keeps composite selectors ("auto") honest.  Unsharded
  /// runs only, like `wall`.
  bool sched_cost = false;
};

/// Resolve registry names into Scheduler handles; an unknown name throws
/// InvalidInput listing every registered scheduler.
[[nodiscard]] std::vector<sched::Scheduler> resolve_competitors(
    const std::vector<std::string>& names, sched::HeuristicOptions opts);

/// Race `spec` over the cache's grid through the backend `spec.backend`
/// names.  Only cells owned by `spec.shard` are computed (the rest
/// serialise as null); `grid_name` is recorded in the report so merges and
/// baseline comparisons can refuse mismatched inputs.  Schedulers gated
/// out by `can_schedule` get no series; their names are appended to
/// `skipped` when given.
[[nodiscard]] io::BenchReport run_race_sweep(
    InstanceCache& cache, const std::string& grid_name, const RaceSpec& spec,
    ThreadPool& pool, std::vector<std::string>* skipped = nullptr);

/// Recombine one report per shard (any order) into the report an
/// unsharded run would have produced — byte-identical once serialised.
/// Throws InvalidInput on mismatched metadata, duplicate/missing shards,
/// or cells covered by zero or multiple shards.
[[nodiscard]] io::BenchReport merge_race_shards(
    const std::vector<io::BenchReport>& shards);

// ------------------------------------------------------------------------
// Monte-Carlo race mode (`gridcast_race --race`, the Figs. 1-4 experiment)
// ------------------------------------------------------------------------

/// The Figs. 1-4 Monte-Carlo race: per cluster count (a *parameter point*),
/// draw `iterations` Table 2 instances, race every competitor on each draw
/// through a collective backend, and report the mean completion plus the
/// hit counts (iterations where a series matched the global minimum; ties
/// credit every achiever, so counts can sum past `iterations` — Fig. 4's
/// convention).
///
/// Instance-only backends ("plogp") time the sampled instances directly —
/// the paper's configuration.  Grid-executing backends ("sim") need
/// `realise = true`: each draw is realised as a synthetic grid
/// (exp/realise.hpp) and the collective is executed message-level on it.
/// Without the flag such a backend is a designed error — the
/// `instance_only()` mismatch — because executing a draw is a different
/// experiment than scoring it, and the switch should be explicit.
struct RaceGridSpec {
  std::vector<std::string> sched_names;
  /// Parameter points; empty = `fig1_cluster_ladder()`.  Each >= 2, no
  /// duplicates (they would make shard merging ambiguous).
  std::vector<std::size_t> cluster_counts;
  std::uint64_t iterations = 1000;
  /// Iterations per shard cell.  The (point x block) partition is the unit
  /// of sharding *and* of mean accumulation — per-block sums fold in block
  /// order, so any shard count (and any thread count) reproduces the
  /// unsharded report byte for byte.  Must agree across shards.
  std::uint64_t block_iters = 256;
  std::uint64_t seed = 42;
  ClusterId root = 0;
  std::string backend = "plogp";
  sched::CompletionModel completion = sched::CompletionModel::kEager;
  double jitter = 0.05;  ///< executing backends only
  bool realise = false;  ///< execute draws on synthetic grid realisations
  ParamRanges ranges = ParamRanges::paper();
  /// Relative tie tolerance for hit counting (montecarlo.hpp semantics).
  double hit_epsilon = 1e-9;
  ShardSpec shard = {};
};

/// The paper's cluster-count ladders: Fig. 1 races 2-10 clusters, Figs.
/// 2-4 race 5-50 in steps of 5.
[[nodiscard]] std::vector<std::size_t> fig1_cluster_ladder();
[[nodiscard]] std::vector<std::size_t> fig2_cluster_ladder();

/// Deterministic RNG stream id for one parameter point's instance draws.
/// Mixed from the race seed and the *cluster count* only — never from the
/// competitor set, the point's position in the ladder, or the shard
/// layout — so draws are invariant under competitor growth and ladder
/// reshuffling (the PR 2 seed lesson, applied to races).
[[nodiscard]] std::uint64_t race_instance_seed(std::uint64_t seed,
                                               std::size_t clusters);

/// Deterministic backend seed for one (point, iteration, series) execution
/// — FNV-1a over the series name, so adding a competitor cannot reseed the
/// series that were already there.  Deterministic backends ignore it.
[[nodiscard]] std::uint64_t race_exec_seed(std::uint64_t seed,
                                           std::size_t clusters,
                                           std::uint64_t iteration,
                                           std::string_view series_name);

/// Run the race.  Series are the resolved competitors in order, then the
/// synthetic "GlobalMin" row (mean of the per-iteration minima, Figs. 1-2's
/// bottom curve; it has no hit counts).  Unsharded runs return the final
/// report; sharded runs return the shard form (per-block partials) that
/// `merge_race_grid_shards` recombines.  Throws InvalidInput for unknown
/// schedulers, a `can_schedule` refusal (a race cannot skip entries without
/// skewing the hit denominator), an instance-only mismatch (see
/// `RaceGridSpec::realise`), or a backend without broadcast support.
[[nodiscard]] io::BenchReport run_race_grid(const RaceGridSpec& spec,
                                            ThreadPool& pool);

/// Recombine Monte-Carlo race shards (any order) into the final report an
/// unsharded run would have produced — byte-identical once serialised.
/// Throws InvalidInput on mismatched metadata, duplicate/missing shards,
/// or (point, block) cells covered by zero or multiple shards.
[[nodiscard]] io::BenchReport merge_race_grid_shards(
    const std::vector<io::BenchReport>& shards);

/// One parsed `gridcast_race` invocation.
struct RaceCli {
  enum class Action : std::uint8_t { kRun, kRace, kMerge, kCheck,
                                     kListBackends };
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

/// Parse argv (without the program name).  Throws InvalidInput on unknown
/// flags, malformed values, or inconsistent combinations (e.g. `--wall`
/// with `--shards`, or sweep-only flags like `--sizes`/`--grid` with
/// `--race`); the message is ready for stderr.
[[nodiscard]] RaceCli parse_race_cli(const std::vector<std::string>& args);

/// Parse a `--clusters` list: comma-separated tokens, each a count ("8"),
/// an inclusive range ("5-50", step 1) or a stepped range ("5-50:5").
[[nodiscard]] std::vector<std::size_t> parse_cluster_list(
    const std::string& value);

/// Parse a size token: plain bytes ("262144") or a K/KiB/M/MiB-suffixed
/// decimal ("256K", "4.25MiB", case-insensitive).
[[nodiscard]] Bytes parse_size(const std::string& token);

/// Execute a parsed invocation end to end (grid loading, racing, merging,
/// or the baseline gate).  Reports go to `out_path` or `out`; diagnostics
/// go to `err`.  Returns the process exit code (non-zero when the check
/// action finds regressions).
int run_race_cli(const RaceCli& cli, std::ostream& out, std::ostream& err);

/// CLI usage text.
[[nodiscard]] std::string race_cli_usage();

}  // namespace gridcast::exp
