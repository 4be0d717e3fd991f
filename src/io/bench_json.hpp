#pragma once

#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hpp"

/// Machine-readable benchmark reports (BENCH_sweep.json and friends).
///
/// One grammar serves every producer and consumer: the `gridcast_race`
/// CLI, the bench binaries, shard merging, and the CI regression gate all
/// traffic in a `BenchReport`.  Writing is deterministic — 17 significant
/// digits, fixed key order — so a merged set of shard reports is
/// byte-identical to the equivalent single-process run, and a re-serialised
/// parse is byte-identical to its source.  Scheduler names pass through
/// `json_escape`, so a registered name containing a quote or backslash
/// cannot corrupt the output.
namespace gridcast::io {

/// One strategy's row.  Each vector field is a *channel*: the grammar's
/// channel table (bench_json.cpp) gives its JSON key (the field's name),
/// its shape and how the baseline gate compares it; the kind table gives
/// which channels each report kind's series may carry.  Every series
/// carries exactly one value channel (`makespan_s`, `block_sum_s` or
/// `throughput`) covering the axis.  NaN marks "absent": a sharded sweep
/// leaves foreign cells NaN (written as `null`), and `wall_time_s` is NaN
/// unless the producer timed scheduling.
///
/// Monte-Carlo race reports (`bench == "montecarlo"`) put the per-point
/// *mean* completion in `makespan_s` and the per-point hit counts
/// (iterations where the series matched the global minimum; ties credit
/// every achiever) in `hits`.  Their shard form carries per-(point,
/// iteration-block) partial sums in `block_sum_s` / `block_hits` instead,
/// with NaN marking blocks the shard does not own — merging folds blocks
/// in block order, so the merged means are byte-identical to an unsharded
/// run.
struct BenchSeries {
  std::string name;
  double wall_time_s = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> makespan_s;
  std::vector<double> hits;        ///< per point; empty = not tracked
  std::vector<std::vector<double>> block_sum_s;  ///< [point][block]
  std::vector<std::vector<double>> block_hits;   ///< [point][block]
  std::vector<double> throughput;  ///< items per second at each point
  /// Seconds to *select* one schedule at each ladder point (opt-in), so
  /// composite selectors ("auto") carry their per-selection overhead next
  /// to the makespans they won.
  std::vector<double> micro_scheduling_cost_s;
};

/// A full report: the axis, per-series results, and enough metadata
/// (grid, mode, root, seed/jitter, shard coordinates) to refuse apples-to-
/// oranges comparisons and merges.
///
/// The grammar's kind table (bench_json.cpp) states, for each of the four
/// kinds, the JSON key of its axis — `sizes` for message-size sweeps
/// (`"race"`, Figs. 5/6) and the simulator throughput lane (`"micro"`),
/// `clusters` for Monte-Carlo races (`"montecarlo"`, Figs. 1-4),
/// `requests` for serve replays (`"serve"`) — which header keys it may
/// carry (a verb, shard coordinates, Monte-Carlo seed, `iterations` and
/// `block_iters`) and which channels its series may hold.  The header
/// list there states when the writer emits each optional key; the reader
/// accepts exactly those keys.
struct BenchReport {
  /// "race" (size sweep) | "montecarlo" | "micro" | "serve"
  std::string bench = "race";
  std::string grid;
  std::string mode = "predicted";  ///< "predicted" | "measured"
  /// The collective the sweep raced: "bcast" | "scatter" | "alltoall"
  /// (canonical `collective::verb_name` spellings).
  std::string verb = "bcast";
  ClusterId root = 0;
  std::uint64_t seed = 0;          ///< measured sweeps + all montecarlo runs
  double jitter = 0.0;             ///< measured mode only (else ignored)
  std::uint64_t iterations = 0;    ///< montecarlo only: draws per point
  std::uint64_t block_iters = 0;   ///< montecarlo shard-form only
  std::size_t shards = 1;          ///< total shards (1 = unsharded)
  std::size_t shard = 0;           ///< this report's shard index
  std::vector<Bytes> sizes;        ///< the axis: sizes, clusters or requests
  std::vector<BenchSeries> series;

  [[nodiscard]] const BenchSeries* find_series(std::string_view name) const;

  /// Carries per-block shard partials instead of final per-point values?
  [[nodiscard]] bool shard_form() const noexcept;
  /// Number of iteration blocks per point: ceil(iterations / block_iters).
  /// Requires block_iters > 0.
  [[nodiscard]] std::size_t block_count() const;
};

/// Escape a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters; UTF-8 passes through).
[[nodiscard]] std::string json_escape(std::string_view s);

/// The grammar's one validator: empty when `r` is well-formed, else its
/// first violation as one line.  The reader throws it as InvalidInput,
/// the shard merge checks every shard with it, and the writer checks it
/// under GRIDCAST_DCHECK — guarding the producers (a bench or sweep that
/// assembles a report by hand), so a malformed report fails at the write
/// site on the Debug/sanitizer lanes instead of surfacing as a confusing
/// parse error (or a silently wrong baseline) downstream.
[[nodiscard]] std::string bench_violation(const BenchReport& r);

/// Serialise deterministically (17 significant digits, NaN → null, fixed
/// key order, each optional header key and channel only when present).
void write_bench_json(std::ostream& os, const BenchReport& r);
[[nodiscard]] std::string bench_to_json(const BenchReport& r);

/// Parse a report written by `write_bench_json`.  Strict: malformed JSON,
/// a key the writer would not emit for this report (a misspelt series key
/// included), a missing key, a type mismatch or a `bench_violation`
/// throws a one-line InvalidInput.
[[nodiscard]] BenchReport read_bench_json(std::istream& is);
[[nodiscard]] BenchReport bench_from_json(const std::string& text);

/// Can reports of r's kind be sharded?  Size sweeps and Monte-Carlo races
/// can; micro and serve reports cannot.  Requires a known kind.
[[nodiscard]] bool shardable(const BenchReport& r);

/// Axis point `i` named for a diagnostic ("size 262144", "cluster-count
/// 5", "request-count 240").  Requires a known kind.
[[nodiscard]] std::string axis_point(const BenchReport& r, std::size_t i);

/// Whether `current` is another run than `baseline`: the first header key
/// the writer emits for either report (all but the shard coordinates)
/// whose values differ, or a different axis, as one line; empty when both
/// describe one run.  compare_bench reports it instead of comparing cells,
/// and the shard merge refuses a shard set it separates.
[[nodiscard]] std::string run_mismatch(const BenchReport& baseline,
                                       const BenchReport& current);

/// Tolerances for the CI regression gate; the channel table says which
/// channel each one bounds.  The factors are generous: CI machines are
/// slower and noisier than the one that recorded a baseline.
struct BenchCompareOptions {
  /// Relative tolerance on per-cell makespan drift (the model is
  /// deterministic; this only absorbs cross-platform float noise).
  double makespan_rtol = 1e-6;
  double wall_factor = 10.0;        ///< ceiling: baseline * wall_factor
  double throughput_factor = 10.0;  ///< floor: baseline / throughput_factor
};

/// Compare `current` against `baseline`; returns one human-readable
/// problem per violation (empty = gate passes).  A shard-form (unmerged)
/// input or a `run_mismatch` is the one problem; otherwise each missing or
/// extra series, each gated channel the baseline carries and the current
/// series lacks, and each cell outside its channel's gate: makespan drift
/// past `makespan_rtol`, any hit-count drift (hits are deterministic
/// integers), throughput below baseline / `throughput_factor`, wall time
/// or selection cost above baseline * `wall_factor`.  NaN baseline cells
/// are skipped; a NaN current cell fails.
[[nodiscard]] std::vector<std::string> compare_bench(
    const BenchReport& baseline, const BenchReport& current,
    const BenchCompareOptions& opts = {});

}  // namespace gridcast::io
