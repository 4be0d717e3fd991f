#include "exp/race_cli.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "collective/backend.hpp"
#include "exp/realise.hpp"
#include "io/grid_io.hpp"
#include "sched/order_memo.hpp"
#include "sim/network.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::exp {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A --check tolerance.  A negative value (or a zero factor) would switch
/// its gate off, so it must be >= 0 (`zero_ok`, the relative drift bound)
/// or > 0 (the slack factors); the reader already refuses inf and nan.
double parse_tolerance(const std::string& token, const char* what,
                       bool zero_ok) {
  const double v = parse_decimal(token, what);
  if (v < 0.0 || (v == 0.0 && !zero_ok))
    throw InvalidInput(std::string(what) + " must be " +
                       (zero_ok ? ">= 0" : "> 0") + ", got '" + token + "'");
  return v;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Seconds per call of `f`: the minimum of ten timed calls after one
/// warm-up — the standard robust estimator, so the number is comparable
/// run over run and across CI machines.
template <typename F>
double min_seconds(F f) {
  constexpr int kPasses = 10;
  double best = std::numeric_limits<double>::infinity();
  for (int pass = -1; pass < kPasses; ++pass) {  // -1 = warm-up
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (pass >= 0) best = std::min(best, dt);
  }
  return best;
}

/// `--wall` and `--sched-cost` time each competitor on this machine, so a
/// shard's timings would break shard-merge byte-identity.
void refuse_sharded_timing(const RaceSpec& spec) {
  if ((spec.wall || spec.sched_cost) && spec.shard.shards > 1)
    throw InvalidInput(std::string(spec.wall ? "--wall" : "--sched-cost") +
                       " requires an unsharded run (timings are machine-local "
                       "and would break shard-merge byte-identity)");
}

}  // namespace

Bytes parse_size(const std::string& token) {
  const auto too_small = [&] {
    return InvalidInput("size must be at least one byte, got '" + token +
                        "'");
  };
  const std::size_t unit_at = token.find_first_not_of("0123456789.");
  if (unit_at == std::string::npos) {
    // Plain bytes are a count, read exactly (2^53 + 1 stays itself).
    const auto b = parse_count<Bytes>(token, "size");
    if (b == 0) throw too_small();
    return b;
  }
  const std::string unit = lower(token.substr(unit_at));
  double scale = 0.0;
  if (unit == "k" || unit == "kib")
    scale = 1024.0;
  else if (unit == "m" || unit == "mib")
    scale = 1048576.0;
  else
    throw InvalidInput("size '" + token + "': unknown unit '" + unit +
                       "' (use K/KiB/M/MiB)");
  const double bytes = parse_decimal(token.substr(0, unit_at), "size") * scale;
  // A sub-byte size like "0.5K" would truncate to 0 and only die much
  // later on a message-size assertion; the upper bound keeps the cast to
  // Bytes defined.
  if (bytes < 1.0) throw too_small();
  if (bytes >= 0x1p64)
    throw InvalidInput("size must be below 2^64 bytes, got '" + token + "'");
  return static_cast<Bytes>(bytes);
}

std::vector<sched::Scheduler> resolve_competitors(
    const std::vector<std::string>& names, sched::HeuristicOptions opts) {
  std::vector<sched::Scheduler> out;
  out.reserve(names.size());
  for (const auto& name : names)
    out.emplace_back(name, opts);  // throws, listing registered names
  // Duplicate series would make merge coverage and the baseline gate
  // ambiguous; reject them by canonical name so `ecef-lat,ECEF-LAT` is
  // caught too.
  std::set<std::string_view> seen;
  for (const auto& c : out)
    if (!seen.insert(c.name()).second)
      throw InvalidInput("scheduler '" + std::string(c.name()) +
                         "' selected more than once");
  return out;
}

io::BenchReport run_race_sweep(InstanceCache& cache,
                               const std::string& grid_name,
                               const RaceSpec& spec, ThreadPool& pool,
                               std::vector<std::string>* skipped) {
  if (spec.sched_names.empty())
    throw InvalidInput("no schedulers selected (use --sched=a,b,c or all)");
  refuse_sharded_timing(spec);
  spec.shard.validate();

  sched::HeuristicOptions opts;
  opts.completion = spec.completion;
  const std::vector<sched::Scheduler> comps =
      resolve_competitors(spec.sched_names, opts);
  const std::vector<Bytes> sizes =
      spec.sizes.empty() ? default_size_ladder() : spec.sizes;

  collective::BackendOptions bopts;
  bopts.grid = &cache.grid();
  bopts.jitter = {spec.jitter};
  const collective::BackendPtr backend =
      collective::backend_registry().make(spec.backend, bopts);

  const SweepResult sweep =
      backend_sweep(*backend, cache, spec.root, comps, sizes, spec.seed, pool,
                    spec.shard, spec.verb);
  if (skipped != nullptr)
    skipped->insert(skipped->end(), sweep.skipped.begin(),
                    sweep.skipped.end());

  io::BenchReport r;
  r.bench = "race";
  r.grid = grid_name;
  r.mode = backend->mode_label();
  r.verb = collective::verb_name(spec.verb);
  r.root = spec.root;
  r.seed = spec.seed;
  r.jitter = spec.jitter;
  r.shards = spec.shard.shards;
  r.shard = spec.shard.shard;
  r.sizes = sweep.sizes;
  r.series.reserve(sweep.series.size());
  for (const auto& s : sweep.series) {
    io::BenchSeries row;
    row.name = s.name;
    row.makespan_s = s.completion;
    r.series.push_back(std::move(row));
  }

  if (spec.wall || spec.sched_cost) {
    // Scheduling cost only (the paper's Section 7 complexity concern):
    // instances come pre-derived from the cache and the loops run
    // single-threaded.  Series are matched by name: the backend's baseline
    // row (which schedules nothing) and any gated-out competitor have no
    // timings.
    for (const Bytes m : sizes) (void)cache.get(spec.root, m);
    for (const auto& comp : comps) {
      const auto series = std::find_if(
          r.series.begin(), r.series.end(),
          [&](const io::BenchSeries& s) { return s.name == comp.name(); });
      if (series == r.series.end()) continue;  // gated out
      if (spec.wall)
        series->wall_time_s = min_seconds([&] {
          for (const Bytes m : sizes)
            (void)comp.makespan(*cache.get(spec.root, m));
        });
      if (!spec.sched_cost) continue;
      // Per-selection cost at every ladder point: how long one `order()`
      // call takes.  This is the budget that keeps composite selectors
      // ("auto") honest — their selection walks the whole registry, and
      // the baseline gate bounds that walk one-sided via
      // `micro_scheduling_cost_s`.  Cells a competitor never scheduled (it
      // was gated out at that point) stay NaN and the gate skips them.
      series->micro_scheduling_cost_s.assign(sizes.size(), kNaN);
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const sched::SchedulerRuntimeInfo info(
            *cache.get(spec.root, sizes[i]), sizes[i],
            comp.options().completion);
        if (comp.entry().can_schedule(info))
          series->micro_scheduling_cost_s[i] =
              min_seconds([&] { (void)comp.order(info); });
      }
    }
  }
  return r;
}

// --------------------------------------------------------------------------
// Monte-Carlo race mode (Figs. 1-4)
// --------------------------------------------------------------------------

std::vector<std::size_t> fig1_cluster_ladder() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 2; n <= 10; ++n) counts.push_back(n);
  return counts;
}

std::vector<std::size_t> fig2_cluster_ladder() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 5; n <= 50; n += 5) counts.push_back(n);
  return counts;
}

namespace {

/// Reduce a shard-form race report whose every (point, block) cell is
/// filled to its final form: per point, the block partials summed in block
/// order, divided by the iteration count for the mean (hits stay counts).
/// The unsharded run and the shard merge both end here, so a merged race
/// equals the unsharded one by construction.
void fold_race_blocks(io::BenchReport& r) {
  const std::size_t n_points = r.sizes.size();
  for (auto& series : r.series) {
    const bool tracked = !series.block_hits.empty();
    series.makespan_s.assign(n_points, 0.0);
    if (tracked) series.hits.assign(n_points, 0.0);
    for (std::size_t p = 0; p < n_points; ++p) {
      double total = 0.0;
      for (const double sum : series.block_sum_s[p]) total += sum;
      series.makespan_s[p] = total / static_cast<double>(r.iterations);
      if (tracked) {
        double hits = 0.0;
        for (const double h : series.block_hits[p]) hits += h;
        series.hits[p] = hits;
      }
    }
    series.block_sum_s.clear();
    series.block_hits.clear();
  }
  r.block_iters = 0;
}

/// The paper's seven heuristics — the race default when no --sched list is
/// given (`--sched=all` would pull in shape-gated and ablation entries,
/// which a hit-rate race must refuse, not skip).
std::vector<std::string> paper_sched_names() {
  std::vector<std::string> names;
  for (const auto& c : sched::paper_heuristics())
    names.emplace_back(c.name());
  return names;
}

}  // namespace

std::uint64_t race_instance_seed(std::uint64_t seed, std::size_t clusters) {
  // Domain-tagged so a race never shares streams with the sweep cells.
  constexpr std::uint64_t kRaceDomain = 0x52414345ULL;  // "RACE"
  return mix64(seed + kRaceDomain +
               0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(clusters)));
}

std::uint64_t race_exec_seed(std::uint64_t seed, std::size_t clusters,
                             std::uint64_t iteration,
                             std::string_view series_name) {
  std::uint64_t z = seed + name_hash(series_name);
  z += 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(clusters) + 1);
  z += 0xd1b54a32d192ed03ULL * (iteration + 1);
  return mix64(z);
}

io::BenchReport run_race_grid(const RaceGridSpec& spec, ThreadPool& pool) {
  if (spec.sched_names.empty())
    throw InvalidInput("no schedulers selected (use --sched=a,b,c)");
  if (spec.iterations == 0)
    throw InvalidInput("--iters must be >= 1");
  if (spec.block_iters == 0)
    throw InvalidInput("race block size must be >= 1");
  spec.shard.validate();
  spec.ranges.validate();

  const std::vector<std::size_t> counts =
      spec.cluster_counts.empty() ? fig1_cluster_ladder() : spec.cluster_counts;
  {
    std::set<std::size_t> seen;
    for (const std::size_t n : counts) {
      if (n < 2)
        throw InvalidInput("--clusters: a race needs at least 2 clusters, got " +
                           std::to_string(n));
      if (!seen.insert(n).second)
        throw InvalidInput("--clusters: count " + std::to_string(n) +
                           " listed more than once");
      if (spec.root >= n)
        throw InvalidInput("--root=" + std::to_string(spec.root) +
                           " is out of range for a " + std::to_string(n) +
                           "-cluster point");
    }
  }

  const std::vector<sched::Scheduler> comps =
      resolve_competitors(spec.sched_names, spec.options);

  auto& registry = collective::backend_registry();
  const std::string backend_name = registry.resolve(spec.backend);

  // Probe the backend's capabilities against a throwaway realised grid —
  // executing backends refuse construction without one, and we cannot know
  // a backend is instance-only before constructing it.
  const sched::Instance probe_inst(0, SquareMatrix<Time>(2, 0.0),
                                   SquareMatrix<Time>(2, 0.0),
                                   std::vector<Time>(2, 0.0));
  const topology::Grid probe_grid = realise_instance(probe_inst);
  collective::BackendOptions bopts;
  bopts.grid = &probe_grid;
  bopts.jitter = {spec.jitter};
  const collective::BackendPtr probe = registry.make(backend_name, bopts);
  if (!probe->supports(collective::Verb::kBcast))
    throw InvalidInput("backend '" + backend_name +
                       "' does not implement broadcast");
  if (!probe->instance_only() && !spec.realise)
    throw InvalidInput(
        "backend '" + backend_name +
        "' executes on a concrete grid and cannot time the race's sampled "
        "Table 2 instances (instance_only() mismatch); pass --realise to "
        "execute every draw on a synthetic grid realisation");

  // The shared backend of the sampled path.  Constructed without a grid:
  // instance-only backends ignore BackendOptions entirely, and holding the
  // probe grid's address past this scope would dangle.
  collective::BackendPtr shared_backend;
  if (!spec.realise)
    shared_backend = registry.make(backend_name, collective::BackendOptions{});

  const std::size_t n_points = counts.size();
  const std::size_t n_blocks = static_cast<std::size_t>(
      (spec.iterations + spec.block_iters - 1) / spec.block_iters);
  const std::size_t n_comps = comps.size();
  const std::size_t n_series = n_comps + 1;  // + GlobalMin

  io::BenchReport r;
  r.bench = "montecarlo";
  r.grid = spec.realise ? "table2_realised" : "table2_sampled";
  r.mode = probe->mode_label();
  r.root = spec.root;
  r.seed = spec.seed;
  r.jitter = spec.jitter;
  r.iterations = spec.iterations;
  r.block_iters = spec.block_iters;
  r.shards = spec.shard.shards;
  r.shard = spec.shard.shard;
  r.sizes.assign(counts.begin(), counts.end());
  r.series.resize(n_series);
  for (std::size_t s = 0; s < n_comps; ++s) r.series[s].name = comps[s].name();
  r.series[n_comps].name = "GlobalMin";
  for (std::size_t s = 0; s < n_series; ++s) {
    r.series[s].block_sum_s.assign(n_points,
                                   std::vector<double>(n_blocks, kNaN));
    if (s < n_comps)
      r.series[s].block_hits.assign(n_points,
                                    std::vector<double>(n_blocks, kNaN));
  }

  // One task per (point, block) cell: all competitors race the cell's
  // draws together (hits need the per-iteration minimum across the whole
  // field), sums accumulate in iteration order within the block, and the
  // block grid is fixed by (iterations, block_iters) alone — so any shard
  // count, thread count or competitor superset reproduces these numbers
  // bit for bit.
  pool.parallel_for(
      n_points * n_blocks, [&](std::size_t lo, std::size_t hi) {
        std::vector<Time> mk(n_comps);
        sched::Instance drawn;  // storage reused across iterations
        // One draw's orders: every competitor, and every candidate or
        // delegate a composite asks for, is derived once per draw.
        sched::OrderMemo memo;
        for (std::size_t cell = lo; cell < hi; ++cell) {
          if (!spec.shard.owns(cell)) continue;
          const std::size_t p = cell / n_blocks;
          const std::size_t b = cell % n_blocks;
          const std::size_t n = counts[p];
          const std::uint64_t it_lo = b * spec.block_iters;
          const std::uint64_t it_hi =
              std::min<std::uint64_t>(spec.iterations,
                                      it_lo + spec.block_iters);

          std::vector<double> sums(n_series, 0.0);
          std::vector<std::uint64_t> hits(n_comps, 0);
          for (std::uint64_t it = it_lo; it < it_hi; ++it) {
            Rng rng = Rng::stream(race_instance_seed(spec.seed, n), it);
            sample_instance_into(spec.ranges, n, rng, spec.root, drawn);

            // The realised path executes on a per-draw synthetic grid; the
            // heuristics then see the instance *derived* from that grid —
            // bit-identical to the draw by realise_instance's contract,
            // but derived, so the whole pipeline is the executing one.
            std::optional<topology::Grid> grid;
            std::optional<sched::Instance> derived;
            collective::BackendPtr local;
            const collective::Backend* backend = shared_backend.get();
            const sched::Instance* inst = &drawn;
            if (spec.realise) {
              grid.emplace(realise_instance(drawn));
              derived.emplace(
                  sched::Instance::from_grid(*grid, spec.root, MiB(1)));
              collective::BackendOptions cell_opts;
              cell_opts.grid = &*grid;
              cell_opts.jitter = {spec.jitter};
              local = registry.make(backend_name, cell_opts);
              backend = local.get();
              inst = &*derived;
            }

            // Every competitor was resolved with `spec.options`, so one
            // info (and one O(n²) lower-bound walk) serves the whole field.
            memo.clear();
            const sched::SchedulerRuntimeInfo info(
                *inst, spec.realise ? MiB(1) : Bytes{0},
                spec.options.completion, &memo);
            Time best = std::numeric_limits<Time>::infinity();
            for (std::size_t s = 0; s < n_comps; ++s) {
              // A race cannot skip a refusing entry per iteration without
              // skewing the hit-rate denominator, so a refusal is a
              // designed error.
              if (!comps[s].entry().can_schedule(info))
                throw InvalidInput(
                    "scheduler '" + std::string(comps[s].name()) +
                    "' refused a sampled instance (" + std::to_string(n) +
                    " clusters, iteration " + std::to_string(it) +
                    "): the Monte-Carlo race needs entries that accept "
                    "every draw; shape-gated entries belong in grid "
                    "sweeps, which skip them");
              mk[s] = backend
                          ->bcast(comps[s].entry(), info,
                                  race_exec_seed(spec.seed, n, it,
                                                 comps[s].name()))
                          .completion;
              sums[s] += mk[s];
              best = std::min(best, mk[s]);
            }
            sums[n_comps] += best;
            const Time cutoff = best * (1.0 + spec.hit_epsilon);
            for (std::size_t s = 0; s < n_comps; ++s)
              if (mk[s] <= cutoff) ++hits[s];
          }

          for (std::size_t s = 0; s < n_series; ++s)
            r.series[s].block_sum_s[p][b] = sums[s];
          for (std::size_t s = 0; s < n_comps; ++s)
            r.series[s].block_hits[p][b] =
                static_cast<double>(hits[s]);
        }
      });

  // Unsharded runs reduce to the final form directly, through the fold
  // merge_race_shards ends in.
  if (spec.shard.shards == 1) fold_race_blocks(r);
  return r;
}

namespace {

/// The shard-partitioned cells of one series at axis point `p`: a sweep's
/// value cell, or a Monte-Carlo shard's block sums and hit counts.
template <typename Series>
auto partitioned_rows(Series& s, std::size_t p) {
  using Row = std::span<
      std::conditional_t<std::is_const_v<Series>, const double, double>>;
  if (s.block_sum_s.empty())
    return std::array<Row, 2>{Row(&s.makespan_s[p], 1), Row()};
  return std::array<Row, 2>{
      Row(s.block_sum_s[p]),
      s.block_hits.empty() ? Row() : Row(s.block_hits[p])};
}

}  // namespace

io::BenchReport merge_race_shards(const std::vector<io::BenchReport>& shards) {
  if (shards.empty()) throw InvalidInput("merge: no shard reports given");
  // Parsed shards are well-formed already; a programmatic caller's short
  // row would otherwise be read out of bounds below.
  for (const auto& s : shards)
    if (const std::string v = io::bench_violation(s); !v.empty())
      throw InvalidInput("merge: shard " + std::to_string(s.shard) + ": " + v);
  const io::BenchReport& ref = shards.front();
  if (!io::shardable(ref))
    throw InvalidInput("merge: " + ref.bench + " reports cannot be sharded");
  const std::size_t n = ref.shards;
  if (shards.size() != n)
    throw InvalidInput("merge: report declares " + std::to_string(n) +
                       " shards but " + std::to_string(shards.size()) +
                       " files were given");

  std::set<std::size_t> indices;
  for (const auto& s : shards) {
    const std::string shard = "merge: shard " + std::to_string(s.shard);
    // The rule compare_bench applies: shards of one run share every
    // header key but the shard coordinates.
    if (const std::string m = io::run_mismatch(ref, s); !m.empty())
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " is not a shard of the run of shard " +
                         std::to_string(ref.shard) + " (" + m + ")");
    if (s.shards != n)
      throw InvalidInput(shard + " declares a different shard count");
    if (!indices.insert(s.shard).second)
      throw InvalidInput(shard + " appears twice");
    if (s.series.size() != ref.series.size())
      throw InvalidInput(shard + " has a different series count");
    for (std::size_t i = 0; i < s.series.size(); ++i)
      if (s.series[i].name != ref.series[i].name ||
          s.series[i].block_hits.empty() != ref.series[i].block_hits.empty())
        throw InvalidInput(shard + " disagrees with shard " +
                           std::to_string(ref.shard) + " on series " +
                           std::to_string(i) + " ('" + s.series[i].name + "')");
  }

  // Gather every cell from its owning shard.  A sweep partitions (size x
  // series) cells; a Monte-Carlo race partitions (point x block) partials
  // of every series, which then fold exactly as an unsharded run does.
  const bool blocks = ref.shard_form();
  const std::size_t n_series = ref.series.size();
  io::BenchReport out = ref;
  for (std::size_t s = 0; s < n_series; ++s) {
    for (std::size_t p = 0; p < ref.sizes.size(); ++p) {
      const auto rows = partitioned_rows(out.series[s], p);
      for (std::size_t c = 0; c < rows.size(); ++c) {
        for (std::size_t b = 0; b < rows[c].size(); ++b) {
          const std::size_t owner =
              (blocks ? p * rows[c].size() + b : p * n_series + s) % n;
          const auto cell = [&] {
            return "merge: cell (" + io::axis_point(ref, p) + ", series '" +
                   ref.series[s].name + "'" +
                   (blocks ? ", block " + std::to_string(b) : "") + ")";
          };
          double value = kNaN;
          for (const auto& shard : shards) {
            const double v = partitioned_rows(shard.series[s], p)[c][b];
            if (shard.shard == owner) {
              value = v;
            } else if (!std::isnan(v)) {
              throw InvalidInput(cell() + " computed by shard " +
                                 std::to_string(shard.shard) +
                                 " but owned by shard " +
                                 std::to_string(owner));
            }
          }
          if (std::isnan(value))
            throw InvalidInput(cell() + " was never computed");
          rows[c][b] = value;
        }
      }
    }
  }
  if (blocks) fold_race_blocks(out);
  out.shards = 1;
  out.shard = 0;
  // Sharded runs never time scheduling (wall and selection cost are
  // machine-local); only a trivial single-shard merge can carry them
  // through.
  if (n > 1) {
    for (auto& s : out.series) {
      s.wall_time_s = kNaN;
      s.micro_scheduling_cost_s.clear();
    }
  }
  return out;
}

std::vector<std::size_t> parse_cluster_list(const std::string& value) {
  std::vector<std::size_t> counts;
  for (const auto& tok : split_csv(value)) {
    if (tok.empty())
      throw InvalidInput("--clusters: empty token in list '" + value + "'");
    const std::size_t dash = tok.find('-');
    if (dash == std::string::npos) {
      counts.push_back(parse_count<std::size_t>(tok, "--clusters"));
      continue;
    }
    const std::size_t colon = tok.find(':', dash);
    const std::uint64_t lo = parse_count(tok.substr(0, dash), "--clusters");
    const std::uint64_t hi = parse_count(
        tok.substr(dash + 1,
                   colon == std::string::npos ? std::string::npos
                                              : colon - dash - 1),
        "--clusters");
    const std::uint64_t step =
        colon == std::string::npos
            ? 1
            : parse_count(tok.substr(colon + 1), "--clusters");
    if (step == 0)
      throw InvalidInput("--clusters: range '" + tok + "' has step 0");
    if (hi < lo)
      throw InvalidInput("--clusters: range '" + tok + "' is descending");
    // Iterate without `n += step` overflow: a range ending near 2^64
    // would otherwise wrap and loop forever.  The point cap bounds both
    // memory and the loop itself.
    for (std::uint64_t n = lo;; n += step) {
      if (counts.size() >= 100000)
        throw InvalidInput("--clusters: list '" + value +
                           "' expands to more than 100000 parameter points");
      counts.push_back(static_cast<std::size_t>(n));
      if (hi - n < step) break;
    }
  }
  return counts;
}

RaceCli parse_race_cli(const std::vector<std::string>& args) {
  RaceCli cli;
  std::vector<std::string> positionals;
  bool shards_seen = false;
  std::size_t shard_pair_count = 0;  // from a --shard=k/N form
  bool race_seen = false;
  bool sizes_seen = false;
  bool grid_seen = false;
  bool iters_seen = false;
  bool verb_seen = false;
  bool completion_seen = false;

  for (const auto& arg : args) {
    const std::string key = arg.substr(0, arg.find('='));
    if (arg == "--merge") {
      cli.action = RaceCli::Action::kMerge;
    } else if (arg == "--race") {
      race_seen = true;
    } else if (arg == "--realise" || arg == "--realize") {
      cli.race.realise = true;
    } else if (key == "--clusters") {
      cli.race.cluster_counts = parse_cluster_list(value_of(arg));
    } else if (key == "--iters") {
      iters_seen = true;
      cli.race.iterations = parse_count(value_of(arg), "--iters");
      if (cli.race.iterations == 0)
        throw InvalidInput("--iters must be >= 1");
    } else if (arg == "--wall") {
      cli.spec.wall = true;
    } else if (arg == "--sched-cost") {
      cli.spec.sched_cost = true;
    } else if (key == "--check") {
      cli.action = RaceCli::Action::kCheck;
      cli.check_path = value_of(arg);
    } else if (key == "--baseline") {
      cli.baseline_path = value_of(arg);
    } else if (key == "--rtol") {
      cli.tolerances.makespan_rtol =
          parse_tolerance(value_of(arg), "--rtol", /*zero_ok=*/true);
    } else if (key == "--wall-tol") {
      cli.tolerances.wall_factor =
          parse_tolerance(value_of(arg), "--wall-tol", /*zero_ok=*/false);
    } else if (key == "--throughput-tol") {
      cli.tolerances.throughput_factor = parse_tolerance(
          value_of(arg), "--throughput-tol", /*zero_ok=*/false);
    } else if (key == "--sched") {
      add_sched_names(value_of(arg), cli.spec.sched_names);
    } else if (key == "--sizes") {
      sizes_seen = true;
      const std::string v = value_of(arg);
      if (lower(v) == "default") {
        cli.spec.sizes.clear();
      } else {
        for (const auto& tok : split_csv(v))
          cli.spec.sizes.push_back(parse_size(tok));
      }
    } else if (key == "--verb") {
      // to_verb throws the shared one-line "unknown verb" diagnostic.
      verb_seen = true;
      cli.spec.verb = collective::to_verb(value_of(arg));
    } else if (key == "--grid") {
      grid_seen = true;
      cli.grid_arg = value_of(arg);
    } else if (key == "--root") {
      cli.spec.root = parse_count<ClusterId>(value_of(arg), "--root");
    } else if (key == "--backend") {
      // resolve() throws at parse time for typos, listing what is
      // registered, and stores the canonical name ("measured" -> "sim").
      cli.spec.backend = collective::backend_registry().resolve(value_of(arg));
    } else if (arg == "--list-backends") {
      cli.action = RaceCli::Action::kListBackends;
    } else if (key == "--completion") {
      completion_seen = true;
      cli.spec.completion = parse_completion(value_of(arg));
    } else if (key == "--jitter") {
      const std::string v = value_of(arg);
      cli.spec.jitter = parse_decimal(v, "--jitter");
      if (!sim::JitterConfig{cli.spec.jitter}.valid()) {
        std::ostringstream msg;
        msg << "--jitter must be in [0, " << sim::JitterConfig::kMaxFrac
            << "), got '" << v << "'";
        throw InvalidInput(msg.str());
      }
    } else if (key == "--seed") {
      cli.spec.seed = parse_count(value_of(arg), "--seed");
    } else if (key == "--threads") {
      cli.threads = parse_count<std::size_t>(value_of(arg), "--threads");
    } else if (key == "--shards") {
      cli.spec.shard.shards =
          parse_count<std::size_t>(value_of(arg), "--shards");
      shards_seen = true;
    } else if (key == "--shard") {
      // Accept `k` or the self-describing `k/N` form.
      const std::string v = value_of(arg);
      const std::size_t slash = v.find('/');
      cli.spec.shard.shard =
          parse_count<std::size_t>(v.substr(0, slash), "--shard");
      if (slash != std::string::npos) {
        shard_pair_count =
            parse_count<std::size_t>(v.substr(slash + 1), "--shard");
        // 0 is the "no k/N form seen" sentinel below; reject it here
        // instead of silently degrading to an unsharded run.
        if (shard_pair_count == 0)
          throw InvalidInput("--shard=k/N: shard count N must be >= 1");
      }
    } else if (key == "--out") {
      cli.out_path = value_of(arg);
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      throw InvalidInput("unknown option '" + arg + "' (see --help)");
    } else {
      positionals.push_back(arg);
    }
  }

  // Only --merge takes positional arguments (its output and inputs).
  if (cli.action != RaceCli::Action::kMerge && !positionals.empty())
    throw InvalidInput("unexpected argument '" + positionals.front() +
                       "' (see --help)");
  if (shard_pair_count != 0) {
    if (shards_seen && cli.spec.shard.shards != shard_pair_count)
      throw InvalidInput("--shard=k/N disagrees with --shards");
    cli.spec.shard.shards = shard_pair_count;
  }

  if (race_seen) {
    if (cli.action != RaceCli::Action::kRun)
      throw InvalidInput(
          "--race cannot be combined with --merge/--check/--list-backends");
    if (sizes_seen)
      throw InvalidInput(
          "--sizes applies to sweep mode; the race draws 1 MB Table 2 "
          "instances (use --clusters to choose the parameter points)");
    if (grid_seen)
      throw InvalidInput(
          "--grid applies to sweep mode; the race samples its instances "
          "instead of deriving them from a grid");
    if (verb_seen)
      throw InvalidInput(
          "--verb applies to sweep mode; the Monte-Carlo race broadcasts "
          "by definition");
    if (cli.spec.wall)
      throw InvalidInput("--wall applies to sweep mode only");
    if (cli.spec.sched_cost)
      throw InvalidInput(
          "--sched-cost applies to sweep mode only (selection cost needs a "
          "fixed ladder of instances to time against)");
    cli.action = RaceCli::Action::kRace;
    cli.race.sched_names = cli.spec.sched_names;
    cli.race.seed = cli.spec.seed;
    cli.race.root = cli.spec.root;
    cli.race.backend = cli.spec.backend;
    cli.race.options.completion = cli.spec.completion;
    cli.race.jitter = cli.spec.jitter;
    cli.race.shard = cli.spec.shard;
    cli.race.shard.validate();
    return cli;
  }
  if (completion_seen && cli.spec.verb != collective::Verb::kBcast)
    throw InvalidInput(
        "--completion applies to broadcast sweeps; scatter/alltoall "
        "schedules are derived and timed with the eager model");
  if (!cli.race.cluster_counts.empty())
    throw InvalidInput("--clusters requires --race");
  if (iters_seen) throw InvalidInput("--iters requires --race");
  if (cli.race.realise) throw InvalidInput("--realise requires --race");

  switch (cli.action) {
    case RaceCli::Action::kMerge:
      if (positionals.size() < 2)
        throw InvalidInput(
            "--merge needs an output path and at least one shard file: "
            "--merge out.json a.json b.json ...");
      cli.out_path = positionals.front();
      cli.merge_inputs.assign(positionals.begin() + 1, positionals.end());
      break;
    case RaceCli::Action::kCheck:
      if (cli.baseline_path.empty())
        throw InvalidInput("--check needs --baseline=<baseline.json>");
      break;
    case RaceCli::Action::kRun:
      cli.spec.shard.validate();
      refuse_sharded_timing(cli.spec);
      break;
    case RaceCli::Action::kRace:  // validated and returned above
    case RaceCli::Action::kListBackends:
      break;
  }
  return cli;
}

std::string value_of(const std::string& arg) {
  const std::size_t eq = arg.find('=');
  // A bare `--out` must not fall back to a default, nor `--out=` name the
  // empty path.
  if (eq == std::string::npos || eq + 1 == arg.size()) {
    const std::string flag = arg.substr(0, eq);
    throw InvalidInput("option '" + flag + "' needs a value: " + flag +
                       "=...");
  }
  return arg.substr(eq + 1);
}

void add_sched_names(const std::string& value,
                     std::vector<std::string>& names) {
  if (lower(value) == "all") {
    names.clear();  // empty = every registered entry
    return;
  }
  for (auto& name : split_csv(value)) {
    if (name.empty())
      throw InvalidInput("--sched: empty name in list '" + value + "'");
    names.push_back(std::move(name));
  }
}

sched::CompletionModel parse_completion(const std::string& value) {
  const std::string v = lower(value);
  if (v == "eager") return sched::CompletionModel::kEager;
  if (v == "after-last-send") return sched::CompletionModel::kAfterLastSend;
  throw InvalidInput(
      "--completion must be 'eager' or 'after-last-send', got '" + value +
      "'");
}

topology::Grid load_grid(const std::string& grid_arg,
                         std::string& grid_name) {
  if (lower(grid_arg) == "grid5000") {
    grid_name = "grid5000_testbed";
    return topology::grid5000_testbed();
  }
  std::ifstream in(grid_arg);
  if (!in)
    throw InvalidInput("cannot open grid file '" + grid_arg +
                       "' (use --grid=grid5000 for the built-in testbed)");
  grid_name = grid_arg;
  return io::read_grid(in);
}

namespace {

io::BenchReport read_report_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInput("cannot open '" + path + "'");
  return io::read_bench_json(in);
}

}  // namespace

void write_report(const io::BenchReport& r, const std::string& path,
                  std::ostream& fallback) {
  if (path.empty()) {
    io::write_bench_json(fallback, r);
    return;
  }
  std::ofstream out(path);
  if (!out) throw InvalidInput("cannot open '" + path + "' for writing");
  io::write_bench_json(out, r);
}

int run_race_cli(const RaceCli& cli, std::ostream& out, std::ostream& err) {
  switch (cli.action) {
    case RaceCli::Action::kRun: {
      std::string grid_name;
      const topology::Grid grid = load_grid(cli.grid_arg, grid_name);
      RaceSpec spec = cli.spec;
      if (spec.sched_names.empty())
        spec.sched_names = sched::registry().names();
      InstanceCache cache(grid);
      ThreadPool pool(cli.threads);
      std::vector<std::string> skipped;
      const io::BenchReport report =
          run_race_sweep(cache, grid_name, spec, pool, &skipped);
      write_report(report, cli.out_path, out);
      err << "raced " << report.series.size() << " series x "
          << report.sizes.size() << " sizes (backend " << spec.backend;
      if (spec.verb != collective::Verb::kBcast)
        err << ", verb " << collective::verb_name(spec.verb);
      err << ", " << report.mode << ", shard " << report.shard << "/"
          << report.shards << ", " << cache.misses()
          << " instances derived)";
      if (!cli.out_path.empty()) err << " -> " << cli.out_path;
      err << "\n";
      if (!skipped.empty()) {
        err << "skipped (can_schedule refused this grid):";
        for (const auto& name : skipped) err << " " << name;
        err << "\n";
      }
      return 0;
    }
    case RaceCli::Action::kRace: {
      RaceGridSpec spec = cli.race;
      if (spec.sched_names.empty()) spec.sched_names = paper_sched_names();
      ThreadPool pool(cli.threads);
      const io::BenchReport report = run_race_grid(spec, pool);
      write_report(report, cli.out_path, out);
      err << "raced " << report.series.size() << " series x "
          << report.sizes.size() << " cluster counts (" << report.iterations
          << " iterations/point, backend " << spec.backend << ", "
          << report.mode << (spec.realise ? ", realised grids" : "")
          << ", shard " << report.shard << "/" << report.shards << ")";
      if (!cli.out_path.empty()) err << " -> " << cli.out_path;
      err << "\n";
      return 0;
    }
    case RaceCli::Action::kListBackends: {
      auto& reg = collective::backend_registry();
      for (const auto& name : reg.names()) {
        out << name;
        const auto aliases = reg.aliases_of(name);
        if (!aliases.empty()) {
          out << " (aliases:";
          for (const auto& a : aliases) out << " " << a;
          out << ")";
        }
        out << " - " << reg.description_of(name) << "\n";
      }
      return 0;
    }
    case RaceCli::Action::kMerge: {
      std::vector<io::BenchReport> shards;
      shards.reserve(cli.merge_inputs.size());
      for (const auto& path : cli.merge_inputs)
        shards.push_back(read_report_file(path));
      const io::BenchReport merged = merge_race_shards(shards);
      write_report(merged, cli.out_path, out);
      err << "merged " << shards.size() << " shards -> " << cli.out_path
          << "\n";
      return 0;
    }
    case RaceCli::Action::kCheck: {
      const io::BenchReport baseline = read_report_file(cli.baseline_path);
      const io::BenchReport current = read_report_file(cli.check_path);
      const std::vector<std::string> problems =
          io::compare_bench(baseline, current, cli.tolerances);
      for (const auto& p : problems) err << "REGRESSION: " << p << "\n";
      if (problems.empty()) {
        err << "baseline gate OK: " << current.series.size() << " series x "
            << current.sizes.size() << " points within tolerance of "
            << cli.baseline_path << "\n";
        return 0;
      }
      err << problems.size() << " regression(s) against " << cli.baseline_path
          << "\n";
      return 1;
    }
  }
  return 2;  // unreachable
}

std::string race_cli_usage() {
  return
      "usage:\n"
      "  gridcast_race [--sched=a,b,c|all] [--backend=plogp|sim]\n"
      "                [--verb=bcast|scatter|alltoall]\n"
      "                [--grid=grid5000|<file>] [--root=N]\n"
      "                [--sizes=default|256K,1M,...] [--completion=eager|"
      "after-last-send]\n"
      "                [--jitter=F] [--seed=N] [--threads=N] [--wall]\n"
      "                [--sched-cost]\n"
      "                [--shards=N --shard=k | --shard=k/N] [--out=FILE]\n"
      "  gridcast_race --race [--sched=a,b,c] [--backend=plogp|sim]\n"
      "                [--clusters=2-10|5-50:5|3,7,9] [--iters=N] "
      "[--realise]\n"
      "                [--root=N] [--completion=...] [--jitter=F] "
      "[--seed=N]\n"
      "                [--threads=N] [--shards=N --shard=k] "
      "[--out=FILE]\n"
      "  gridcast_race --merge out.json shard0.json shard1.json ...\n"
      "  gridcast_race --check=current.json --baseline=baseline.json\n"
      "                [--rtol=1e-6] [--wall-tol=10] [--throughput-tol=10]\n"
      "  gridcast_race --list-backends\n"
      "(--race runs the Figs. 1-4 Monte-Carlo races over random Table 2\n"
      " instances; grid-executing backends need --realise.  --verb races\n"
      " the two-level scatter/alltoall instead of the broadcast: sizes are\n"
      " then per-rank (scatter) / per-rank-pair (alltoall) blocks.\n"
      " --sched-cost also times each competitor's per-selection cost\n"
      " (micro_scheduling_cost_s; unsharded sweeps only).)\n";
}

}  // namespace gridcast::exp
