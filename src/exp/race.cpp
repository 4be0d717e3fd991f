#include "exp/race.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <span>
#include <string_view>
#include <type_traits>

#include "collective/backend.hpp"
#include "exp/realise.hpp"
#include "sched/order_memo.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace gridcast::exp {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

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

}  // namespace

void refuse_sharded_timing(const RaceSpec& spec) {
  if ((spec.wall || spec.sched_cost) && spec.shard.shards > 1)
    throw InvalidInput(std::string(spec.wall ? "--wall" : "--sched-cost") +
                       " requires an unsharded run (timings are machine-local "
                       "and would break shard-merge byte-identity)");
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
  // A backend that executes on a concrete grid cannot time a sampled
  // instance, so every draw is realised as one.
  const bool realise = !probe->instance_only();

  // The shared backend of the sampled path.  Constructed without a grid:
  // instance-only backends ignore BackendOptions entirely, and holding the
  // probe grid's address past this scope would dangle.
  collective::BackendPtr shared_backend;
  if (!realise)
    shared_backend = registry.make(backend_name, collective::BackendOptions{});

  const std::size_t n_points = counts.size();
  const std::size_t n_blocks = static_cast<std::size_t>(
      (spec.iterations + spec.block_iters - 1) / spec.block_iters);
  const std::size_t n_comps = comps.size();
  const std::size_t n_series = n_comps + 1;  // + GlobalMin

  io::BenchReport r;
  r.bench = "montecarlo";
  r.grid = realise ? "table2_realised" : "table2_sampled";
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
            if (realise) {
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
                *inst, realise ? MiB(1) : Bytes{0},
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

}  // namespace gridcast::exp
