#include "exp/race_cli.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <set>
#include <string_view>

#include "collective/backend.hpp"
#include "exp/realise.hpp"
#include "io/grid_io.hpp"
#include "sched/order_memo.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::exp {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t parse_u64(const std::string& token, const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc{} || ptr != token.data() + token.size())
    throw InvalidInput(std::string(what) + ": '" + token +
                       "' is not a non-negative integer");
  return v;
}

/// parse_u64 for a cluster id: a value above its 32-bit range is rejected,
/// not truncated onto another cluster.
ClusterId parse_cluster_id(const std::string& token, const char* what) {
  const std::uint64_t v = parse_u64(token, what);
  if (v > std::numeric_limits<ClusterId>::max())
    throw InvalidInput(std::string(what) + ": '" + token +
                       "' is out of range (max " +
                       std::to_string(std::numeric_limits<ClusterId>::max()) +
                       ")");
  return static_cast<ClusterId>(v);
}

double parse_double(const std::string& token, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || token.empty())
    throw InvalidInput(std::string(what) + ": '" + token +
                       "' is not a number");
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

}  // namespace

Bytes parse_size(const std::string& token) {
  std::size_t suffix = 0;
  while (suffix < token.size() &&
         (std::isdigit(static_cast<unsigned char>(token[suffix])) ||
          token[suffix] == '.'))
    ++suffix;
  const std::string num = token.substr(0, suffix);
  const std::string unit = lower(token.substr(suffix));
  if (num.empty())
    throw InvalidInput("size '" + token + "' has no numeric part");
  const double v = parse_double(num, "size");
  double scale = 1.0;
  if (unit == "k" || unit == "kib")
    scale = 1024.0;
  else if (unit == "m" || unit == "mib")
    scale = 1048576.0;
  else if (!unit.empty())
    throw InvalidInput("size '" + token +
                       "': unknown unit '" + unit + "' (use K/KiB/M/MiB)");
  const double bytes = v * scale;
  // >= 1 (not > 0): a sub-byte size like "0.5" would truncate to 0 and
  // only die much later on a message-size assertion.  The upper bound
  // keeps the cast to Bytes defined.
  if (!(bytes >= 1.0))
    throw InvalidInput("size '" + token + "' must be at least one byte");
  if (bytes > 9.0e18)
    throw InvalidInput("size '" + token + "' is out of range");
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
  using clock = std::chrono::steady_clock;

  if (spec.sched_names.empty())
    throw InvalidInput("no schedulers selected (use --sched=a,b,c or all)");
  if (spec.wall && spec.shard.shards > 1)
    throw InvalidInput(
        "--wall requires an unsharded run (wall time is machine-local and "
        "would break shard-merge byte-identity)");
  if (spec.sched_cost && spec.shard.shards > 1)
    throw InvalidInput(
        "--sched-cost requires an unsharded run (selection cost is "
        "machine-local and would break shard-merge byte-identity)");
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

  if (spec.wall) {
    // Scheduling cost only (the paper's Section 7 complexity concern):
    // instances come pre-derived from the cache, the loop runs
    // single-threaded, and we keep the *minimum* of several passes — the
    // standard robust estimator — so the number is comparable run over
    // run and across CI machines.  Series are matched by name: the
    // backend's baseline row (which schedules nothing) and any gated-out
    // competitor have no wall time.
    constexpr int kWallPasses = 10;
    for (const Bytes m : sizes) (void)cache.get(spec.root, m);
    for (const auto& comp : comps) {
      io::BenchSeries* series = nullptr;
      for (auto& s : r.series)
        if (s.name == comp.name()) series = &s;
      if (series == nullptr) continue;  // gated out
      double best = std::numeric_limits<double>::infinity();
      for (int pass = -1; pass < kWallPasses; ++pass) {  // -1 = warmup
        const auto t0 = clock::now();
        for (const Bytes m : sizes)
          (void)comp.makespan(*cache.get(spec.root, m));
        const double dt =
            std::chrono::duration<double>(clock::now() - t0).count();
        if (pass >= 0) best = std::min(best, dt);
      }
      series->wall_time_s = best;
    }
  }

  if (spec.sched_cost) {
    // Per-selection cost at every ladder point: how long one `order()`
    // call takes, min over passes like the wall loop.  This is the budget
    // that keeps composite selectors ("auto") honest — their selection
    // walks the whole registry, and the baseline gate bounds that walk
    // one-sided via `micro_scheduling_cost_s`.  Cells a competitor never
    // scheduled (it was gated out at that point, or it is the backend's
    // baseline row) stay NaN and the gate skips them.
    constexpr int kCostPasses = 10;
    for (const Bytes m : sizes) (void)cache.get(spec.root, m);
    for (const auto& comp : comps) {
      io::BenchSeries* series = nullptr;
      for (auto& s : r.series)
        if (s.name == comp.name()) series = &s;
      if (series == nullptr) continue;  // gated out
      series->micro_scheduling_cost_s.assign(sizes.size(), kNaN);
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const sched::SchedulerRuntimeInfo info(
            *cache.get(spec.root, sizes[i]), sizes[i],
            comp.options().completion);
        if (!comp.entry().can_schedule(info)) continue;
        double best = std::numeric_limits<double>::infinity();
        for (int pass = -1; pass < kCostPasses; ++pass) {  // -1 = warmup
          const auto t0 = clock::now();
          (void)comp.order(info);
          const double dt =
              std::chrono::duration<double>(clock::now() - t0).count();
          if (pass >= 0) best = std::min(best, dt);
        }
        series->micro_scheduling_cost_s[i] = best;
      }
    }
  }
  return r;
}

io::BenchReport merge_race_shards(const std::vector<io::BenchReport>& shards) {
  if (shards.empty()) throw InvalidInput("merge: no shard reports given");
  const io::BenchReport& ref = shards.front();
  if (ref.is_montecarlo())
    throw InvalidInput(
        "merge: Monte-Carlo race shards go through merge_race_grid_shards");
  const std::size_t n = ref.shards;
  if (shards.size() != n)
    throw InvalidInput("merge: report declares " + std::to_string(n) +
                       " shards but " + std::to_string(shards.size()) +
                       " files were given");

  std::set<std::size_t> indices;
  for (const auto& s : shards) {
    if (s.bench != ref.bench || s.grid != ref.grid || s.mode != ref.mode ||
        s.verb != ref.verb || s.root != ref.root || s.sizes != ref.sizes)
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " metadata does not match shard " +
                         std::to_string(ref.shard));
    if (s.mode == "measured" && (s.seed != ref.seed || s.jitter != ref.jitter))
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " seed/jitter does not match");
    if (s.shards != n)
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " declares a different shard count");
    if (!indices.insert(s.shard).second)
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " appears twice");
    if (s.series.size() != ref.series.size())
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " has a different series count");
    for (std::size_t i = 0; i < s.series.size(); ++i) {
      if (s.series[i].name != ref.series[i].name)
        throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                           " series order/name mismatch at index " +
                           std::to_string(i));
      // Parsed reports arrive with the axis covered (the reader's grammar
      // wall); a programmatic caller handing us a short row would read
      // out of bounds in the fold below.
      GRIDCAST_ASSERT(s.series[i].makespan_s.size() == ref.sizes.size(),
                      "merge precondition: series cells must cover the axis");
    }
  }

  io::BenchReport out = ref;
  out.shards = 1;
  out.shard = 0;
  const std::size_t n_series = ref.series.size();
  for (std::size_t i = 0; i < ref.sizes.size(); ++i) {
    for (std::size_t s = 0; s < n_series; ++s) {
      const std::size_t cell = i * n_series + s;
      const std::size_t owner = cell % n;
      double value = kNaN;
      for (const auto& shard : shards) {
        const double v = shard.series[s].makespan_s[i];
        if (shard.shard == owner) {
          value = v;
        } else if (!std::isnan(v)) {
          throw InvalidInput(
              "merge: cell (size " + std::to_string(ref.sizes[i]) +
              ", series '" + ref.series[s].name + "') computed by shard " +
              std::to_string(shard.shard) + " but owned by shard " +
              std::to_string(owner));
        }
      }
      if (std::isnan(value))
        throw InvalidInput("merge: cell (size " +
                           std::to_string(ref.sizes[i]) + ", series '" +
                           ref.series[s].name + "') was never computed");
      out.series[s].makespan_s[i] = value;
    }
  }
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

/// SplitMix64 finalizer, the same dispersion step measured_cell_seed uses.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
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
  std::uint64_t z = seed + fnv1a(series_name);
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

  sched::HeuristicOptions opts;
  opts.completion = spec.completion;
  const std::vector<sched::Scheduler> comps =
      resolve_competitors(spec.sched_names, opts);

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

            // Every competitor was resolved with `opts`, so one info (and
            // one O(n²) lower-bound walk) serves the whole field.
            memo.clear();
            const sched::SchedulerRuntimeInfo info(
                *inst, spec.realise ? MiB(1) : Bytes{0}, opts.completion,
                &memo);
            Time best = std::numeric_limits<Time>::infinity();
            for (std::size_t s = 0; s < n_comps; ++s) {
              // Same contract as exp::run_race: a race cannot skip a
              // refusing entry per iteration without skewing the hit-rate
              // denominator, so a refusal is a designed error.
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

  // Unsharded runs reduce to the final form directly, folding blocks in
  // block order — the exact computation merge_race_grid_shards performs —
  // so a merged shard set is byte-identical to this.
  if (spec.shard.shards == 1) {
    for (std::size_t s = 0; s < n_series; ++s) {
      auto& series = r.series[s];
      series.makespan_s.assign(n_points, 0.0);
      if (s < n_comps) series.hits.assign(n_points, 0.0);
      for (std::size_t p = 0; p < n_points; ++p) {
        double total = 0.0;
        for (std::size_t b = 0; b < n_blocks; ++b)
          total += series.block_sum_s[p][b];
        series.makespan_s[p] =
            total / static_cast<double>(spec.iterations);
        if (s < n_comps) {
          double h = 0.0;
          for (std::size_t b = 0; b < n_blocks; ++b)
            h += series.block_hits[p][b];
          series.hits[p] = h;
        }
      }
      series.block_sum_s.clear();
      series.block_hits.clear();
    }
    r.block_iters = 0;
  }
  return r;
}

io::BenchReport merge_race_grid_shards(
    const std::vector<io::BenchReport>& shards) {
  if (shards.empty()) throw InvalidInput("merge: no shard reports given");
  const io::BenchReport& ref = shards.front();
  if (!ref.is_montecarlo())
    throw InvalidInput("merge: not a Monte-Carlo race report");
  const std::size_t n = ref.shards;
  if (shards.size() != n)
    throw InvalidInput("merge: report declares " + std::to_string(n) +
                       " shards but " + std::to_string(shards.size()) +
                       " files were given");
  if (n == 1) {
    if (ref.shard_form())
      throw InvalidInput("merge: single-shard race report in shard form");
    return ref;
  }

  std::set<std::size_t> indices;
  for (const auto& s : shards) {
    if (s.bench != ref.bench || s.grid != ref.grid || s.mode != ref.mode ||
        s.root != ref.root || s.seed != ref.seed ||
        s.iterations != ref.iterations || s.block_iters != ref.block_iters ||
        s.sizes != ref.sizes)
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " metadata does not match shard " +
                         std::to_string(ref.shard));
    if (s.mode == "measured" && s.jitter != ref.jitter)
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " jitter does not match");
    if (s.shards != n)
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " declares a different shard count");
    if (!indices.insert(s.shard).second)
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " appears twice");
    if (!s.shard_form())
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " is not in shard form");
    if (s.series.size() != ref.series.size())
      throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                         " has a different series count");
    for (std::size_t i = 0; i < s.series.size(); ++i) {
      if (s.series[i].name != ref.series[i].name)
        throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                           " series order/name mismatch at index " +
                           std::to_string(i));
      if (s.series[i].block_hits.empty() !=
          ref.series[i].block_hits.empty())
        throw InvalidInput("merge: shard " + std::to_string(s.shard) +
                           " hit tracking disagrees for series '" +
                           s.series[i].name + "'");
      // Same contract as the sweep merge: the fold below indexes
      // [point][block] unconditionally.
      GRIDCAST_ASSERT(s.series[i].block_sum_s.size() == ref.sizes.size(),
                      "merge precondition: block rows must cover the axis");
      for (const auto& row : s.series[i].block_sum_s)
        GRIDCAST_ASSERT(row.size() == ref.block_count(),
                        "merge precondition: block row depth mismatch");
    }
  }

  const std::size_t n_points = ref.sizes.size();
  const std::size_t n_blocks = ref.block_count();

  io::BenchReport out = ref;
  out.shards = 1;
  out.shard = 0;
  out.block_iters = 0;
  for (std::size_t s = 0; s < out.series.size(); ++s) {
    auto& series = out.series[s];
    const bool tracked = !series.block_hits.empty();
    series.makespan_s.assign(n_points, 0.0);
    if (tracked) series.hits.assign(n_points, 0.0);

    for (std::size_t p = 0; p < n_points; ++p) {
      double total = 0.0;
      double hit_total = 0.0;
      for (std::size_t b = 0; b < n_blocks; ++b) {
        const std::size_t cell = p * n_blocks + b;
        const std::size_t owner = cell % n;
        double sum = kNaN;
        double hit = kNaN;
        for (const auto& shard : shards) {
          const double v = shard.series[s].block_sum_s[p][b];
          if (shard.shard == owner) {
            sum = v;
            if (tracked) hit = shard.series[s].block_hits[p][b];
          } else if (!std::isnan(v)) {
            throw InvalidInput(
                "merge: cell (clusters " + std::to_string(ref.sizes[p]) +
                ", block " + std::to_string(b) + ") computed by shard " +
                std::to_string(shard.shard) + " but owned by shard " +
                std::to_string(owner));
          }
        }
        if (std::isnan(sum) || (tracked && std::isnan(hit)))
          throw InvalidInput("merge: cell (clusters " +
                             std::to_string(ref.sizes[p]) + ", block " +
                             std::to_string(b) + ") was never computed");
        total += sum;
        if (tracked) hit_total += hit;
      }
      series.makespan_s[p] =
          total / static_cast<double>(ref.iterations);
      if (tracked) series.hits[p] = hit_total;
    }
    series.block_sum_s.clear();
    series.block_hits.clear();
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
      counts.push_back(
          static_cast<std::size_t>(parse_u64(tok, "--clusters")));
      continue;
    }
    const std::size_t colon = tok.find(':', dash);
    const std::uint64_t lo = parse_u64(tok.substr(0, dash), "--clusters");
    const std::uint64_t hi = parse_u64(
        tok.substr(dash + 1,
                   colon == std::string::npos ? std::string::npos
                                              : colon - dash - 1),
        "--clusters");
    const std::uint64_t step =
        colon == std::string::npos
            ? 1
            : parse_u64(tok.substr(colon + 1), "--clusters");
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

  const auto value_of = [](const std::string& arg) {
    const std::size_t eq = arg.find('=');
    // Without this check a bare `--out` would wrap to substr(0) and
    // silently use the flag name itself as the value.
    if (eq == std::string::npos)
      throw InvalidInput("option '" + arg + "' needs a value: " + arg +
                         "=...");
    return arg.substr(eq + 1);
  };

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
      cli.race.iterations = parse_u64(value_of(arg), "--iters");
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
      cli.tolerances.makespan_rtol = parse_double(value_of(arg), "--rtol");
    } else if (key == "--wall-tol") {
      cli.tolerances.wall_factor = parse_double(value_of(arg), "--wall-tol");
    } else if (key == "--throughput-tol") {
      cli.tolerances.throughput_factor =
          parse_double(value_of(arg), "--throughput-tol");
    } else if (key == "--sched") {
      const std::string v = value_of(arg);
      if (lower(v) == "all") {
        cli.spec.sched_names.clear();  // empty = every registered entry
      } else {
        for (auto& name : split_csv(v)) {
          if (name.empty())
            throw InvalidInput("--sched: empty name in list '" + v + "'");
          cli.spec.sched_names.push_back(std::move(name));
        }
      }
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
      cli.spec.root = parse_cluster_id(value_of(arg), "--root");
    } else if (key == "--backend" || key == "--mode") {
      // --mode is the legacy spelling: "predicted"/"measured" are
      // registered aliases of the "plogp"/"sim" backends, so both flags
      // are one code path into the backend registry.  resolve() throws
      // at parse time for typos, listing what is registered, and stores
      // the canonical name.
      cli.spec.backend = collective::backend_registry().resolve(value_of(arg));
    } else if (arg == "--list-backends") {
      cli.action = RaceCli::Action::kListBackends;
    } else if (key == "--completion") {
      completion_seen = true;
      const std::string v = lower(value_of(arg));
      if (v == "eager")
        cli.spec.completion = sched::CompletionModel::kEager;
      else if (v == "after-last-send")
        cli.spec.completion = sched::CompletionModel::kAfterLastSend;
      else
        throw InvalidInput(
            "--completion must be 'eager' or 'after-last-send', got '" +
            value_of(arg) + "'");
    } else if (key == "--jitter") {
      cli.spec.jitter = parse_double(value_of(arg), "--jitter");
      if (cli.spec.jitter < 0)
        throw InvalidInput("--jitter must be >= 0");
    } else if (key == "--seed") {
      cli.spec.seed = parse_u64(value_of(arg), "--seed");
    } else if (key == "--threads") {
      cli.threads =
          static_cast<std::size_t>(parse_u64(value_of(arg), "--threads"));
    } else if (key == "--shards") {
      cli.spec.shard.shards =
          static_cast<std::size_t>(parse_u64(value_of(arg), "--shards"));
      shards_seen = true;
    } else if (key == "--shard") {
      const std::string v = value_of(arg);
      // Accept `k` or the self-describing `k/N` form.
      if (const auto slash = v.find('/'); slash != std::string::npos) {
        cli.spec.shard.shard = static_cast<std::size_t>(
            parse_u64(v.substr(0, slash), "--shard"));
        shard_pair_count = static_cast<std::size_t>(
            parse_u64(v.substr(slash + 1), "--shard"));
        // 0 is the "no k/N form seen" sentinel below; reject it here
        // instead of silently degrading to an unsharded run.
        if (shard_pair_count == 0)
          throw InvalidInput("--shard=k/N: shard count N must be >= 1");
      } else {
        cli.spec.shard.shard =
            static_cast<std::size_t>(parse_u64(v, "--shard"));
      }
    } else if (key == "--out") {
      cli.out_path = value_of(arg);
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      throw InvalidInput("unknown option '" + arg + "'\n" + race_cli_usage());
    } else {
      positionals.push_back(arg);
    }
  }

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
    cli.race.completion = cli.spec.completion;
    cli.race.jitter = cli.spec.jitter;
    cli.race.shard = cli.spec.shard;
    if (!positionals.empty())
      throw InvalidInput("unexpected argument '" + positionals.front() +
                         "'\n" + race_cli_usage());
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
      if (!positionals.empty())
        throw InvalidInput("unexpected argument '" + positionals.front() +
                           "'");
      break;
    case RaceCli::Action::kRun:
      if (!positionals.empty())
        throw InvalidInput("unexpected argument '" + positionals.front() +
                           "'\n" + race_cli_usage());
      cli.spec.shard.validate();
      if (cli.spec.wall && cli.spec.shard.shards > 1)
        throw InvalidInput("--wall cannot be combined with --shards");
      if (cli.spec.sched_cost && cli.spec.shard.shards > 1)
        throw InvalidInput("--sched-cost cannot be combined with --shards");
      break;
    case RaceCli::Action::kRace:
      break;  // validated and returned above
    case RaceCli::Action::kListBackends:
      if (!positionals.empty())
        throw InvalidInput("unexpected argument '" + positionals.front() +
                           "'");
      break;
  }
  return cli;
}

namespace {

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

io::BenchReport read_report_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInput("cannot open '" + path + "'");
  return io::read_bench_json(in);
}

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

}  // namespace

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
      // The report kind picks the merge: Monte-Carlo races recombine
      // (point x block) partial sums, sweeps recombine (size x series)
      // cells.  Mixing kinds fails inside either merge's metadata check.
      const io::BenchReport merged = shards.front().is_montecarlo()
                                         ? merge_race_grid_shards(shards)
                                         : merge_race_shards(shards);
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
            << current.sizes.size()
            << (current.is_montecarlo() ? " cluster counts" : " sizes")
            << " within tolerance of " << cli.baseline_path << "\n";
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
      " instances; grid-executing backends need --realise.  --mode=\n"
      " predicted|measured remains as an alias of --backend.  --verb races\n"
      " the two-level scatter/alltoall instead of the broadcast: sizes are\n"
      " then per-rank (scatter) / per-rank-pair (alltoall) blocks.\n"
      " --sched-cost also times each competitor's per-selection cost\n"
      " (micro_scheduling_cost_s; unsharded sweeps only).)\n";
}

}  // namespace gridcast::exp
