#include "exp/sweep.hpp"

#include <limits>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace gridcast::exp {

namespace {

constexpr double kUnowned = std::numeric_limits<double>::quiet_NaN();

}  // namespace

void ShardSpec::validate() const {
  if (shards == 0)
    throw InvalidInput("shard spec: shards must be >= 1");
  if (shard >= shards)
    throw InvalidInput("shard spec: shard index " + std::to_string(shard) +
                       " out of range for " + std::to_string(shards) +
                       " shards");
}

std::vector<Bytes> default_size_ladder() {
  // The paper's Fig. 5/6 x-axis stops at 4 MiB; an off-by-one endpoint
  // (4.25 MiB) used to emit a 17th point past the figure.
  std::vector<Bytes> sizes;
  for (Bytes m = KiB(256); m <= MiB(4); m += KiB(256)) sizes.push_back(m);
  return sizes;
}

std::uint64_t measured_cell_seed(std::uint64_t seed, std::size_t size_index,
                                 std::string_view series_name) {
  // The name hash keeps the seed insensitive to the series' position in
  // the competitor list; the finalizer disperses (seed, size index, name).
  return mix64(seed +
               0x9e3779b97f4a7c15ULL *
                   (static_cast<std::uint64_t>(size_index) + 1) +
               name_hash(series_name));
}

bool verb_accepts(const sched::Scheduler& comp, collective::Verb verb,
                  InstanceCache& cache, ClusterId root, Bytes m) {
  const sched::CompletionModel completion =
      verb == collective::Verb::kBcast ? comp.options().completion
                                       : sched::CompletionModel::kEager;
  const auto accepts = [&](const sched::Instance& inst) {
    return comp.entry().can_schedule(
        sched::SchedulerRuntimeInfo(inst, m, completion));
  };
  if (verb != collective::Verb::kAlltoall) return accepts(*cache.get(root, m));
  // g, L and T do not depend on the root: one cached instance per size,
  // re-rooted at every cluster in turn.
  sched::Instance inst = *cache.get(0, m);
  for (ClusterId k = 0; k < inst.clusters(); ++k) {
    inst.set_root(k);
    if (!accepts(inst)) return false;
  }
  return true;
}

SweepResult backend_sweep(const collective::Backend& backend,
                          InstanceCache& cache, ClusterId root,
                          const std::vector<sched::Scheduler>& comps,
                          std::span<const Bytes> sizes, std::uint64_t seed,
                          ThreadPool& pool, ShardSpec shard,
                          collective::Verb verb) {
  GRIDCAST_ASSERT(!comps.empty(), "no competitors");
  GRIDCAST_ASSERT(!sizes.empty(), "no sizes");
  shard.validate();
  if (!backend.supports(verb))
    throw InvalidInput("backend '" + std::string(backend.name()) +
                       "' does not support verb '" +
                       std::string(collective::verb_name(verb)) + "'");

  // Gate: a competitor races only if it accepts *every* size of the
  // ladder, so a series is either fully present or absent and shard
  // merging stays rectangular.  Grid-shape-specialised entries (LAN-only,
  // star-WAN) drop out here on grids they were not built for — skipped,
  // not raced.  Every shard derives and gates the whole ladder
  // (derivation is deterministic, so the cell partition below agrees
  // across shards) where the cell loop alone would pay ~1/shards of the
  // derivations — accepted: one derivation is O(clusters²) gap
  // evaluations, orders of magnitude below a single simulated cell, and
  // the cells are what sharding exists to distribute.  One task per size,
  // so each instance is derived exactly once.
  const std::size_t n_comps = comps.size();
  std::vector<char> accepted(sizes.size() * n_comps);
  pool.parallel_for(sizes.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      for (std::size_t c = 0; c < n_comps; ++c)
        accepted[i * n_comps + c] =
            verb_accepts(comps[c], verb, cache, root, sizes[i]) ? 1 : 0;
  });
  SweepResult out;
  std::vector<const sched::Scheduler*> raced;
  raced.reserve(n_comps);
  for (std::size_t c = 0; c < n_comps; ++c) {
    bool ok = true;
    for (std::size_t i = 0; i < sizes.size(); ++i)
      ok = ok && accepted[i * n_comps + c] != 0;
    if (ok)
      raced.push_back(&comps[c]);
    else
      out.skipped.emplace_back(comps[c].name());
  }
  if (raced.empty()) {
    std::string who;
    for (const auto& name : out.skipped) {
      if (!who.empty()) who += ", ";
      who += name;
    }
    throw InvalidInput(
        "no raceable schedulers: can_schedule refused every competitor on "
        "this grid (" + who + ")");
  }

  // The comparator series is a broadcast (the grid-unaware binomial), so
  // only broadcast sweeps carry it.
  const std::string_view baseline = verb == collective::Verb::kBcast
                                        ? backend.baseline_series()
                                        : std::string_view{};
  const std::size_t base = baseline.empty() ? 0 : 1;
  const std::size_t n_series = raced.size() + base;
  out.sizes.assign(sizes.begin(), sizes.end());
  out.series.resize(n_series);
  if (base != 0) out.series[0].name = baseline;
  for (std::size_t s = 0; s < raced.size(); ++s)
    out.series[s + base].name = raced[s]->name();
  for (auto& series : out.series)
    series.completion.assign(sizes.size(), kUnowned);

  // One task per (size, series) cell, written by index, so any worker
  // count produces the same result and foreign shards' cells stay NaN.
  // Each cell's seed derives from (size index, series name) — never from
  // scheduling order, the competitor count, or the worker count — so a
  // series' results are invariant under competitor-set growth.
  pool.parallel_for(
      sizes.size() * n_series, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t cell = lo; cell < hi; ++cell) {
          if (!shard.owns(cell)) continue;
          const std::size_t i = cell / n_series;
          const std::size_t s = cell % n_series;
          const Bytes m = sizes[i];
          const std::uint64_t cell_seed =
              measured_cell_seed(seed, i, out.series[s].name);
          if (base != 0 && s == 0) {
            out.series[0].completion[i] =
                backend.baseline_bcast(root, m, cell_seed).completion;
          } else {
            const sched::Scheduler& comp = *raced[s - base];
            switch (verb) {
              case collective::Verb::kBcast: {
                const InstancePtr inst = cache.get(root, m);
                const sched::SchedulerRuntimeInfo info(
                    *inst, m, comp.options().completion);
                out.series[s].completion[i] =
                    backend.bcast(comp.entry(), info, cell_seed).completion;
                break;
              }
              // Scatter/alltoall cells re-derive their instances inside
              // the backend (the Backend verb signatures are grid-bound,
              // not info-bound — an MPI harness has no Instance at all).
              // Accepted: O(clusters²) gap evaluations per cell, below
              // the cell's own execution/prediction work; the cache still
              // serves the gate above.
              case collective::Verb::kScatter:
                out.series[s].completion[i] =
                    backend.scatter(comp.entry(), root, m, cell_seed)
                        .completion;
                break;
              case collective::Verb::kAlltoall:
                out.series[s].completion[i] =
                    backend.alltoall(comp.entry(), m, cell_seed).completion;
                break;
            }
          }
        }
      });
  return out;
}

}  // namespace gridcast::exp
