#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "collective/backend.hpp"
#include "exp/instance_cache.hpp"
#include "sched/registry.hpp"
#include "support/thread_pool.hpp"

/// Message-size sweeps over a concrete grid (Figs. 5 and 6).
///
/// One engine — `backend_sweep` — races any competitor list over a size
/// ladder through a `collective::Backend`.  The backend decides what a
/// completion *is*: the "plogp" backend times the schedule analytically
/// (the Fig. 5 curves), the "sim" backend executes every point-to-point
/// message on the discrete-event simulator (the Fig. 6 substitute,
/// DESIGN.md substitution table) and contributes the grid-unaware binomial
/// baseline the paper labels "Default LAM".
namespace gridcast::exp {

/// One strategy's series over the sweep sizes.
struct SweepSeries {
  std::string name;
  std::vector<Time> completion;  ///< seconds, aligned with the size ladder
};

struct SweepResult {
  std::vector<Bytes> sizes;
  std::vector<SweepSeries> series;
  /// Competitors whose `can_schedule` refused one of the sweep's instances
  /// (grid-shape-specialised entries on the wrong grid shape): skipped
  /// rather than raced, so they have no series.
  std::vector<std::string> skipped;
};

/// Process-level partition of the (size × series) cell grid.  Cell
/// (size i, series s) belongs to shard `(i * n_series + s) % shards`, so
/// any shard count covers every cell exactly once and `gridcast_race
/// --merge` can recombine shard outputs bit-identically.  Cells owned by
/// other shards are left NaN.
struct ShardSpec {
  std::size_t shards = 1;
  std::size_t shard = 0;

  [[nodiscard]] bool owns(std::size_t cell) const noexcept {
    return cell % shards == shard;
  }
  /// Throws InvalidInput unless 0 <= shard < shards.
  void validate() const;
};

/// The paper's Fig. 5/6 x-axis: 256 KiB steps from 256 KiB to 4 MiB
/// (16 points).
[[nodiscard]] std::vector<Bytes> default_size_ladder();

/// Deterministic simulation seed for one sweep cell, mixed from the sweep
/// seed, the *size index* and the *series name* (FNV-1a) — never from the
/// competitor count, so adding a competitor cannot reseed the series that
/// were already there.  Deterministic backends ignore it.
[[nodiscard]] std::uint64_t measured_cell_seed(std::uint64_t seed,
                                               std::size_t size_index,
                                               std::string_view series_name);

/// The per-verb gate, shared by the sweeps and the plan daemon: whether
/// `comp` can schedule every instance an m-byte `verb` cell schedules
/// from.  All-to-all executes one schedule per root cluster, so it probes
/// every root; broadcast and scatter probe `root` alone.  The all-to-all
/// probes take the one instance `cache` holds for the size (keyed root 0;
/// `root` is unused) and re-root a copy at each cluster (`set_root`), since
/// g, L and T do not depend on the root, so the cache holds one all-to-all
/// instance per size, not one per root.  Each instance is probed with the
/// info the verb path builds:
/// the competitor's completion model for broadcasts, eager for scatter and
/// all-to-all (their order derivations construct exactly that, and a gate
/// that disagreed with their can_schedule assert would skip-vs-die
/// inconsistently).
[[nodiscard]] bool verb_accepts(const sched::Scheduler& comp,
                                collective::Verb verb, InstanceCache& cache,
                                ClusterId root, Bytes m);

/// Race `comps` over `sizes` through `backend`: completion per (size,
/// series) cell, preceded by the backend's baseline comparator series when
/// it has one (broadcast sweeps only — the comparator is a broadcast).
/// `verb` selects the collective raced per cell: broadcast (the default,
/// sizes are message sizes), scatter (sizes are per-rank blocks, rooted at
/// `root`) or all-to-all (sizes are per-rank-pair blocks; `root` is
/// unused).  A backend that does not support the verb is a one-line
/// InvalidInput.  Cells are dispatched across `pool` (results are
/// identical for any worker count); instances are derived once per size
/// through `cache` (whose grid must be the one `backend` executes on);
/// per-cell seeds derive from `seed` via `measured_cell_seed`.
/// Competitors that `verb_accepts` refuses at any size are skipped rather
/// than raced (reported in `SweepResult::skipped`); when every competitor
/// is skipped the sweep throws InvalidInput.
[[nodiscard]] SweepResult backend_sweep(
    const collective::Backend& backend, InstanceCache& cache, ClusterId root,
    const std::vector<sched::Scheduler>& comps, std::span<const Bytes> sizes,
    std::uint64_t seed, ThreadPool& pool, ShardSpec shard = {},
    collective::Verb verb = collective::Verb::kBcast);

}  // namespace gridcast::exp
