#pragma once

#include <memory>
#include <utility>

#include "sched/instance.hpp"
#include "support/lru_cache.hpp"
#include "topology/grid.hpp"

/// Memoised `Instance::from_grid` derivations for one grid, bounded as a
/// byte-accounted LRU (`LruCache`).
///
/// Deriving an instance costs O(clusters²) gap-function evaluations, and
/// sweep harnesses used to pay it once per (size, series) *cell* — the
/// measured sweep re-derived the identical instance for every competitor
/// of a size.  The cache keys on (root, size); the grid is fixed per cache
/// (grids are the expensive measured artefact and have no cheap identity).
/// All-to-all needs every root, but g, L and T do not depend on it: its
/// gate (`verb_accepts`) re-roots a copy of the size's root-0 entry, so an
/// all-to-all ladder holds one instance per size.
///
/// Root-rotation workloads (many roots × many sizes) would otherwise grow
/// the map without limit, so the cache optionally bounds its footprint in
/// bytes (`instance_bytes` per entry).  The default is unbounded: sweep
/// ladders are small.
namespace gridcast::exp {

/// Shared ownership handle for a cached derivation.
using InstancePtr = std::shared_ptr<const sched::Instance>;

class InstanceCache
    : public LruCache<std::pair<ClusterId, Bytes>, sched::Instance> {
 public:
  /// `capacity_bytes` is `kUnbounded` or the LRU bound in bytes.
  explicit InstanceCache(const topology::Grid& grid,
                         std::size_t capacity_bytes = kUnbounded)
      : LruCache(capacity_bytes, &instance_bytes), grid_(&grid) {}
  /// The cache only references the grid; a temporary would dangle.
  explicit InstanceCache(topology::Grid&&, std::size_t = kUnbounded) = delete;

  [[nodiscard]] const topology::Grid& grid() const noexcept { return *grid_; }

  /// The instance the grid poses for an m-byte broadcast rooted at `root`,
  /// derived on first use (outside the lock, so distinct keys never
  /// serialise) and promoted to most-recently-used.  Thread-safe;
  /// concurrent first requests for one key share one derivation.
  [[nodiscard]] InstancePtr get(ClusterId root, Bytes m);

  /// The accounting rule: what one cached instance charges against the
  /// capacity (its three clusters² time matrices — g, L and the g+L
  /// transfer table — the T vector, and the bookkeeping structs).
  [[nodiscard]] static std::size_t instance_bytes(
      const sched::Instance& inst) noexcept;

 private:
  const topology::Grid* grid_;
};

}  // namespace gridcast::exp
