#include "exp/instance_cache.hpp"

namespace gridcast::exp {

std::size_t InstanceCache::instance_bytes(
    const sched::Instance& inst) noexcept {
  const std::size_t n = inst.clusters();
  // Three n×n Time matrices (g, L, g + L), the T vector, plus the Instance
  // and cache-entry bookkeeping.  Allocator slack is not modelled; the
  // bound is a working-set knob, not an allocator audit.
  return 3 * n * n * sizeof(Time) + n * sizeof(Time) +
         sizeof(sched::Instance) + entry_bytes();
}

InstancePtr InstanceCache::get(ClusterId root, Bytes m) {
  return LruCache::get({root, m},
                       [this](const std::pair<ClusterId, Bytes>& key) {
                         return std::make_shared<const sched::Instance>(
                             sched::Instance::from_grid(*grid_, key.first,
                                                        key.second));
                       });
}

}  // namespace gridcast::exp
