#include "collective/scatter.hpp"

#include <algorithm>

#include "collective/executor.hpp"
#include "support/error.hpp"

namespace gridcast::collective {

namespace {

/// Drains the engine, whose callbacks write into `delivered`, then moves
/// it into the result.
ScatterResult collect(sim::Network& net, std::vector<Time>& delivered) {
  net.engine().run();
  ScatterResult r;
  r.completion = *std::max_element(delivered.begin(), delivered.end());
  r.delivered = std::move(delivered);
  r.messages = net.messages();
  r.wan_messages = net.inter_cluster_messages();
  r.bytes = net.bytes_sent();
  r.wan_bytes = net.inter_cluster_bytes();
  return r;
}

}  // namespace

ScatterResult run_naive_scatter(sim::Network& net, ClusterId root_cluster,
                                Bytes block) {
  detail::expect_fresh(net);
  const auto& grid = net.grid();
  GRIDCAST_ASSERT(root_cluster < grid.cluster_count(),
                  "root cluster out of range");
  std::vector<Time> delivered(net.ranks(), 0.0);
  const NodeId root = grid.global_rank(root_cluster, 0);
  delivered[root] = net.engine().now();
  for (NodeId r = 0; r < net.ranks(); ++r) {
    if (r == root) continue;
    delivered[r] = net.send(root, r, block).delivered;
  }
  return collect(net, delivered);
}

namespace {

/// Shared body of the two-level scatter: `remote` fixes the root's WAN
/// injection sequence.
ScatterResult hierarchical_scatter_over(sim::Network& net,
                                        ClusterId root_cluster, Bytes block,
                                        const std::vector<ClusterId>& remote) {
  detail::expect_fresh(net);
  const auto& grid = net.grid();
  GRIDCAST_ASSERT(root_cluster < grid.cluster_count(),
                  "root cluster out of range");
  std::vector<Time> delivered(net.ranks(), 0.0);
  const NodeId root = grid.global_rank(root_cluster, 0);
  delivered[root] = net.engine().now();

  for (const ClusterId c : remote) {
    const NodeId coord = grid.global_rank(c, 0);
    const std::uint32_t size = grid.cluster(c).size();
    const Bytes aggregate = static_cast<Bytes>(size) * block;
    net.send(root, coord, aggregate, [&net, &grid, &delivered, c, coord,
                                      block, size](Time t) {
      delivered[coord] = t;
      for (NodeId l = 1; l < size; ++l) {
        const NodeId dst = grid.global_rank(c, l);
        delivered[dst] = net.send(coord, dst, block).delivered;
      }
    });
  }
  // Local cluster: direct sends.
  const std::uint32_t root_size = grid.cluster(root_cluster).size();
  for (NodeId l = 1; l < root_size; ++l) {
    const NodeId dst = grid.global_rank(root_cluster, l);
    delivered[dst] = net.send(root, dst, block).delivered;
  }
  return collect(net, delivered);
}

}  // namespace

ScatterResult run_hierarchical_scatter(sim::Network& net,
                                       ClusterId root_cluster, Bytes block) {
  const auto& grid = net.grid();
  GRIDCAST_ASSERT(root_cluster < grid.cluster_count(),
                  "root cluster out of range");
  // Remote clusters first (they cross the WAN; start them earliest),
  // largest aggregate first so the big transfers overlap the local work.
  std::vector<ClusterId> remote;
  for (ClusterId c = 0; c < grid.cluster_count(); ++c)
    if (c != root_cluster) remote.push_back(c);
  std::sort(remote.begin(), remote.end(), [&](ClusterId a, ClusterId b) {
    return grid.cluster(a).size() > grid.cluster(b).size();
  });
  return hierarchical_scatter_over(net, root_cluster, block, remote);
}

std::vector<ClusterId> scatter_wan_order(const topology::Grid& grid,
                                         ClusterId root_cluster, Bytes block,
                                         const sched::SchedulerEntry& sched) {
  GRIDCAST_ASSERT(root_cluster < grid.cluster_count(),
                  "root cluster out of range");
  const sched::Instance inst =
      sched::Instance::from_grid(grid, root_cluster, block);
  const sched::SchedulerRuntimeInfo info(inst, block);
  GRIDCAST_ASSERT(sched.can_schedule(info),
                  "scheduler cannot handle this instance");
  // Each non-root cluster appears exactly once as a receiver in a valid
  // SendOrder; that appearance sequence becomes the injection sequence.
  std::vector<ClusterId> remote;
  remote.reserve(grid.cluster_count() - 1);
  for (const auto& [s, r] : sched.order(info)) remote.push_back(r);
  return remote;
}

ScatterResult run_hierarchical_scatter(sim::Network& net,
                                       ClusterId root_cluster, Bytes block,
                                       const sched::SchedulerEntry& sched) {
  return hierarchical_scatter_over(
      net, root_cluster, block,
      scatter_wan_order(net.grid(), root_cluster, block, sched));
}

}  // namespace gridcast::collective
