#include "collective/alltoall.hpp"

#include <algorithm>

#include "collective/executor.hpp"
#include "support/error.hpp"

namespace gridcast::collective {

namespace {

struct State {
  std::vector<Time> completed;
  std::vector<std::uint32_t> pending;  ///< inbound blocks still expected

  explicit State(std::uint32_t ranks)
      : completed(ranks, 0.0), pending(ranks, 0) {}

  void arrived(NodeId dst, Time t) {
    GRIDCAST_ASSERT(pending[dst] > 0, "unexpected arrival");
    completed[dst] = std::max(completed[dst], t);
    --pending[dst];
  }
};

/// Drains the engine, whose callbacks write into `st`, then moves its
/// arrival times into the result.
AlltoallResult collect(sim::Network& net, State& st) {
  net.engine().run();
  for (const auto p : st.pending)
    GRIDCAST_ASSERT(p == 0, "alltoall finished with missing blocks");
  AlltoallResult r;
  r.completion = *std::max_element(st.completed.begin(), st.completed.end());
  r.completed = std::move(st.completed);
  r.messages = net.messages();
  r.wan_messages = net.inter_cluster_messages();
  r.bytes = net.bytes_sent();
  r.wan_bytes = net.inter_cluster_bytes();
  return r;
}

}  // namespace

AlltoallResult run_naive_alltoall(sim::Network& net, Bytes block) {
  detail::expect_fresh(net);
  const auto n = net.ranks();
  GRIDCAST_ASSERT(n >= 1, "empty network");
  State st(n);
  // Every rank expects one block from each peer.
  for (NodeId r = 0; r < n; ++r) st.pending[r] = n - 1;
  if (n == 1) st.completed[0] = net.engine().now();

  for (NodeId src = 0; src < n; ++src) {
    for (std::uint32_t k = 1; k < n; ++k) {
      const NodeId dst = static_cast<NodeId>((src + k) % n);
      st.arrived(dst, net.send(src, dst, block).delivered);
    }
  }
  return collect(net, st);
}

namespace {

/// Shared body of the coordinator-routed exchange.  `dest_order[c]` fixes
/// the sequence in which coordinator c injects its per-cluster aggregates.
AlltoallResult hierarchical_alltoall_over(
    sim::Network& net, Bytes block,
    const std::vector<std::vector<ClusterId>>& dest_order) {
  detail::expect_fresh(net);
  const auto& grid = net.grid();
  const auto n = net.ranks();
  const auto n_clusters = static_cast<ClusterId>(grid.cluster_count());
  State st(n);

  const auto coord = [&grid](ClusterId c) { return grid.global_rank(c, 0); };

  // Expected inbound events per rank: one direct message per intra-cluster
  // peer, plus one coordinator delivery per remote cluster (coordinators
  // receive the remote-cluster aggregate itself instead).
  for (NodeId r = 0; r < n; ++r) {
    const auto [c, l] = grid.locate(r);
    st.pending[r] = grid.cluster(c).size() - 1 + (n_clusters - 1);
  }
  if (n == 1) st.completed[0] = net.engine().now();

  // Phase: intra-cluster pairs exchange directly (round-robin).
  for (ClusterId c = 0; c < n_clusters; ++c) {
    const std::uint32_t size = grid.cluster(c).size();
    for (NodeId a = 0; a < size; ++a) {
      const NodeId src = grid.global_rank(c, a);
      for (std::uint32_t k = 1; k < size; ++k) {
        const NodeId dst = grid.global_rank(c, (a + k) % size);
        st.arrived(dst, net.send(src, dst, block).delivered);
      }
    }
  }

  // Phase: gather remote-bound blocks at the coordinator.
  // Coordinator c owes each remote cluster d an aggregate of
  // size_c * size_d blocks; it may ship the (c, d) aggregate once all local
  // contributions are in (its own are local from the start).
  std::vector<std::uint32_t> gathered(n_clusters, 0);

  const auto maybe_exchange = [&net, &grid, &st, coord, &gathered, block,
                               &dest_order](ClusterId c) {
    if (gathered[c] < grid.cluster(c).size() - 1) return;
    gathered[c] = UINT32_MAX;  // fire once
    const std::uint32_t size_c = grid.cluster(c).size();
    for (const ClusterId d : dest_order[c]) {
      if (d == c) continue;
      const std::uint32_t size_d = grid.cluster(d).size();
      const Bytes aggregate =
          static_cast<Bytes>(size_c) * static_cast<Bytes>(size_d) * block;
      net.send(coord(c), coord(d), aggregate,
               [&net, &grid, &st, coord, block, d, size_c](Time t) {
                 // Deliver: coordinator d satisfies itself, forwards to the
                 // other locals the blocks cluster c addressed to them.
                 const NodeId me = coord(d);
                 st.arrived(me, t);
                 const std::uint32_t size_d2 = grid.cluster(d).size();
                 const Bytes forward = static_cast<Bytes>(size_c) * block;
                 for (NodeId l = 1; l < size_d2; ++l) {
                   const NodeId dst = grid.global_rank(d, l);
                   st.arrived(dst, net.send(me, dst, forward).delivered);
                 }
               });
    }
  };

  for (ClusterId c = 0; c < n_clusters; ++c) {
    const std::uint32_t size = grid.cluster(c).size();
    const Bytes remote_blocks =
        static_cast<Bytes>(n - size) * block;  // blocks bound off-cluster
    if (size == 1 || remote_blocks == 0) {
      maybe_exchange(c);  // nothing to gather
      continue;
    }
    for (NodeId l = 1; l < size; ++l) {
      const NodeId src = grid.global_rank(c, l);
      // maybe_exchange is captured by reference: it (and gathered) outlive
      // every delivery, because collect() below drains the engine before
      // this frame returns.  Copying it would exceed the inline handler
      // capacity.
      net.send(src, coord(c), remote_blocks,
               [&maybe_exchange, &gathered, c](Time) {
                 ++gathered[c];
                 maybe_exchange(c);
               });
    }
  }
  return collect(net, st);
}

}  // namespace

AlltoallResult run_hierarchical_alltoall(sim::Network& net, Bytes block) {
  const auto& grid = net.grid();
  const auto n_clusters = static_cast<ClusterId>(grid.cluster_count());
  // Default sequence: ascending cluster id (the classic exchange).
  std::vector<std::vector<ClusterId>> dest_order(n_clusters);
  for (ClusterId c = 0; c < n_clusters; ++c)
    for (ClusterId d = 0; d < n_clusters; ++d)
      if (d != c) dest_order[c].push_back(d);
  return hierarchical_alltoall_over(net, block, dest_order);
}

std::vector<std::vector<ClusterId>> alltoall_dest_order(
    const topology::Grid& grid, Bytes block,
    const sched::SchedulerEntry& sched) {
  const auto n_clusters = static_cast<ClusterId>(grid.cluster_count());
  std::vector<std::vector<ClusterId>> dest_order(n_clusters);
  if (n_clusters < 2) return dest_order;
  // g, L and T do not depend on the root: derive them once and re-root.
  sched::Instance inst = sched::Instance::from_grid(grid, 0, block);
  for (ClusterId c = 0; c < n_clusters; ++c) {
    inst.set_root(c);
    const sched::SchedulerRuntimeInfo info(inst, block);
    GRIDCAST_ASSERT(sched.can_schedule(info),
                    "scheduler cannot handle this instance");
    // Receiver appearance order of a broadcast rooted at c becomes c's
    // injection sequence.
    for (const auto& [s, r] : sched.order(info)) dest_order[c].push_back(r);
  }
  return dest_order;
}

AlltoallResult run_hierarchical_alltoall(sim::Network& net, Bytes block,
                                         const sched::SchedulerEntry& sched) {
  return hierarchical_alltoall_over(net, block,
                                    alltoall_dest_order(net.grid(), block, sched));
}

}  // namespace gridcast::collective
