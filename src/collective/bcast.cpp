#include "collective/bcast.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "collective/executor.hpp"
#include "sched/order_memo.hpp"
#include "support/error.hpp"

namespace gridcast::collective {

namespace detail {

void binomial_issue(sim::Network& net, const NodeId* ranks, Time* delivered,
                    std::size_t lo, std::size_t hi, Bytes m) {
  const std::size_t n = hi - lo;
  if (n <= 1) return;
  const std::size_t child_side = n / 2;
  const std::size_t mid = lo + (n - child_side);
  if (child_side == 1) {
    // A leaf forwards nothing: its delivery is terminal.
    delivered[mid] = net.send(ranks[lo], ranks[mid], m).delivered;
  } else {
    net.send(ranks[lo], ranks[mid], m,
             [&net, ranks, delivered, mid, hi, m](Time t) {
               delivered[mid] = t;
               binomial_issue(net, ranks, delivered, mid, hi, m);
             });
  }
  binomial_issue(net, ranks, delivered, lo, mid, m);
}

}  // namespace detail

namespace {

/// Delivery times over `ranks` (checked), the root's set to now.
std::vector<Time> start(sim::Network& net, const std::vector<NodeId>& ranks) {
  detail::expect_fresh(net);
  GRIDCAST_ASSERT(!ranks.empty(), "broadcast over an empty rank set");
  for (const NodeId r : ranks)
    GRIDCAST_ASSERT(r < net.ranks(), "rank out of range");
  std::vector<Time> delivered(ranks.size(), 0.0);
  delivered[0] = net.engine().now();
  return delivered;
}

/// Drains the engine, whose callbacks write into `delivered`, then moves
/// it into the result.
BcastResult collect(sim::Network& net, std::vector<Time>& delivered) {
  net.engine().run();
  BcastResult r;
  r.completion = *std::max_element(delivered.begin(), delivered.end());
  r.delivered = std::move(delivered);
  r.messages = net.messages();
  return r;
}

}  // namespace

BcastResult run_binomial_bcast(sim::Network& net,
                               const std::vector<NodeId>& ranks, Bytes m) {
  std::vector<Time> delivered = start(net, ranks);
  detail::binomial_issue(net, ranks.data(), delivered.data(), 0, ranks.size(),
                         m);
  return collect(net, delivered);
}

BcastResult run_flat_bcast(sim::Network& net, const std::vector<NodeId>& ranks,
                           Bytes m) {
  std::vector<Time> delivered = start(net, ranks);
  for (std::size_t i = 1; i < ranks.size(); ++i)
    delivered[i] = net.send(ranks[0], ranks[i], m).delivered;
  return collect(net, delivered);
}

BcastResult run_chain_bcast(sim::Network& net,
                            const std::vector<NodeId>& ranks, Bytes m) {
  std::vector<Time> delivered = start(net, ranks);

  // The handler lives on this frame: collect() drains the engine before
  // it returns, so every callback pointing at it runs while it exists.
  std::function<void(std::size_t, Time)> forward;
  forward = [&net, &ranks, m, &delivered, &forward](std::size_t i, Time t) {
    delivered[i] = t;
    if (i + 1 < ranks.size())
      net.send(ranks[i], ranks[i + 1], m,
               [&forward, i](Time tt) { forward(i + 1, tt); });
  };
  forward(0, net.engine().now());
  return collect(net, delivered);
}

BcastResult run_segmented_chain_bcast(sim::Network& net,
                                      const std::vector<NodeId>& ranks,
                                      Bytes m, Bytes segment) {
  std::vector<Time> delivered = start(net, ranks);
  GRIDCAST_ASSERT(segment > 0, "segment size must be positive");
  const Bytes seg = std::min(segment, m > 0 ? m : Bytes{1});
  const std::uint64_t full = m / seg;
  const Bytes tail = m % seg;
  const std::uint64_t segments = full + (tail > 0 ? 1 : 0);
  if (segments <= 1 || ranks.size() == 1) return run_chain_bcast(net, ranks, m);

  std::vector<std::uint64_t> remaining(ranks.size(), segments);
  remaining[0] = 0;

  // On this frame, like run_chain_bcast's handler: collect() drains the
  // engine before it returns.
  std::function<void(std::size_t, Bytes, Time)> forward;
  forward = [&net, &ranks, &delivered, &remaining, &forward](
                std::size_t i, Bytes sz, Time t) {
    if (--remaining[i] == 0) delivered[i] = t;
    if (i + 1 < ranks.size())
      net.send(ranks[i], ranks[i + 1], sz,
               [&forward, i, sz](Time tt) { forward(i + 1, sz, tt); });
  };
  // Root streams all segments to the next hop; its NIC pipelines them.
  for (std::uint64_t s = 0; s < segments; ++s) {
    const Bytes sz = (s == segments - 1 && tail > 0) ? tail : seg;
    net.send(ranks[0], ranks[1], sz,
             [&forward, sz](Time tt) { forward(1, sz, tt); });
  }
  return collect(net, delivered);
}

BcastResult run_hierarchical_bcast(sim::Network& net, ClusterId root_cluster,
                                   const sched::SendOrder& order, Bytes m,
                                   IntraOrder intra_order) {
  detail::expect_fresh(net);
  const auto& grid = net.grid();
  const auto n_clusters = grid.cluster_count();
  GRIDCAST_ASSERT(root_cluster < n_clusters, "root cluster out of range");
  GRIDCAST_ASSERT(order.size() == n_clusters - 1,
                  "send order must cover every non-root cluster");

  std::vector<Time> delivered(net.ranks(), 0.0);
  // Global ranks by position.  Ranks are contiguous per cluster, so cluster
  // c's local tree is positions [0, size) from its coordinator's rank.
  std::vector<NodeId> global(net.ranks());
  std::iota(global.begin(), global.end(), NodeId{0});

  // Per-cluster outgoing coordinator sends, in schedule order.
  std::vector<std::vector<ClusterId>> outgoing(n_clusters);
  for (const auto& [s, r] : order) {
    GRIDCAST_ASSERT(s < n_clusters && r < n_clusters, "bad pair in order");
    outgoing[s].push_back(r);
  }

  const auto coord = [&grid](ClusterId c) { return grid.global_rank(c, 0); };

  // When cluster c's coordinator holds the payload: issue its relays and
  // its local tree; the NIC serializes in issue order, so `intra_order`
  // reduces to which group of sends is issued first.  The handler lives on
  // this frame: collect() drains the engine before it returns.
  std::function<void(ClusterId, Time)> on_receive;
  on_receive = [&net, &grid, &delivered, &global, &outgoing, coord,
                &on_receive, m, intra_order](ClusterId c, Time t) {
    const NodeId me = coord(c);
    delivered[me] = t;

    const auto relay = [&] {
      for (const ClusterId dst : outgoing[c])
        net.send(me, coord(dst), m,
                 [&on_receive, dst](Time tt) { on_receive(dst, tt); });
    };
    const auto local_tree = [&] {
      detail::binomial_issue(net, global.data() + me, delivered.data() + me,
                             0, grid.cluster(c).size(), m);
    };

    if (intra_order == IntraOrder::kRelayFirst) {
      relay();
      local_tree();
    } else {
      local_tree();
      relay();
    }
  };

  on_receive(root_cluster, net.engine().now());
  return collect(net, delivered);
}

BcastResult run_hierarchical_bcast(sim::Network& net, ClusterId root_cluster,
                                   const sched::SchedulerEntry& sched, Bytes m,
                                   IntraOrder intra_order) {
  const sched::Instance inst =
      sched::Instance::from_grid(net.grid(), root_cluster, m);
  return run_hierarchical_bcast(net, sched, sched::SchedulerRuntimeInfo(inst, m),
                                intra_order);
}

BcastResult run_hierarchical_bcast(sim::Network& net,
                                   const sched::SchedulerEntry& sched,
                                   const sched::SchedulerRuntimeInfo& info,
                                   IntraOrder intra_order) {
  GRIDCAST_ASSERT(info.message_size() > 0,
                  "runtime info must carry the message size");
  GRIDCAST_ASSERT(sched.can_schedule(info),
                  "scheduler cannot handle this instance");
  return run_hierarchical_bcast(net, info.instance().root(),
                                sched::order_of(sched, info),
                                info.message_size(), intra_order);
}

BcastResult run_grid_unaware_binomial(sim::Network& net,
                                      ClusterId root_cluster, Bytes m) {
  const auto& grid = net.grid();
  std::vector<NodeId> ranks;
  ranks.reserve(net.ranks());
  const NodeId root = grid.global_rank(root_cluster, 0);
  ranks.push_back(root);
  for (NodeId r = 0; r < net.ranks(); ++r)
    if (r != root) ranks.push_back(r);
  return run_binomial_bcast(net, ranks, m);
}

}  // namespace gridcast::collective
