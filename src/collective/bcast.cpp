#include "collective/bcast.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "sched/order_memo.hpp"
#include "support/error.hpp"

namespace gridcast::collective {

namespace {

/// Shared mutable state of one broadcast execution, kept alive by the
/// callbacks through a shared_ptr (the engine outlives this function's
/// stack frame only within run(), but callbacks capture by value).
struct BcastState {
  std::vector<Time> delivered;
  std::uint64_t base_messages = 0;
};

/// Recursive binomial issue over ranks[lo, hi); ranks[lo] holds the
/// payload *now* (the engine's current time).  Matches the analytic
/// predictor's split: the child handles floor(n/2) ranks, the holder keeps
/// the rest and keeps injecting.
void binomial_issue(sim::Network& net, const std::vector<NodeId>& ranks,
                    std::size_t lo, std::size_t hi, Bytes m,
                    const std::shared_ptr<BcastState>& st) {
  const std::size_t n = hi - lo;
  if (n <= 1) return;
  const std::size_t child_side = n / 2;
  const std::size_t mid = lo + (n - child_side);
  net.send(ranks[lo], ranks[mid], m, [&net, &ranks, lo = mid, hi, m, st](Time t) {
    st->delivered[lo] = t;
    binomial_issue(net, ranks, lo, hi, m, st);
  });
  binomial_issue(net, ranks, lo, mid, m, st);
}

BcastResult collect(sim::Network& net, const std::shared_ptr<BcastState>& st) {
  net.engine().run();
  BcastResult r;
  r.delivered = st->delivered;
  r.completion =
      r.delivered.empty()
          ? net.engine().now()
          : *std::max_element(r.delivered.begin(), r.delivered.end());
  r.messages = net.messages() - st->base_messages;
  return r;
}

std::shared_ptr<BcastState> make_state(sim::Network& net, std::size_t n) {
  auto st = std::make_shared<BcastState>();
  st->delivered.assign(n, 0.0);
  st->base_messages = net.messages();
  return st;
}

void check_ranks(const sim::Network& net, const std::vector<NodeId>& ranks) {
  GRIDCAST_ASSERT(!ranks.empty(), "broadcast over an empty rank set");
  for (const NodeId r : ranks)
    GRIDCAST_ASSERT(r < net.ranks(), "rank out of range");
}

}  // namespace

BcastResult run_binomial_bcast(sim::Network& net,
                               const std::vector<NodeId>& ranks, Bytes m) {
  check_ranks(net, ranks);
  auto st = make_state(net, ranks.size());
  st->delivered[0] = net.engine().now();
  binomial_issue(net, ranks, 0, ranks.size(), m, st);
  return collect(net, st);
}

BcastResult run_flat_bcast(sim::Network& net, const std::vector<NodeId>& ranks,
                           Bytes m) {
  check_ranks(net, ranks);
  auto st = make_state(net, ranks.size());
  st->delivered[0] = net.engine().now();
  for (std::size_t i = 1; i < ranks.size(); ++i)
    net.send(ranks[0], ranks[i], m, [st, i](Time t) { st->delivered[i] = t; });
  return collect(net, st);
}

BcastResult run_chain_bcast(sim::Network& net,
                            const std::vector<NodeId>& ranks, Bytes m) {
  check_ranks(net, ranks);
  auto st = make_state(net, ranks.size());
  st->delivered[0] = net.engine().now();

  // The handler lives on this frame: collect() drains the engine before
  // it returns, so every callback pointing at it runs while it exists.
  std::function<void(std::size_t, Time)> forward;
  forward = [&net, &ranks, m, &st, &forward](std::size_t i, Time t) {
    st->delivered[i] = t;
    if (i + 1 < ranks.size())
      net.send(ranks[i], ranks[i + 1], m,
               [&forward, i](Time tt) { forward(i + 1, tt); });
  };
  forward(0, net.engine().now());
  return collect(net, st);
}

BcastResult run_segmented_chain_bcast(sim::Network& net,
                                      const std::vector<NodeId>& ranks,
                                      Bytes m, Bytes segment) {
  check_ranks(net, ranks);
  GRIDCAST_ASSERT(segment > 0, "segment size must be positive");
  const Bytes seg = std::min(segment, m > 0 ? m : Bytes{1});
  const std::uint64_t full = m / seg;
  const Bytes tail = m % seg;
  const std::uint64_t segments = full + (tail > 0 ? 1 : 0);
  if (segments <= 1 || ranks.size() == 1) return run_chain_bcast(net, ranks, m);

  auto st = make_state(net, ranks.size());
  st->delivered[0] = net.engine().now();
  std::vector<std::uint64_t> remaining(ranks.size(), segments);
  remaining[0] = 0;

  // On this frame, like run_chain_bcast's handler: collect() drains the
  // engine before it returns.
  std::function<void(std::size_t, Bytes, Time)> forward;
  forward = [&net, &ranks, &st, &remaining, &forward](std::size_t i, Bytes sz,
                                                      Time t) {
    if (--remaining[i] == 0) st->delivered[i] = t;
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
  return collect(net, st);
}

namespace {

/// Binomial issue over explicit global ranks, recording deliveries by
/// global rank (unlike binomial_issue, which records by position).
void binomial_issue_global(sim::Network& net, std::vector<NodeId> ranks,
                           Bytes m, const std::shared_ptr<BcastState>& st) {
  struct Issue {
    sim::Network& net;
    std::shared_ptr<BcastState> st;
    std::vector<NodeId> ranks;
    Bytes m;
    void go(std::size_t lo, std::size_t hi,
            const std::shared_ptr<Issue>& self) {
      const std::size_t n = hi - lo;
      if (n <= 1) return;
      const std::size_t child_side = n / 2;
      const std::size_t mid = lo + (n - child_side);
      net.send(ranks[lo], ranks[mid], m, [self, mid, hi](Time t) {
        self->st->delivered[self->ranks[mid]] = t;
        self->go(mid, hi, self);
      });
      go(lo, mid, self);
    }
  };
  auto issue = std::make_shared<Issue>(Issue{net, st, std::move(ranks), m});
  issue->go(0, issue->ranks.size(), issue);
}

}  // namespace

BcastResult run_hierarchical_bcast(sim::Network& net, ClusterId root_cluster,
                                   const sched::SendOrder& order, Bytes m,
                                   IntraOrder intra_order) {
  const auto& grid = net.grid();
  const auto n_clusters = grid.cluster_count();
  GRIDCAST_ASSERT(root_cluster < n_clusters, "root cluster out of range");
  GRIDCAST_ASSERT(order.size() == n_clusters - 1,
                  "send order must cover every non-root cluster");

  auto st = make_state(net, net.ranks());

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
  on_receive = [&net, &grid, &st, &outgoing, coord, &on_receive, m,
                intra_order](ClusterId c, Time t) {
    const NodeId me = coord(c);
    st->delivered[me] = t;

    const auto relay = [&] {
      for (const ClusterId dst : outgoing[c])
        net.send(me, coord(dst), m,
                 [&on_receive, dst](Time tt) { on_receive(dst, tt); });
    };
    const auto local_tree = [&] {
      const std::uint32_t size = grid.cluster(c).size();
      if (size <= 1) return;
      std::vector<NodeId> local;
      local.reserve(size);
      for (NodeId l = 0; l < size; ++l)
        local.push_back(grid.global_rank(c, l));
      binomial_issue_global(net, std::move(local), m, st);
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
  return collect(net, st);
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
