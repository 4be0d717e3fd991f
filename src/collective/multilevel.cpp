#include "collective/multilevel.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "support/error.hpp"

namespace gridcast::collective {

SiteMap sites_by_latency(const topology::Grid& grid, Time site_threshold) {
  const auto n = static_cast<ClusterId>(grid.cluster_count());
  SiteMap site(n, UINT32_MAX);
  std::uint32_t next_site = 0;
  for (ClusterId c = 0; c < n; ++c) {
    if (site[c] != UINT32_MAX) continue;
    site[c] = next_site;
    for (ClusterId d = static_cast<ClusterId>(c + 1); d < n; ++d) {
      if (site[d] != UINT32_MAX) continue;
      if (grid.link(c, d).L < site_threshold) site[d] = next_site;
    }
    ++next_site;
  }
  return site;
}

BcastResult run_multilevel_bcast(sim::Network& net, ClusterId root_cluster,
                                 const SiteMap& sites, Bytes m) {
  const auto& grid = net.grid();
  const auto n = static_cast<ClusterId>(grid.cluster_count());
  GRIDCAST_ASSERT(root_cluster < n, "root cluster out of range");
  GRIDCAST_ASSERT(sites.size() == n, "site map size mismatch");

  // Gateways: the lowest-id cluster of each site, except the root's site
  // whose gateway is the root itself.
  std::vector<ClusterId> gateway_of_site;
  std::vector<std::vector<ClusterId>> clusters_of_site;
  for (ClusterId c = 0; c < n; ++c) {
    const std::uint32_t s = sites[c];
    if (s >= clusters_of_site.size()) {
      clusters_of_site.resize(s + 1);
      gateway_of_site.resize(s + 1, kNoCluster);
    }
    clusters_of_site[s].push_back(c);
    if (gateway_of_site[s] == kNoCluster) gateway_of_site[s] = c;
  }
  gateway_of_site[sites[root_cluster]] = root_cluster;

  struct State {
    std::vector<Time> delivered;
    std::uint64_t base_messages;
  };
  auto st = std::make_shared<State>();
  st->delivered.assign(net.ranks(), 0.0);
  st->base_messages = net.messages();

  const auto coord = [&grid](ClusterId c) { return grid.global_rank(c, 0); };

  // Level 2: local binomial once a coordinator holds the payload.
  const auto local_tree = [&net, &grid, st, m](ClusterId c) {
    const std::uint32_t size = grid.cluster(c).size();
    if (size <= 1) return;
    struct Issue {
      sim::Network& net;
      std::shared_ptr<State> st;
      std::vector<NodeId> ranks;
      Bytes m;
      void go(std::size_t lo, std::size_t hi,
              const std::shared_ptr<Issue>& self) {
        const std::size_t cnt = hi - lo;
        if (cnt <= 1) return;
        const std::size_t child_side = cnt / 2;
        const std::size_t mid = lo + (cnt - child_side);
        net.send(ranks[lo], ranks[mid], m, [self, mid, hi](Time t) {
          self->st->delivered[self->ranks[mid]] = t;
          self->go(mid, hi, self);
        });
        go(lo, mid, self);
      }
    };
    std::vector<NodeId> local;
    local.reserve(size);
    for (NodeId l = 0; l < size; ++l) local.push_back(grid.global_rank(c, l));
    auto issue = std::make_shared<Issue>(Issue{net, st, std::move(local), m});
    issue->go(0, issue->ranks.size(), issue);
  };

  // Level 1: a gateway flat-trees to its site's other coordinators, then
  // broadcasts locally; plain coordinators go straight to level 2.  The
  // handler lives on this frame: the engine drains below, before return.
  std::function<void(ClusterId, Time)> on_coordinator;
  on_coordinator = [&net, &st, coord, &clusters_of_site, &sites,
                    &gateway_of_site, &local_tree, &on_coordinator,
                    m](ClusterId c, Time t) {
    const NodeId me = coord(c);
    st->delivered[me] = t;
    if (gateway_of_site[sites[c]] == c) {
      for (const ClusterId d : clusters_of_site[sites[c]]) {
        if (d == c) continue;
        net.send(me, coord(d), m,
                 [&on_coordinator, d](Time tt) { on_coordinator(d, tt); });
      }
    }
    local_tree(c);
  };

  // Level 0: the root flat-trees to every remote site's gateway.
  const NodeId root_rank = coord(root_cluster);
  st->delivered[root_rank] = net.engine().now();
  for (std::uint32_t s = 0; s < gateway_of_site.size(); ++s) {
    if (gateway_of_site[s] == kNoCluster || s == sites[root_cluster])
      continue;
    const ClusterId gw = gateway_of_site[s];
    net.send(root_rank, coord(gw), m,
             [&on_coordinator, gw](Time t) { on_coordinator(gw, t); });
  }
  // The root is its own site's gateway: serve its site and its cluster.
  on_coordinator(root_cluster, net.engine().now());

  net.engine().run();
  BcastResult r;
  r.delivered = st->delivered;
  r.completion =
      *std::max_element(r.delivered.begin(), r.delivered.end());
  r.messages = net.messages() - st->base_messages;
  return r;
}

}  // namespace gridcast::collective
