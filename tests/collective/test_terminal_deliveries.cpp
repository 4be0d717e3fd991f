// Terminal deliveries: the executors record a delivery that issues no
// further send from the timing `sim::Network::send` returns, instead of
// routing it through the event calendar.  Checked here: every collective
// against calendar-routed reference bodies, bit for bit; the engine events
// that remain; and the one-collective-per-Network contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "collective/alltoall.hpp"
#include "collective/bcast.hpp"
#include "collective/multilevel.hpp"
#include "collective/scatter.hpp"
#include "sched/instance.hpp"
#include "sched/registry.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topology/generator.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::collective {
namespace {

/// The executors with every delivery on the calendar: each one, terminal
/// or not, is an engine event whose handler records it.  The oracle the
/// executors must match bit for bit.
namespace reference {

struct Delivered {
  std::vector<Time> at;
};

void binomial_issue(sim::Network& net, const std::vector<NodeId>& ranks,
                    std::size_t lo, std::size_t hi, Bytes m,
                    const std::shared_ptr<Delivered>& st) {
  const std::size_t n = hi - lo;
  if (n <= 1) return;
  const std::size_t child_side = n / 2;
  const std::size_t mid = lo + (n - child_side);
  net.send(ranks[lo], ranks[mid], m,
           [&net, &ranks, lo = mid, hi, m, st](Time t) {
             st->at[lo] = t;
             binomial_issue(net, ranks, lo, hi, m, st);
           });
  binomial_issue(net, ranks, lo, mid, m, st);
}

/// Binomial issue over explicit global ranks, recording by global rank.
void binomial_issue_global(sim::Network& net, std::vector<NodeId> ranks,
                           Bytes m, const std::shared_ptr<Delivered>& st) {
  struct Issue {
    sim::Network& net;
    std::shared_ptr<Delivered> st;
    std::vector<NodeId> ranks;
    Bytes m;
    void go(std::size_t lo, std::size_t hi,
            const std::shared_ptr<Issue>& self) {
      const std::size_t n = hi - lo;
      if (n <= 1) return;
      const std::size_t child_side = n / 2;
      const std::size_t mid = lo + (n - child_side);
      net.send(ranks[lo], ranks[mid], m, [self, mid, hi](Time t) {
        self->st->at[self->ranks[mid]] = t;
        self->go(mid, hi, self);
      });
      go(lo, mid, self);
    }
  };
  auto issue = std::make_shared<Issue>(Issue{net, st, std::move(ranks), m});
  issue->go(0, issue->ranks.size(), issue);
}

void local_tree(sim::Network& net, ClusterId c, Bytes m,
                const std::shared_ptr<Delivered>& st) {
  const std::uint32_t size = net.grid().cluster(c).size();
  if (size <= 1) return;
  std::vector<NodeId> local;
  for (NodeId l = 0; l < size; ++l)
    local.push_back(net.grid().global_rank(c, l));
  binomial_issue_global(net, std::move(local), m, st);
}

std::shared_ptr<Delivered> rooted(sim::Network& net, std::size_t n) {
  auto st = std::make_shared<Delivered>();
  st->at.assign(n, 0.0);
  st->at[0] = net.engine().now();
  return st;
}

BcastResult collect(sim::Network& net, const std::shared_ptr<Delivered>& st) {
  net.engine().run();
  BcastResult r;
  r.delivered = st->at;
  r.completion = *std::max_element(r.delivered.begin(), r.delivered.end());
  r.messages = net.messages();
  return r;
}

BcastResult binomial(sim::Network& net, const std::vector<NodeId>& ranks,
                     Bytes m) {
  auto st = rooted(net, ranks.size());
  binomial_issue(net, ranks, 0, ranks.size(), m, st);
  return collect(net, st);
}

BcastResult flat(sim::Network& net, const std::vector<NodeId>& ranks,
                 Bytes m) {
  auto st = rooted(net, ranks.size());
  for (std::size_t i = 1; i < ranks.size(); ++i)
    net.send(ranks[0], ranks[i], m, [st, i](Time t) { st->at[i] = t; });
  return collect(net, st);
}

BcastResult chain(sim::Network& net, const std::vector<NodeId>& ranks,
                  Bytes m) {
  auto st = rooted(net, ranks.size());
  std::function<void(std::size_t, Time)> forward;
  forward = [&net, &ranks, m, &st, &forward](std::size_t i, Time t) {
    st->at[i] = t;
    if (i + 1 < ranks.size())
      net.send(ranks[i], ranks[i + 1], m,
               [&forward, i](Time tt) { forward(i + 1, tt); });
  };
  forward(0, net.engine().now());
  return collect(net, st);
}

BcastResult segmented_chain(sim::Network& net,
                            const std::vector<NodeId>& ranks, Bytes m,
                            Bytes segment) {
  const Bytes seg = std::min(segment, m > 0 ? m : Bytes{1});
  const std::uint64_t full = m / seg;
  const Bytes tail = m % seg;
  const std::uint64_t segments = full + (tail > 0 ? 1 : 0);
  if (segments <= 1 || ranks.size() == 1) return chain(net, ranks, m);

  auto st = rooted(net, ranks.size());
  std::vector<std::uint64_t> remaining(ranks.size(), segments);
  remaining[0] = 0;
  std::function<void(std::size_t, Bytes, Time)> forward;
  forward = [&net, &ranks, &st, &remaining, &forward](std::size_t i, Bytes sz,
                                                      Time t) {
    if (--remaining[i] == 0) st->at[i] = t;
    if (i + 1 < ranks.size())
      net.send(ranks[i], ranks[i + 1], sz,
               [&forward, i, sz](Time tt) { forward(i + 1, sz, tt); });
  };
  for (std::uint64_t s = 0; s < segments; ++s) {
    const Bytes sz = (s == segments - 1 && tail > 0) ? tail : seg;
    net.send(ranks[0], ranks[1], sz,
             [&forward, sz](Time tt) { forward(1, sz, tt); });
  }
  return collect(net, st);
}

BcastResult hierarchical(sim::Network& net, ClusterId root_cluster,
                         const sched::SendOrder& order, Bytes m,
                         IntraOrder intra_order) {
  const auto& grid = net.grid();
  auto st = std::make_shared<Delivered>();
  st->at.assign(net.ranks(), 0.0);
  std::vector<std::vector<ClusterId>> outgoing(grid.cluster_count());
  for (const auto& [s, r] : order) outgoing[s].push_back(r);
  const auto coord = [&grid](ClusterId c) { return grid.global_rank(c, 0); };

  std::function<void(ClusterId, Time)> on_receive;
  on_receive = [&net, &st, &outgoing, coord, &on_receive, m,
                intra_order](ClusterId c, Time t) {
    const NodeId me = coord(c);
    st->at[me] = t;
    const auto relay = [&] {
      for (const ClusterId dst : outgoing[c])
        net.send(me, coord(dst), m,
                 [&on_receive, dst](Time tt) { on_receive(dst, tt); });
    };
    if (intra_order == IntraOrder::kRelayFirst) {
      relay();
      local_tree(net, c, m, st);
    } else {
      local_tree(net, c, m, st);
      relay();
    }
  };
  on_receive(root_cluster, net.engine().now());
  return collect(net, st);
}

BcastResult grid_unaware_binomial(sim::Network& net, ClusterId root_cluster,
                                  Bytes m) {
  std::vector<NodeId> ranks;
  const NodeId root = net.grid().global_rank(root_cluster, 0);
  ranks.push_back(root);
  for (NodeId r = 0; r < net.ranks(); ++r)
    if (r != root) ranks.push_back(r);
  return binomial(net, ranks, m);
}

BcastResult multilevel(sim::Network& net, ClusterId root_cluster,
                       const SiteMap& sites, Bytes m) {
  const auto& grid = net.grid();
  const auto n = static_cast<ClusterId>(grid.cluster_count());
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

  auto st = std::make_shared<Delivered>();
  st->at.assign(net.ranks(), 0.0);
  const auto coord = [&grid](ClusterId c) { return grid.global_rank(c, 0); };
  std::function<void(ClusterId, Time)> on_coordinator;
  on_coordinator = [&net, &st, coord, &clusters_of_site, &sites,
                    &gateway_of_site, &on_coordinator, m](ClusterId c,
                                                          Time t) {
    const NodeId me = coord(c);
    st->at[me] = t;
    if (gateway_of_site[sites[c]] == c) {
      for (const ClusterId d : clusters_of_site[sites[c]]) {
        if (d == c) continue;
        net.send(me, coord(d), m,
                 [&on_coordinator, d](Time tt) { on_coordinator(d, tt); });
      }
    }
    local_tree(net, c, m, st);
  };
  const NodeId root_rank = coord(root_cluster);
  st->at[root_rank] = net.engine().now();
  for (std::uint32_t s = 0; s < gateway_of_site.size(); ++s) {
    if (gateway_of_site[s] == kNoCluster || s == sites[root_cluster])
      continue;
    const ClusterId gw = gateway_of_site[s];
    net.send(root_rank, coord(gw), m,
             [&on_coordinator, gw](Time t) { on_coordinator(gw, t); });
  }
  on_coordinator(root_cluster, net.engine().now());
  return collect(net, st);
}

ScatterResult scatter_result(sim::Network& net,
                             const std::shared_ptr<Delivered>& st) {
  net.engine().run();
  ScatterResult r;
  r.delivered = st->at;
  r.completion = *std::max_element(r.delivered.begin(), r.delivered.end());
  r.messages = net.messages();
  r.wan_messages = net.inter_cluster_messages();
  r.bytes = net.bytes_sent();
  r.wan_bytes = net.inter_cluster_bytes();
  return r;
}

ScatterResult naive_scatter(sim::Network& net, ClusterId root_cluster,
                            Bytes block) {
  auto st = std::make_shared<Delivered>();
  st->at.assign(net.ranks(), 0.0);
  const NodeId root = net.grid().global_rank(root_cluster, 0);
  st->at[root] = net.engine().now();
  for (NodeId r = 0; r < net.ranks(); ++r) {
    if (r == root) continue;
    net.send(root, r, block, [st, r](Time t) { st->at[r] = t; });
  }
  return scatter_result(net, st);
}

ScatterResult hierarchical_scatter(sim::Network& net, ClusterId root_cluster,
                                   Bytes block,
                                   const std::vector<ClusterId>& remote) {
  const auto& grid = net.grid();
  auto st = std::make_shared<Delivered>();
  st->at.assign(net.ranks(), 0.0);
  const NodeId root = grid.global_rank(root_cluster, 0);
  st->at[root] = net.engine().now();
  for (const ClusterId c : remote) {
    const NodeId coord = grid.global_rank(c, 0);
    const std::uint32_t size = grid.cluster(c).size();
    const Bytes aggregate = static_cast<Bytes>(size) * block;
    net.send(root, coord, aggregate,
             [&net, &grid, st, c, coord, block, size](Time t) {
               st->at[coord] = t;
               for (NodeId l = 1; l < size; ++l) {
                 const NodeId dst = grid.global_rank(c, l);
                 net.send(coord, dst, block,
                          [st, dst](Time tt) { st->at[dst] = tt; });
               }
             });
  }
  const std::uint32_t root_size = grid.cluster(root_cluster).size();
  for (NodeId l = 1; l < root_size; ++l) {
    const NodeId dst = grid.global_rank(root_cluster, l);
    net.send(root, dst, block, [st, dst](Time t) { st->at[dst] = t; });
  }
  return scatter_result(net, st);
}

/// run_hierarchical_scatter's default WAN sequence: largest cluster first.
std::vector<ClusterId> size_sorted_remote(const topology::Grid& grid,
                                          ClusterId root_cluster) {
  std::vector<ClusterId> remote;
  for (ClusterId c = 0; c < grid.cluster_count(); ++c)
    if (c != root_cluster) remote.push_back(c);
  std::sort(remote.begin(), remote.end(), [&](ClusterId a, ClusterId b) {
    return grid.cluster(a).size() > grid.cluster(b).size();
  });
  return remote;
}

struct Exchange {
  std::vector<Time> completed;
  std::vector<std::uint32_t> pending;
  void arrived(NodeId dst, Time t) {
    GRIDCAST_ASSERT(pending[dst] > 0, "unexpected arrival");
    completed[dst] = std::max(completed[dst], t);
    --pending[dst];
  }
};

AlltoallResult alltoall_result(sim::Network& net,
                               const std::shared_ptr<Exchange>& st) {
  net.engine().run();
  for (const auto p : st->pending)
    GRIDCAST_ASSERT(p == 0, "alltoall finished with missing blocks");
  AlltoallResult r;
  r.completed = st->completed;
  r.completion = *std::max_element(r.completed.begin(), r.completed.end());
  r.messages = net.messages();
  r.wan_messages = net.inter_cluster_messages();
  r.bytes = net.bytes_sent();
  r.wan_bytes = net.inter_cluster_bytes();
  return r;
}

AlltoallResult naive_alltoall(sim::Network& net, Bytes block) {
  const auto n = net.ranks();
  auto st = std::make_shared<Exchange>();
  st->completed.assign(n, 0.0);
  st->pending.assign(n, n - 1);
  for (NodeId src = 0; src < n; ++src) {
    for (std::uint32_t k = 1; k < n; ++k) {
      const NodeId dst = static_cast<NodeId>((src + k) % n);
      net.send(src, dst, block, [st, dst](Time t) { st->arrived(dst, t); });
    }
  }
  return alltoall_result(net, st);
}

AlltoallResult hierarchical_alltoall(
    sim::Network& net, Bytes block,
    const std::vector<std::vector<ClusterId>>& dest_order) {
  const auto& grid = net.grid();
  const auto n = net.ranks();
  const auto n_clusters = static_cast<ClusterId>(grid.cluster_count());
  auto st = std::make_shared<Exchange>();
  st->completed.assign(n, 0.0);
  st->pending.assign(n, 0);
  const auto coord = [&grid](ClusterId c) { return grid.global_rank(c, 0); };
  for (NodeId r = 0; r < n; ++r) {
    const auto [c, l] = grid.locate(r);
    st->pending[r] = grid.cluster(c).size() - 1 + (n_clusters - 1);
  }
  for (ClusterId c = 0; c < n_clusters; ++c) {
    const std::uint32_t size = grid.cluster(c).size();
    for (NodeId a = 0; a < size; ++a) {
      const NodeId src = grid.global_rank(c, a);
      for (std::uint32_t k = 1; k < size; ++k) {
        const NodeId dst = grid.global_rank(c, (a + k) % size);
        net.send(src, dst, block, [st, dst](Time t) { st->arrived(dst, t); });
      }
    }
  }

  auto gathered = std::make_shared<std::vector<std::uint32_t>>();
  gathered->assign(n_clusters, 0);
  const auto maybe_exchange = [&net, &grid, st, coord, gathered, block,
                               &dest_order](ClusterId c) {
    if ((*gathered)[c] < grid.cluster(c).size() - 1) return;
    (*gathered)[c] = UINT32_MAX;
    const std::uint32_t size_c = grid.cluster(c).size();
    for (const ClusterId d : dest_order[c]) {
      if (d == c) continue;
      const Bytes aggregate = static_cast<Bytes>(size_c) *
                              static_cast<Bytes>(grid.cluster(d).size()) *
                              block;
      net.send(coord(c), coord(d), aggregate,
               [&net, &grid, st, coord, block, d, size_c](Time t) {
                 const NodeId me = coord(d);
                 st->arrived(me, t);
                 for (NodeId l = 1; l < grid.cluster(d).size(); ++l) {
                   const NodeId dst = grid.global_rank(d, l);
                   net.send(me, dst, static_cast<Bytes>(size_c) * block,
                            [st, dst](Time tt) { st->arrived(dst, tt); });
                 }
               });
    }
  };
  for (ClusterId c = 0; c < n_clusters; ++c) {
    const std::uint32_t size = grid.cluster(c).size();
    const Bytes remote_blocks = static_cast<Bytes>(n - size) * block;
    if (size == 1 || remote_blocks == 0) {
      maybe_exchange(c);
      continue;
    }
    for (NodeId l = 1; l < size; ++l)
      net.send(grid.global_rank(c, l), coord(c), remote_blocks,
               [&maybe_exchange, gathered, c](Time) {
                 ++(*gathered)[c];
                 maybe_exchange(c);
               });
  }
  return alltoall_result(net, st);
}

/// run_hierarchical_alltoall's default sequence: ascending cluster id.
std::vector<std::vector<ClusterId>> ascending(const topology::Grid& grid) {
  const auto n = static_cast<ClusterId>(grid.cluster_count());
  std::vector<std::vector<ClusterId>> dest_order(n);
  for (ClusterId c = 0; c < n; ++c)
    for (ClusterId d = 0; d < n; ++d)
      if (d != c) dest_order[c].push_back(d);
  return dest_order;
}

}  // namespace reference

/// What one run of a collective reports, reduced to comparable bits.
struct Outcome {
  std::vector<std::uint64_t> times;  ///< delivered / completed, as bits
  std::uint64_t completion = 0;      ///< as bits
  std::uint64_t messages = 0;
  std::uint64_t wan_messages = 0;
  Bytes bytes = 0;
  Bytes wan_bytes = 0;
  std::uint64_t events = 0;  ///< engine events the run processed

  bool operator==(const Outcome&) const = default;
};

Outcome bits(const std::vector<Time>& times, Time completion,
             std::uint64_t messages, sim::Network& net) {
  Outcome o;
  for (const Time t : times) o.times.push_back(std::bit_cast<std::uint64_t>(t));
  o.completion = std::bit_cast<std::uint64_t>(completion);
  o.messages = messages;
  o.wan_messages = net.inter_cluster_messages();
  o.bytes = net.bytes_sent();
  o.wan_bytes = net.inter_cluster_bytes();
  o.events = net.engine().processed();
  return o;
}

Outcome outcome(const BcastResult& r, sim::Network& net) {
  return bits(r.delivered, r.completion, r.messages, net);
}

template <typename R>
Outcome outcome(const R& r, sim::Network& net) {
  const std::vector<Time>* times;
  if constexpr (std::is_same_v<R, ScatterResult>)
    times = &r.delivered;
  else
    times = &r.completed;
  Outcome o = bits(*times, r.completion, r.messages, net);
  // The result's own byte counters must agree with the network's.
  EXPECT_EQ(r.wan_messages, o.wan_messages);
  EXPECT_EQ(r.bytes, o.bytes);
  EXPECT_EQ(r.wan_bytes, o.wan_bytes);
  return o;
}

/// The grid the simulated all-to-all workload runs on: 16 clusters on 4
/// sites, links and intra-cluster parameters drawn by random_grid, cluster
/// sizes 16, 18, ..., 46 (496 ranks).
topology::Grid sixteen_clusters() {
  topology::GeneratorConfig cfg;
  cfg.clusters = 16;
  cfg.sites = 4;
  Rng rng = Rng::stream(17, 0);
  const topology::Grid drawn = topology::random_grid(cfg, rng);
  std::vector<topology::Cluster> clusters;
  for (ClusterId c = 0; c < cfg.clusters; ++c) {
    const topology::Cluster& d = drawn.cluster(c);
    clusters.emplace_back(d.name(), 16 + 2 * c, d.intra(), d.algorithm());
  }
  topology::Grid grid(std::move(clusters));
  for (ClusterId i = 0; i < cfg.clusters; ++i)
    for (ClusterId j = 0; j < cfg.clusters; ++j)
      if (i != j) grid.set_link(i, j, drawn.link(i, j));
  grid.validate();
  return grid;
}

const topology::Grid& grid_named(const std::string& name) {
  static const topology::Grid testbed = topology::grid5000_testbed();
  static const topology::Grid sixteen = sixteen_clusters();
  return name == "testbed" ? testbed : sixteen;
}

constexpr ClusterId kRoot = 1;
constexpr Bytes kSegment = KiB(64);
constexpr std::uint64_t kSeed = 11;

std::vector<NodeId> all_ranks(const topology::Grid& grid) {
  std::vector<NodeId> ranks(grid.total_nodes());
  for (NodeId r = 0; r < ranks.size(); ++r) ranks[r] = r;
  return ranks;
}

/// One collective under test: the executor and its calendar-routed
/// reference, each run on a fresh Network.
struct Collective {
  std::string name;
  std::function<Outcome(sim::Network&, Bytes)> current;
  std::function<Outcome(sim::Network&, Bytes)> reference;
};

std::vector<Collective> collectives(const topology::Grid& grid) {
  namespace ref = reference;
  static const sched::SchedulerEntryPtr entry =
      sched::registry().make("ECEF-LAT");
  const sched::SchedulerEntry* e = entry.get();
  const topology::Grid* g = &grid;
  const auto ranks = std::make_shared<std::vector<NodeId>>(all_ranks(grid));
  const SiteMap sites = sites_by_latency(grid);
  const auto hierarchical = [e, g](IntraOrder io) {
    return Collective{
        io == IntraOrder::kRelayFirst ? "hierarchical_relay_first"
                                      : "hierarchical_local_first",
        [e, io](sim::Network& net, Bytes m) {
          return outcome(run_hierarchical_bcast(net, kRoot, *e, m, io), net);
        },
        [e, g, io](sim::Network& net, Bytes m) {
          const sched::Instance inst = sched::Instance::from_grid(*g, kRoot, m);
          const sched::SendOrder order =
              e->order(sched::SchedulerRuntimeInfo(inst, m));
          return outcome(ref::hierarchical(net, kRoot, order, m, io), net);
        }};
  };
  return {
      {"binomial",
       [ranks](sim::Network& net, Bytes m) {
         return outcome(run_binomial_bcast(net, *ranks, m), net);
       },
       [ranks](sim::Network& net, Bytes m) {
         return outcome(ref::binomial(net, *ranks, m), net);
       }},
      {"flat",
       [ranks](sim::Network& net, Bytes m) {
         return outcome(run_flat_bcast(net, *ranks, m), net);
       },
       [ranks](sim::Network& net, Bytes m) {
         return outcome(ref::flat(net, *ranks, m), net);
       }},
      {"chain",
       [ranks](sim::Network& net, Bytes m) {
         return outcome(run_chain_bcast(net, *ranks, m), net);
       },
       [ranks](sim::Network& net, Bytes m) {
         return outcome(ref::chain(net, *ranks, m), net);
       }},
      {"segmented_chain",
       [ranks](sim::Network& net, Bytes m) {
         return outcome(run_segmented_chain_bcast(net, *ranks, m, kSegment),
                        net);
       },
       [ranks](sim::Network& net, Bytes m) {
         return outcome(ref::segmented_chain(net, *ranks, m, kSegment), net);
       }},
      hierarchical(IntraOrder::kRelayFirst),
      hierarchical(IntraOrder::kLocalFirst),
      {"grid_unaware_binomial",
       [](sim::Network& net, Bytes m) {
         return outcome(run_grid_unaware_binomial(net, kRoot, m), net);
       },
       [](sim::Network& net, Bytes m) {
         return outcome(ref::grid_unaware_binomial(net, kRoot, m), net);
       }},
      {"multilevel",
       [sites](sim::Network& net, Bytes m) {
         return outcome(run_multilevel_bcast(net, kRoot, sites, m), net);
       },
       [sites](sim::Network& net, Bytes m) {
         return outcome(ref::multilevel(net, kRoot, sites, m), net);
       }},
      {"naive_scatter",
       [](sim::Network& net, Bytes b) {
         return outcome(run_naive_scatter(net, kRoot, b), net);
       },
       [](sim::Network& net, Bytes b) {
         return outcome(ref::naive_scatter(net, kRoot, b), net);
       }},
      {"hierarchical_scatter",
       [](sim::Network& net, Bytes b) {
         return outcome(run_hierarchical_scatter(net, kRoot, b), net);
       },
       [g](sim::Network& net, Bytes b) {
         return outcome(
             ref::hierarchical_scatter(net, kRoot, b,
                                       ref::size_sorted_remote(*g, kRoot)),
             net);
       }},
      {"hierarchical_scatter_sched",
       [e](sim::Network& net, Bytes b) {
         return outcome(run_hierarchical_scatter(net, kRoot, b, *e), net);
       },
       [e, g](sim::Network& net, Bytes b) {
         return outcome(
             ref::hierarchical_scatter(net, kRoot, b,
                                       scatter_wan_order(*g, kRoot, b, *e)),
             net);
       }},
      {"naive_alltoall",
       [](sim::Network& net, Bytes b) {
         return outcome(run_naive_alltoall(net, b), net);
       },
       [](sim::Network& net, Bytes b) {
         return outcome(ref::naive_alltoall(net, b), net);
       }},
      {"hierarchical_alltoall",
       [](sim::Network& net, Bytes b) {
         return outcome(run_hierarchical_alltoall(net, b), net);
       },
       [g](sim::Network& net, Bytes b) {
         return outcome(ref::hierarchical_alltoall(net, b, ref::ascending(*g)),
                        net);
       }},
      {"hierarchical_alltoall_sched",
       [e](sim::Network& net, Bytes b) {
         return outcome(run_hierarchical_alltoall(net, b, *e), net);
       },
       [e, g](sim::Network& net, Bytes b) {
         return outcome(ref::hierarchical_alltoall(
                            net, b, alltoall_dest_order(*g, b, *e)),
                        net);
       }},
  };
}

/// (grid, jitter fraction, message or block size)
using Point = std::tuple<std::string, double, Bytes>;

class TerminalDeliveries : public ::testing::TestWithParam<Point> {};

TEST_P(TerminalDeliveries, EveryCollectiveMatchesTheCalendarRoutedReference) {
  const auto& [grid_name, jitter, size] = GetParam();
  const topology::Grid& grid = grid_named(grid_name);
  for (const Collective& c : collectives(grid)) {
    SCOPED_TRACE(c.name);
    sim::Network now_net(grid, {jitter}, kSeed);
    sim::Network ref_net(grid, {jitter}, kSeed);
    Outcome now = c.current(now_net, size);
    Outcome ref = c.reference(ref_net, size);
    EXPECT_EQ(ref.events, ref.messages);  // every delivery an event
    EXPECT_LE(now.events, ref.events);
    now.events = ref.events = 0;  // compared on their own below
    EXPECT_EQ(now, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsJittersSizes, TerminalDeliveries,
    ::testing::Combine(::testing::Values("testbed", "sixteen"),
                       ::testing::Values(0.0, 0.05),
                       ::testing::Values(Bytes{1000}, KiB(256), MiB(4))),
    [](const ::testing::TestParamInfo<Point>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == 0.0 ? "_exact_" : "_jitter_") +
             std::to_string(std::get<2>(info.param));
    });

/// Engine events left per collective: only deliveries that send again.
/// With every delivery on the calendar each message is one event (87 / 495
/// for the broadcasts, 2,674 / 24,160 for the hierarchical all-to-all).
TEST(TerminalDeliveryEvents, OnlyDeliveriesThatSendAgainAreEvents) {
  struct Pin {
    std::string name;
    std::uint64_t testbed;
    std::uint64_t sixteen;
  };
  // Hierarchical all-to-all: one gather per non-coordinator rank plus one
  // exchange per ordered cluster pair, (ranks - clusters) + clusters *
  // (clusters - 1).  Hierarchical scatter: one per remote coordinator.
  const std::vector<Pin> pins = {
      {"binomial", 31, 239},
      {"flat", 0, 0},
      {"hierarchical_relay_first", 39, 203},
      {"hierarchical_local_first", 39, 203},
      {"grid_unaware_binomial", 31, 239},
      {"naive_scatter", 0, 0},
      {"hierarchical_scatter", 5, 15},
      {"hierarchical_scatter_sched", 5, 15},
      {"naive_alltoall", 0, 0},
      {"hierarchical_alltoall", 88 - 6 + 6 * 5, 496 - 16 + 16 * 15},
      {"hierarchical_alltoall_sched", 112, 720},
  };
  for (const std::string grid_name : {"testbed", "sixteen"}) {
    const topology::Grid& grid = grid_named(grid_name);
    const auto all = collectives(grid);
    for (const Pin& pin : pins) {
      SCOPED_TRACE(grid_name + " " + pin.name);
      const auto c = std::find_if(all.begin(), all.end(), [&](const auto& x) {
        return x.name == pin.name;
      });
      ASSERT_NE(c, all.end());
      sim::Network net(grid, {0.05}, kSeed);
      EXPECT_EQ(c->current(net, KiB(256)).events,
                grid_name == "testbed" ? pin.testbed : pin.sixteen);
    }
  }
}

// With one cluster the intra-cluster pairs are the whole hierarchical
// all-to-all, so their arrivals reach `completed`; on the grids above a
// later coordinator delivery to every rank masks them.
TEST(SingleCluster, IntraPairsAreTheWholeAlltoall) {
  const topology::Grid grid({grid_named("testbed").cluster(0)});
  for (const double jitter : {0.0, 0.05}) {
    sim::Network now_net(grid, {jitter}, kSeed);
    sim::Network ref_net(grid, {jitter}, kSeed);
    Outcome now = outcome(run_hierarchical_alltoall(now_net, KiB(4)), now_net);
    Outcome ref = outcome(reference::hierarchical_alltoall(
                              ref_net, KiB(4), reference::ascending(grid)),
                          ref_net);
    EXPECT_EQ(now.events, 0u);
    now.events = ref.events = 0;
    EXPECT_EQ(now, ref);
  }
}

TEST(OneCollectivePerNetwork, ASecondCollectiveOnAUsedNetworkThrows) {
  const topology::Grid& grid = grid_named("testbed");
  for (const Collective& c : collectives(grid)) {
    SCOPED_TRACE(c.name);
    sim::Network net(grid, {}, kSeed);
    (void)run_flat_bcast(net, {0, 1}, KiB(1));
    EXPECT_THROW((void)c.current(net, KiB(1)), LogicError);
  }
}

}  // namespace
}  // namespace gridcast::collective
