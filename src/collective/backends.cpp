#include "collective/backends.hpp"

#include "collective/alltoall.hpp"
#include "collective/bcast.hpp"
#include "collective/scatter.hpp"
#include "plogp/hierarchical_predict.hpp"
#include "sched/order_memo.hpp"
#include "support/error.hpp"

namespace gridcast::collective {

namespace {

/// Everything an executed collective reports beyond the delivery vector
/// comes from the Network's counters; the Network is fresh per call, so
/// totals are the collective's own.
CollectiveResult from_network(std::vector<Time> delivered, Time completion,
                              const sim::Network& net) {
  CollectiveResult r;
  r.delivered = std::move(delivered);
  r.per_rank = true;
  r.completion = completion;
  r.messages = net.messages();
  r.wan_messages = net.inter_cluster_messages();
  r.bytes = net.bytes_sent();
  r.wan_bytes = net.inter_cluster_bytes();
  return r;
}

}  // namespace

SimBackend::SimBackend(const topology::Grid& grid, sim::JitterConfig jitter)
    : grid_(&grid), jitter_(jitter) {}

bool SimBackend::supports(Verb v) const noexcept {
  switch (v) {
    case Verb::kBcast:
    case Verb::kScatter:
    case Verb::kAlltoall:
      return true;
  }
  return false;
}

CollectiveResult SimBackend::bcast(const sched::SchedulerEntry& sched,
                                   const sched::SchedulerRuntimeInfo& info,
                                   std::uint64_t seed) const {
  GRIDCAST_ASSERT(info.clusters() == grid_->cluster_count(),
                  "runtime info was derived for a different grid");
  sim::Network net(*grid_, jitter_, seed);
  // The info-taking overload asserts sched.can_schedule(info) — the
  // Backend::bcast contract — before executing the order.
  BcastResult b = run_hierarchical_bcast(net, sched, info);
  return from_network(std::move(b.delivered), b.completion, net);
}

CollectiveResult SimBackend::baseline_bcast(ClusterId root_cluster, Bytes m,
                                            std::uint64_t seed) const {
  sim::Network net(*grid_, jitter_, seed);
  BcastResult b = run_grid_unaware_binomial(net, root_cluster, m);
  return from_network(std::move(b.delivered), b.completion, net);
}

CollectiveResult SimBackend::scatter(const sched::SchedulerEntry& sched,
                                     ClusterId root_cluster, Bytes block,
                                     std::uint64_t seed) const {
  sim::Network net(*grid_, jitter_, seed);
  ScatterResult s = run_hierarchical_scatter(net, root_cluster, block, sched);
  return from_network(std::move(s.delivered), s.completion, net);
}

CollectiveResult SimBackend::alltoall(const sched::SchedulerEntry& sched,
                                      Bytes block, std::uint64_t seed) const {
  sim::Network net(*grid_, jitter_, seed);
  AlltoallResult a = run_hierarchical_alltoall(net, block, sched);
  return from_network(std::move(a.completed), a.completion, net);
}

CollectiveResult PlogpBackend::bcast(const sched::SchedulerEntry& sched,
                                     const sched::SchedulerRuntimeInfo& info,
                                     std::uint64_t /*seed*/) const {
  GRIDCAST_ASSERT(sched.can_schedule(info),
                  "scheduler cannot handle this instance");
  sched::Schedule s = sched::schedule_of(sched, info);
  CollectiveResult r;
  r.messages = s.transfers.size();
  r.wan_messages = s.transfers.size();  // every modelled transfer is WAN
  r.delivered = std::move(s.cluster_finish);
  r.per_rank = false;
  r.completion = s.makespan;
  return r;
}

namespace {

CollectiveResult from_prediction(plogp::HierarchicalPrediction p) {
  CollectiveResult r;
  r.delivered = std::move(p.cluster_finish);
  r.per_rank = false;
  r.completion = p.completion;
  r.messages = p.messages;
  r.wan_messages = p.wan_messages;
  r.bytes = p.bytes;
  r.wan_bytes = p.wan_bytes;
  return r;
}

}  // namespace

const topology::Grid& PlogpBackend::grid_for(Verb v) const {
  if (grid_ == nullptr)
    throw InvalidInput("backend 'plogp' predicts " +
                       std::string(verb_name(v)) +
                       " from a grid's gap functions: construct it with "
                       "BackendOptions::grid set");
  return *grid_;
}

CollectiveResult PlogpBackend::scatter(const sched::SchedulerEntry& sched,
                                       ClusterId root_cluster, Bytes block,
                                       std::uint64_t /*seed*/) const {
  const topology::Grid& grid = grid_for(Verb::kScatter);
  // The same injection sequence the executing backend would run, predicted
  // in closed form instead of simulated message by message.
  const std::vector<ClusterId> order =
      scatter_wan_order(grid, root_cluster, block, sched);
  return from_prediction(
      plogp::predict_hierarchical_scatter(grid, root_cluster, block, order));
}

CollectiveResult PlogpBackend::alltoall(const sched::SchedulerEntry& sched,
                                        Bytes block,
                                        std::uint64_t /*seed*/) const {
  const topology::Grid& grid = grid_for(Verb::kAlltoall);
  return from_prediction(plogp::predict_hierarchical_alltoall(
      grid, block, alltoall_dest_order(grid, block, sched)));
}

}  // namespace gridcast::collective
