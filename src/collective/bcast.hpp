#pragma once

#include <vector>

#include "sched/schedule.hpp"
#include "sched/scheduler_entry.hpp"
#include "sim/network.hpp"
#include "support/types.hpp"

/// Executable broadcast algorithms (message-level, on the simulator).
///
/// These run the *actual* communication pattern — every point-to-point
/// message is simulated — and therefore "measure" completion the way the
/// paper's Section 7 measured its 88-machine runs.  The analytic
/// predictors in plogp/ are the Fig. 5 counterpart.
namespace gridcast::collective {

/// Outcome of one executed broadcast.
struct BcastResult {
  /// Delivery time per participating rank, indexed like the `ranks`
  /// argument (the root's entry is its start time).
  std::vector<Time> delivered;
  Time completion = 0.0;         ///< max over delivered
  std::uint64_t messages = 0;    ///< point-to-point sends executed
};

/// Binomial-tree broadcast over `ranks` (ranks[0] is the tree root), the
/// MPI default and the paper's intra-cluster strategy.  The tree shape
/// matches plogp::predict_binomial_bcast exactly.
[[nodiscard]] BcastResult run_binomial_bcast(sim::Network& net,
                                             const std::vector<NodeId>& ranks,
                                             Bytes m);

/// Coordinator NIC policy for the two-level broadcast (DESIGN.md §4.4).
enum class IntraOrder : std::uint8_t {
  /// Relay to other clusters first, local broadcast after the last
  /// injection — MagPIe semantics and the paper's cost model.
  kRelayFirst,
  /// Start the local broadcast before relaying (ablation: improves the
  /// local cluster, delays everyone downstream).
  kLocalFirst,
};

/// The paper's grid broadcast: coordinators relay the message between
/// clusters following `order` (a heuristic's SendOrder), then each cluster
/// runs an internal binomial broadcast; `intra_order` decides whether the
/// coordinator's NIC serves the relays or the local tree first.  Returns
/// delivery times for **all** grid ranks (indexed by global rank).
[[nodiscard]] BcastResult run_hierarchical_bcast(
    sim::Network& net, ClusterId root_cluster, const sched::SendOrder& order,
    Bytes m, IntraOrder intra_order = IntraOrder::kRelayFirst);

/// Scheduler-driven form: derives the instance the grid poses for an
/// m-byte broadcast, asks `sched` for the order (after `can_schedule`),
/// and executes it.  This is the one-call path from a registry entry
/// (`registry().make("ECEF-LAT")`) to a measured completion time.
[[nodiscard]] BcastResult run_hierarchical_bcast(
    sim::Network& net, ClusterId root_cluster,
    const sched::SchedulerEntry& sched, Bytes m,
    IntraOrder intra_order = IntraOrder::kRelayFirst);

/// As above, but with a caller-supplied runtime info (root cluster and
/// message size come from it).  Sweep harnesses derive one instance per
/// message size through `exp::InstanceCache` and race every competitor
/// over it, instead of paying the O(clusters²) derivation per cell.
[[nodiscard]] BcastResult run_hierarchical_bcast(
    sim::Network& net, const sched::SchedulerEntry& sched,
    const sched::SchedulerRuntimeInfo& info,
    IntraOrder intra_order = IntraOrder::kRelayFirst);

/// The "Default LAM" comparator of Fig. 6: a grid-unaware binomial tree
/// over all ranks in global rank order, rooted at `root_cluster`'s
/// coordinator.
[[nodiscard]] BcastResult run_grid_unaware_binomial(sim::Network& net,
                                                    ClusterId root_cluster,
                                                    Bytes m);

}  // namespace gridcast::collective
