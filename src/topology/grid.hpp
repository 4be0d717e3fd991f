#pragma once

#include <vector>

#include "plogp/params.hpp"
#include "support/matrix.hpp"
#include "support/types.hpp"
#include "topology/cluster.hpp"

/// A grid: clusters plus the inter-cluster link matrix.
namespace gridcast::topology {

class Grid {
 public:
  /// Construct with clusters; all inter-cluster links must then be set
  /// (validate() enforces it).
  explicit Grid(std::vector<Cluster> clusters);

  [[nodiscard]] std::size_t cluster_count() const noexcept {
    return clusters_.size();
  }
  [[nodiscard]] const Cluster& cluster(ClusterId c) const;
  [[nodiscard]] Cluster& cluster(ClusterId c);
  [[nodiscard]] const std::vector<Cluster>& clusters() const noexcept {
    return clusters_;
  }

  /// Directed coordinator-to-coordinator link parameters.
  void set_link(ClusterId from, ClusterId to, plogp::Params p);
  /// Set both directions at once (grid links are symmetric in practice).
  void set_link_symmetric(ClusterId a, ClusterId b, plogp::Params p);
  [[nodiscard]] const plogp::Params& link(ClusterId from, ClusterId to) const;
  [[nodiscard]] bool has_link(ClusterId from, ClusterId to) const {
    return link_set_(from, to) != 0;
  }

  /// Total machine count across clusters.
  [[nodiscard]] std::uint32_t total_nodes() const noexcept;

  /// Global rank of local rank `local` within cluster `c`; clusters are
  /// numbered contiguously in declaration order, coordinators first within
  /// each cluster (local rank 0).
  [[nodiscard]] NodeId global_rank(ClusterId c, NodeId local) const;
  /// Inverse mapping: (cluster, local rank) of a global rank.
  [[nodiscard]] std::pair<ClusterId, NodeId> locate(NodeId global) const;

  /// Check that every off-diagonal link was set and every parameter set is
  /// internally consistent; throws LogicError otherwise.
  void validate() const;

 private:
  std::vector<Cluster> clusters_;
  SquareMatrix<plogp::Params> links_;
  SquareMatrix<char> link_set_;  // char, not bool: vector<bool> proxies
  std::vector<std::uint32_t> rank_offset_;  // prefix sums of cluster sizes
};

}  // namespace gridcast::topology
