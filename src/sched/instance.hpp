#pragma once

#include <cstddef>
#include <vector>

#include "support/matrix.hpp"
#include "support/types.hpp"
#include "topology/grid.hpp"

/// The scheduling problem instance.
///
/// Heuristics never see topologies or gap functions — they operate on the
/// paper's abstraction: for a fixed message size m, the inter-cluster gap
/// matrix g_ij(m), the latency matrix L_ij, and the per-cluster internal
/// broadcast time T_c.  Keeping g and L separate (instead of a single cost
/// matrix) preserves the FEF ablation where the edge weight is the latency
/// alone.  Their sum, the transfer cost g_ij + L_ij, is kept as a third
/// row-major matrix that every constructor and mutator fills, so the
/// selection kernels read its rows in place instead of copying n² costs
/// per call, and `transfer()` is one load.
namespace gridcast::sched {

class Instance {
 public:
  /// An empty instance (0 clusters) to be filled via reshape(); exists so
  /// samplers can reuse one Instance's storage across iterations.
  Instance() = default;

  /// Build from explicit matrices; g and L are indexed [sender][receiver],
  /// diagonals ignored.  `T[c]` is cluster c's internal broadcast time.
  Instance(ClusterId root, SquareMatrix<Time> g, SquareMatrix<Time> L,
           std::vector<Time> T);

  /// Re-root and resize to `clusters` clusters with zeroed parameters,
  /// reusing the existing matrix/vector storage.
  void reshape(ClusterId root, std::size_t clusters) {
    GRIDCAST_ASSERT(clusters >= 1 && root < clusters,
                    "root cluster out of range");
    root_ = root;
    g_.assign(clusters, 0.0);
    L_.assign(clusters, 0.0);
    transfer_.assign(clusters, 0.0);
    T_.assign(clusters, 0.0);
  }

  /// Move the root to `root`, keeping g, L and T, which do not depend on
  /// it: one grid derivation then serves broadcasts from every cluster.
  void set_root(ClusterId root) {
    GRIDCAST_ASSERT(root < clusters(), "root cluster out of range");
    root_ = root;
  }

  /// Set the symmetric link parameters of the unordered pair {i, j}.
  void set_symmetric_edge(ClusterId i, ClusterId j, Time g, Time L) {
    GRIDCAST_ASSERT(i != j, "no self edges");
    g_(i, j) = g;
    g_(j, i) = g;
    L_(i, j) = L;
    L_(j, i) = L;
    transfer_(i, j) = g + L;
    transfer_(j, i) = g + L;
  }

  /// Set cluster c's internal broadcast time.
  void set_T(ClusterId c, Time v) {
    GRIDCAST_ASSERT(c < T_.size(), "cluster id out of range");
    T_[c] = v;
  }

  /// Derive the instance a grid poses for an m-byte broadcast rooted in
  /// cluster `root` (g from the link gap functions, T from each cluster's
  /// configured intra algorithm).
  [[nodiscard]] static Instance from_grid(const topology::Grid& grid,
                                          ClusterId root, Bytes m);

  [[nodiscard]] std::size_t clusters() const noexcept { return T_.size(); }
  [[nodiscard]] ClusterId root() const noexcept { return root_; }

  [[nodiscard]] Time g(ClusterId i, ClusterId j) const { return g_(i, j); }
  [[nodiscard]] Time L(ClusterId i, ClusterId j) const { return L_(i, j); }
  [[nodiscard]] Time T(ClusterId c) const {
    GRIDCAST_ASSERT(c < T_.size(), "cluster id out of range");
    return T_[c];
  }

  /// The paper's transfer cost g_ij(m) + L_ij.
  [[nodiscard]] Time transfer(ClusterId i, ClusterId j) const {
    return transfer_(i, j);
  }

  /// Row i of the transfer table: `transfer_row(i)[j]` is transfer(i, j).
  /// Rows are contiguous, so column j is `transfer_row(0) + j` at stride
  /// clusters().
  [[nodiscard]] const Time* transfer_row(ClusterId i) const {
    return transfer_.row(i);
  }
  /// Row i of L: `L_row(i)[j]` is L(i, j).
  [[nodiscard]] const Time* L_row(ClusterId i) const { return L_.row(i); }

  /// Largest internal broadcast time — a component of every makespan
  /// lower bound.
  [[nodiscard]] Time max_T() const;

  /// Simple makespan lower bound: every non-root cluster must receive via
  /// its cheapest incoming edge and then broadcast internally; the root
  /// must run its own internal broadcast.  Any valid schedule's makespan
  /// is >= this.
  [[nodiscard]] Time lower_bound() const;

  /// Throws LogicError unless the sizes agree, the root is in range and no
  /// time is negative; DCHECKs that the transfer table equals g + L.
  void validate() const;

 private:
  ClusterId root_ = 0;
  SquareMatrix<Time> g_;
  SquareMatrix<Time> L_;
  SquareMatrix<Time> transfer_;  ///< g_ + L_, element by element
  std::vector<Time> T_;
};

}  // namespace gridcast::sched
