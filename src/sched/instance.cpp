#include "sched/instance.hpp"

#include <algorithm>
#include <limits>

#include "support/contracts.hpp"
#include "support/error.hpp"

namespace gridcast::sched {

Instance::Instance(ClusterId root, SquareMatrix<Time> g, SquareMatrix<Time> L,
                   std::vector<Time> T)
    : root_(root), g_(std::move(g)), L_(std::move(L)), T_(std::move(T)) {
  const std::size_t n = T_.size();
  GRIDCAST_ASSERT(g_.size() == n && L_.size() == n,
                  "matrix sizes must match cluster count");
  transfer_.assign(n, 0.0);
  for (ClusterId i = 0; i < n; ++i)
    for (ClusterId j = 0; j < n; ++j) transfer_(i, j) = g_(i, j) + L_(i, j);
  validate();
}

Instance Instance::from_grid(const topology::Grid& grid, ClusterId root,
                             Bytes m) {
  const std::size_t n = grid.cluster_count();
  SquareMatrix<Time> g(n, 0.0);
  SquareMatrix<Time> L(n, 0.0);
  std::vector<Time> T(n, 0.0);
  for (ClusterId i = 0; i < n; ++i) {
    T[i] = grid.cluster(i).internal_bcast_time(m);
    for (ClusterId j = 0; j < n; ++j) {
      if (i == j) continue;
      const auto& link = grid.link(i, j);
      g(i, j) = link.g(m);
      L(i, j) = link.L;
    }
  }
  return Instance(root, std::move(g), std::move(L), std::move(T));
}

Time Instance::max_T() const {
  return *std::max_element(T_.begin(), T_.end());
}

Time Instance::lower_bound() const {
  Time lb = T_[root_];
  for (ClusterId j = 0; j < T_.size(); ++j) {
    if (j == root_) continue;
    Time best_in = std::numeric_limits<Time>::infinity();
    for (ClusterId i = 0; i < T_.size(); ++i)
      if (i != j) best_in = std::min(best_in, transfer(i, j));
    lb = std::max(lb, best_in + T_[j]);
  }
  return lb;
}

void Instance::validate() const {
  const std::size_t n = T_.size();
  GRIDCAST_ASSERT(n >= 1, "instance needs at least one cluster");
  GRIDCAST_ASSERT(g_.size() == n && L_.size() == n && transfer_.size() == n,
                  "matrix sizes must match cluster count");
  GRIDCAST_ASSERT(root_ < n, "root out of range");
  for (ClusterId i = 0; i < n; ++i) {
    GRIDCAST_ASSERT(T_[i] >= 0.0, "negative internal broadcast time");
    for (ClusterId j = 0; j < n; ++j) {
      if (i == j) continue;
      GRIDCAST_ASSERT(g_(i, j) >= 0.0, "negative gap");
      GRIDCAST_ASSERT(L_(i, j) >= 0.0, "negative latency");
      GRIDCAST_DCHECK(transfer_(i, j) == g_(i, j) + L_(i, j),
                      "transfer table out of step with g + L");
    }
  }
}

}  // namespace gridcast::sched
