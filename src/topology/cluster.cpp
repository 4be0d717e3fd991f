#include "topology/cluster.hpp"

#include "support/error.hpp"

namespace gridcast::topology {

Cluster::Cluster(std::string name, std::uint32_t size, plogp::Params intra,
                 plogp::BcastAlgorithm)
    : name_(std::move(name)), size_(size), intra_(std::move(intra)) {
  GRIDCAST_ASSERT(size_ >= 1, "a cluster has at least its coordinator");
  intra_.validate();
}

Time Cluster::internal_bcast_time(Bytes m) const {
  return plogp::predict_binomial_bcast(intra_, size_, m);
}

}  // namespace gridcast::topology
