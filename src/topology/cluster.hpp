#pragma once

#include <cstdint>
#include <string>

#include "plogp/collective_predict.hpp"
#include "plogp/params.hpp"
#include "support/types.hpp"

/// One homogeneous cluster of a grid.
namespace gridcast::topology {

/// A logical homogeneous cluster: machines close enough in latency that a
/// single pLogP parameter set describes any pair (the output of Lowekamp
/// clustering, Section 7 of the paper).  The coordinator is, by convention,
/// local rank 0; it is the only member that speaks to other clusters.
class Cluster {
 public:
  /// The internal broadcast is the binomial tree, the only
  /// `BcastAlgorithm`.  The fourth argument and `algorithm()` stay only
  /// because perfbench's grid writer copies a drawn cluster's algorithm.
  Cluster(std::string name, std::uint32_t size, plogp::Params intra,
          plogp::BcastAlgorithm = plogp::BcastAlgorithm::kBinomial);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] const plogp::Params& intra() const noexcept { return intra_; }
  [[nodiscard]] plogp::BcastAlgorithm algorithm() const noexcept {
    return plogp::BcastAlgorithm::kBinomial;
  }

  /// Predicted internal broadcast time T_c for an m-byte payload: the
  /// binomial tree's (zero for singleton clusters — nothing to forward).
  [[nodiscard]] Time internal_bcast_time(Bytes m) const;

 private:
  std::string name_;
  std::uint32_t size_;
  plogp::Params intra_;
};

}  // namespace gridcast::topology
