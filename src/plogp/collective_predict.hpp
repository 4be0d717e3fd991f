#pragma once

#include <cstdint>

#include "plogp/params.hpp"
#include "support/types.hpp"

/// Analytic intra-cluster broadcast-time prediction.
///
/// The grid-aware heuristics consume `T_c`, the time a cluster needs to
/// finish its *internal* broadcast once the coordinator holds the message.
/// Following the authors' earlier work ("Fast tuning of intra-cluster
/// collective communications", EuroPVM/MPI 2004), we predict that time from
/// the cluster's pLogP parameters for the binomial tree, which the paper's
/// experiments and the simulator (collective/bcast.hpp) both run.
namespace gridcast::plogp {

/// Intra-cluster broadcast algorithm: the binomial tree is the only one.
enum class BcastAlgorithm : std::uint8_t {
  kBinomial,  ///< recursive doubling tree (MPI default)
};

/// Completion time of a binomial-tree broadcast of m bytes to `nodes`
/// ranks (root included): holders double every round; each holder's sends
/// serialize with gap g(m).  Zero when nodes <= 1.
[[nodiscard]] Time predict_binomial_bcast(const Params& p, std::uint32_t nodes,
                                          Bytes m);

}  // namespace gridcast::plogp
