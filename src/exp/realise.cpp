#include "exp/realise.hpp"

#include <string>
#include <utility>
#include <vector>

#include "plogp/gap_function.hpp"
#include "plogp/params.hpp"
#include "topology/cluster.hpp"

namespace gridcast::exp {

namespace {

/// A link whose single pLogP knob is the pair we must reproduce: constant
/// gap (size-free), explicit latency, zero overheads.  Zero overheads keep
/// the simulator's delivery time at exactly gap + latency — the paper's
/// transfer cost — instead of adding the receive-overhead residual real
/// measured links carry.
plogp::Params exact_link(Time gap, Time latency) {
  plogp::Params p;
  p.L = latency;
  p.g = plogp::GapFunction::constant(gap);
  p.os = plogp::GapFunction::constant(0.0);
  p.orecv = plogp::GapFunction::constant(0.0);
  return p;
}

}  // namespace

topology::Grid realise_instance(const sched::Instance& inst) {
  inst.validate();
  const std::size_t n = inst.clusters();

  // Two ranks per cluster: the binomial internal broadcast is then a
  // single intra send, and with zero latency/overheads both the analytic
  // predictor and the simulator time it at exactly the intra gap = T_c.
  std::vector<topology::Cluster> clusters;
  clusters.reserve(n);
  for (ClusterId c = 0; c < n; ++c)
    clusters.emplace_back(std::string("c").append(std::to_string(c)), 2,
                          exact_link(inst.T(c), 0.0));

  topology::Grid grid(std::move(clusters));
  // Instances sampled from Table 2 are symmetric, but the Instance type is
  // not; set each direction from its own matrix entry.
  for (ClusterId i = 0; i < n; ++i)
    for (ClusterId j = 0; j < n; ++j)
      if (i != j) grid.set_link(i, j, exact_link(inst.g(i, j), inst.L(i, j)));
  grid.validate();
  return grid;
}

}  // namespace gridcast::exp
