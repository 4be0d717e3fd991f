#include "topology/grid.hpp"

#include "support/error.hpp"

namespace gridcast::topology {

Grid::Grid(std::vector<Cluster> clusters)
    : clusters_(std::move(clusters)),
      links_(clusters_.size()),
      link_set_(clusters_.size(), 0) {
  GRIDCAST_ASSERT(!clusters_.empty(), "a grid needs at least one cluster");
  rank_offset_.reserve(clusters_.size() + 1);
  std::uint32_t off = 0;
  for (const auto& c : clusters_) {
    rank_offset_.push_back(off);
    off += c.size();
  }
  rank_offset_.push_back(off);
}

const Cluster& Grid::cluster(ClusterId c) const {
  GRIDCAST_ASSERT(c < clusters_.size(), "cluster id out of range");
  return clusters_[c];
}

Cluster& Grid::cluster(ClusterId c) {
  GRIDCAST_ASSERT(c < clusters_.size(), "cluster id out of range");
  return clusters_[c];
}

void Grid::set_link(ClusterId from, ClusterId to, plogp::Params p) {
  GRIDCAST_ASSERT(from < clusters_.size() && to < clusters_.size(),
                  "link endpoint out of range");
  GRIDCAST_ASSERT(from != to, "no self link: intra params live in Cluster");
  p.validate();
  links_(from, to) = std::move(p);
  link_set_(from, to) = 1;
}

void Grid::set_link_symmetric(ClusterId a, ClusterId b, plogp::Params p) {
  set_link(a, b, p);
  set_link(b, a, std::move(p));
}

const plogp::Params& Grid::link(ClusterId from, ClusterId to) const {
  GRIDCAST_ASSERT(from < clusters_.size() && to < clusters_.size(),
                  "link endpoint out of range");
  GRIDCAST_ASSERT(from != to, "no self link: intra params live in Cluster");
  GRIDCAST_ASSERT(link_set_(from, to), "link parameters were never set");
  return links_(from, to);
}

std::uint32_t Grid::total_nodes() const noexcept {
  return rank_offset_.back();
}

NodeId Grid::global_rank(ClusterId c, NodeId local) const {
  GRIDCAST_ASSERT(c < clusters_.size(), "cluster id out of range");
  GRIDCAST_ASSERT(local < clusters_[c].size(), "local rank out of range");
  return rank_offset_[c] + local;
}

std::pair<ClusterId, NodeId> Grid::locate(NodeId global) const {
  GRIDCAST_ASSERT(global < total_nodes(), "global rank out of range");
  // Linear scan is fine: cluster counts are tens, not millions.
  for (ClusterId c = 0; c + 1 < rank_offset_.size(); ++c)
    if (global < rank_offset_[c + 1]) return {c, global - rank_offset_[c]};
  GRIDCAST_ASSERT(false, "unreachable: rank not located");
  return {kNoCluster, kNoNode};
}

void Grid::validate() const {
  for (ClusterId i = 0; i < clusters_.size(); ++i) {
    clusters_[i].intra().validate();
    for (ClusterId j = 0; j < clusters_.size(); ++j) {
      if (i == j) continue;
      GRIDCAST_ASSERT(link_set_(i, j), "missing link " + clusters_[i].name() +
                                           " -> " + clusters_[j].name());
      links_(i, j).validate();
    }
  }
}

}  // namespace gridcast::topology
