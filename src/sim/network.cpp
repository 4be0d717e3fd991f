#include "sim/network.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace gridcast::sim {

Network::Network(const topology::Grid& grid, JitterConfig jitter,
                 std::uint64_t seed)
    : grid_(grid),
      jitter_(jitter),
      rng_(Rng::stream(seed, 0xD15C0)),
      ranks_(grid.total_nodes()),
      n_clusters_(grid.cluster_count()),
      nic_free_(grid.total_nodes(), 0.0),
      memo_(kMemoSlots, MemoEntry{kEmptyPair, 0, 0.0, 0.0}) {
  GRIDCAST_ASSERT(jitter_.valid(), "jitter fraction out of range");
  locate_.reserve(ranks_);
  for (NodeId r = 0; r < ranks_; ++r) locate_.push_back(grid.locate(r));
  pair_params_.reserve(n_clusters_ * n_clusters_);
  for (ClusterId fc = 0; fc < n_clusters_; ++fc)
    for (ClusterId tc = 0; tc < n_clusters_; ++tc)
      pair_params_.push_back(fc == tc ? &grid.cluster(fc).intra()
                                      : &grid.link(fc, tc));
}

void Network::refill_jitter() {
  // rng_ feeds nothing else, so each block continues where the last one
  // stopped, and the factors are those of one normal(1, frac) per draw.
  const std::size_t n = rng_.normal_block(jitter_buf_);
  const double frac = jitter_.frac;
  const double lo = std::max(1.0 - 3.0 * frac, 0.05);
  const double hi = 1.0 + 3.0 * frac;
  for (std::size_t i = 0; i < n; ++i)
    jitter_buf_[i] = std::clamp(1.0 + frac * jitter_buf_[i], lo, hi);
  jitter_next_ = 0;
  jitter_end_ = n;
}

Time Network::nic_free(NodeId rank) const {
  GRIDCAST_ASSERT(rank < ranks_, "rank out of range");
  return nic_free_[rank];
}

SendTiming Network::send(NodeId from, NodeId to, Bytes m,
                         DeliveryHandler on_delivered) {
  GRIDCAST_ASSERT(from < ranks_ && to < ranks_, "rank out of range");
  GRIDCAST_ASSERT(from != to, "self send");

  const auto [fc, fl] = locate_[from];
  const auto [tc, tl] = locate_[to];
  const std::uint64_t pair =
      static_cast<std::uint64_t>(fc) * n_clusters_ + tc;
  const plogp::Params& p = *pair_params_[pair];

  Time gap_base, orecv;
  if (memo_enabled_) [[likely]] {
    // Direct-mapped probe; the cached doubles are exactly what the gap
    // functions would return, so hits and misses time identically.
    const std::uint64_t h =
        (pair * 0x9E3779B97F4A7C15ull) ^ (m * 0xC2B2AE3D27D4EB4Full);
    MemoEntry& e = memo_[(h >> 32) & (kMemoSlots - 1)];
    if (e.pair != pair || e.size != m) {
      e.pair = pair;
      e.size = m;
      e.gap = p.g(m);
      e.orecv = p.orecv(m);
    }
    gap_base = e.gap;
    orecv = e.orecv;
  } else {
    gap_base = p.g(m);
    orecv = p.orecv(m);
  }

  SendTiming t;
  t.start = std::max(engine_.now(), nic_free_[from]);
  const Time gap = gap_base * jitter_factor();
  const Time lat = p.L * jitter_factor();
  t.injected = t.start + gap;
  t.delivered = t.injected + lat + orecv;

  nic_free_[from] = t.injected;
  ++messages_;
  bytes_ += m;
  if (fc != tc) {
    ++inter_messages_;
    inter_bytes_ += m;
  }

  if (on_delivered) {
    engine_.at(t.delivered, [cb = std::move(on_delivered),
                             when = t.delivered]() mutable { cb(when); });
  }
  return t;
}

}  // namespace gridcast::sim
