#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/error.hpp"

namespace gridcast::sim {
namespace {

/// Two clusters of `nodes` nodes each; zero-overhead parameters make every
/// timing a closed form: intra gap 0.01+m/1e8, inter gap 0.001+m/1e7.
topology::Grid test_grid(std::uint32_t nodes = 2) {
  plogp::Params intra;
  intra.L = 0.001;
  intra.g = plogp::GapFunction::affine(0.01, 1e8);
  intra.os = plogp::GapFunction::constant(0.0);
  intra.orecv = plogp::GapFunction::constant(0.0);

  plogp::Params inter;
  inter.L = 0.1;
  inter.g = plogp::GapFunction::affine(0.001, 1e7);
  inter.os = plogp::GapFunction::constant(0.0);
  inter.orecv = plogp::GapFunction::constant(0.0);

  std::vector<topology::Cluster> cs;
  cs.emplace_back("a", nodes, intra);
  cs.emplace_back("b", nodes, intra);
  topology::Grid g(std::move(cs));
  g.set_link_symmetric(0, 1, inter);
  return g;
}

TEST(Network, IntraClusterSendTiming) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  const Bytes m = 1000000;
  const SendTiming t = net.send(0, 1, m);
  EXPECT_DOUBLE_EQ(t.start, 0.0);
  EXPECT_DOUBLE_EQ(t.injected, 0.01 + 0.01);  // gap = 0.01 + m/1e8
  EXPECT_DOUBLE_EQ(t.delivered, t.injected + 0.001);
}

TEST(Network, InterClusterSendUsesLinkParams) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  const Bytes m = 1000000;
  const SendTiming t = net.send(0, 2, m);  // rank 2 = cluster b coordinator
  EXPECT_DOUBLE_EQ(t.injected, 0.001 + 0.1);  // gap = 0.001 + m/1e7
  EXPECT_DOUBLE_EQ(t.delivered, t.injected + 0.1);
}

TEST(Network, NicSerializesSendsFromOneRank) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  const SendTiming a = net.send(0, 1, 0);
  const SendTiming b = net.send(0, 2, 0);
  EXPECT_DOUBLE_EQ(b.start, a.injected);
  EXPECT_DOUBLE_EQ(net.nic_free(0), b.injected);
}

TEST(Network, DistinctSendersDoNotSerialize) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  const SendTiming a = net.send(0, 2, 0);
  const SendTiming b = net.send(1, 3, 0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(b.start, 0.0);
}

TEST(Network, DeliveryCallbackFiresAtDeliveredTime) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  Time fired = -1.0;
  const SendTiming t = net.send(0, 1, 500, [&](Time when) { fired = when; });
  net.engine().run();
  EXPECT_DOUBLE_EQ(fired, t.delivered);
}

TEST(Network, CountsMessagesAndBytes) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  (void)net.send(0, 1, 100);
  (void)net.send(0, 2, 200);
  EXPECT_EQ(net.messages(), 2u);
  EXPECT_EQ(net.bytes_sent(), 300u);
}

TEST(Network, SeparatesInterClusterTraffic) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  (void)net.send(0, 1, 100);  // intra (cluster a)
  (void)net.send(0, 2, 200);  // inter (a -> b)
  (void)net.send(2, 3, 400);  // intra (cluster b)
  (void)net.send(3, 1, 800);  // inter (b -> a)
  EXPECT_EQ(net.messages(), 4u);
  EXPECT_EQ(net.inter_cluster_messages(), 2u);
  EXPECT_EQ(net.bytes_sent(), 1500u);
  EXPECT_EQ(net.inter_cluster_bytes(), 1000u);
}

TEST(Network, SelfSendRejected) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  EXPECT_THROW((void)net.send(1, 1, 10), LogicError);
}

TEST(Network, RankOutOfRangeRejected) {
  const topology::Grid grid = test_grid();
  Network net(grid, {}, 1);
  EXPECT_THROW((void)net.send(0, 4, 10), LogicError);
  EXPECT_THROW((void)net.nic_free(4), LogicError);
}

TEST(Network, JitterPerturbsButStaysBounded) {
  const topology::Grid grid = test_grid();
  Network clean(grid, {}, 1);
  const Time base = clean.send(0, 2, 1000000).delivered;

  Network noisy(grid, {0.05}, 2);
  const Time jittered = noisy.send(0, 2, 1000000).delivered;
  EXPECT_NE(jittered, base);
  EXPECT_GT(jittered, base * 0.8);
  EXPECT_LT(jittered, base * 1.2);
}

TEST(Network, JitterDeterministicPerSeed) {
  const topology::Grid grid = test_grid();
  Network a(grid, {0.1}, 42), b(grid, {0.1}, 42);
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(a.send(0, 2, 1000).delivered,
                     b.send(0, 2, 1000).delivered);
}

TEST(Network, JitterFactorsAreSuccessiveClampedNormals) {
  // 300 sends, each from its own idle NIC, so every send starts at 0 and
  // its timing is the closed form of its two factors: the next two
  // normal(1, frac) draws of the network's stream, clamped.  0.49 clamps
  // often; frac = 0 must draw nothing and time exactly as without jitter.
  const topology::Grid grid = test_grid(150);
  const Bytes m = 1000000;
  const std::uint64_t seed = 7;
  for (const double frac : {0.0, 0.05, 0.2, 0.49}) {
    SCOPED_TRACE(frac);
    Network net(grid, {frac}, seed);
    Rng stream = Rng::stream(seed, 0xD15C0);
    const double lo = std::max(1.0 - 3.0 * frac, 0.05);
    const double hi = 1.0 + 3.0 * frac;
    int clamped = 0;
    const auto factor = [&] {
      if (frac == 0.0) return 1.0;
      const double f = std::clamp(stream.normal(1.0, frac), lo, hi);
      clamped += (f == lo || f == hi);
      return f;
    };
    for (NodeId from = 0; from < 300; ++from) {
      const NodeId to = from % 3 == 0 ? (from + 150) % 300 : from ^ 1;
      const ClusterId fc = grid.locate(from).first;
      const ClusterId tc = grid.locate(to).first;
      const plogp::Params& p =
          fc == tc ? grid.cluster(fc).intra() : grid.link(fc, tc);
      const double gap_factor = factor();
      const double latency_factor = factor();
      const Time injected = p.g(m) * gap_factor;
      const Time delivered = injected + p.L * latency_factor + p.orecv(m);
      const SendTiming t = net.send(from, to, m);
      ASSERT_EQ(t.start, 0.0);
      ASSERT_EQ(t.injected, injected) << "send " << from;
      ASSERT_EQ(t.delivered, delivered) << "send " << from;
    }
    if (frac == 0.49) {
      EXPECT_GT(clamped, 0);
    }
  }
}

TEST(Network, ReceiveOverheadIncludedInDelivery) {
  plogp::Params p = plogp::Params::latency_bandwidth(ms(1), 1e7);
  std::vector<topology::Cluster> cs;
  cs.emplace_back("a", 2, p);
  topology::Grid grid(std::move(cs));
  Network net(grid, {}, 1);
  const Bytes m = MiB(1);
  const SendTiming t = net.send(0, 1, m);
  EXPECT_DOUBLE_EQ(t.delivered, t.injected + p.L + p.orecv(m));
}

TEST(Network, ExcessiveJitterConfigThrows) {
  const topology::Grid grid = test_grid();
  EXPECT_THROW(Network(grid, {0.9}, 1), LogicError);
}

// ---- Send-memo equivalence: the direct-mapped (pair, size) cache must be
// invisible in the timings — every cached g(m)/orecv(m) is the exact
// double the gap functions produce, pinned here by running the same send
// sequence with the memo enabled and disabled and requiring bit equality.

TEST(Network, MemoMatchesUncachedTimingsBitForBit) {
  const topology::Grid grid = test_grid();
  Network cached(grid, {}, 1);
  Network direct(grid, {}, 1);
  direct.disable_send_memo_for_test();

  // Sizes chosen to hammer one memo slot per pair (repeats), to spread
  // across slots, and to include 0 and large values; pairs cover intra,
  // inter, and both directions.
  const Bytes sizes[] = {0, 1, 64, 1000, 1000, 4096, 1000000, 64, 0};
  const std::pair<NodeId, NodeId> pairs[] = {
      {0, 1}, {0, 2}, {2, 3}, {3, 1}, {1, 0}, {2, 0}};
  for (const Bytes m : sizes) {
    for (const auto& [from, to] : pairs) {
      const SendTiming a = cached.send(from, to, m);
      const SendTiming b = direct.send(from, to, m);
      EXPECT_EQ(a.start, b.start);
      EXPECT_EQ(a.injected, b.injected);
      EXPECT_EQ(a.delivered, b.delivered);
    }
  }
  EXPECT_DOUBLE_EQ(cached.engine().run(), direct.engine().run());
}

TEST(Network, MemoMatchesUncachedUnderJitter) {
  // Jitter draws two rng values per send (gap, then latency); the memo
  // must not change the draw order, or every later timing shifts.
  const topology::Grid grid = test_grid();
  Network cached(grid, {0.05}, 42);
  Network direct(grid, {0.05}, 42);
  direct.disable_send_memo_for_test();
  for (int i = 0; i < 64; ++i) {
    const Bytes m = static_cast<Bytes>((i % 5) * 1000);
    const auto from = static_cast<NodeId>(i % 4);
    const auto to = static_cast<NodeId>((i + 1) % 4);
    const SendTiming a = cached.send(from, to, m);
    const SendTiming b = direct.send(from, to, m);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
  }
}

TEST(Network, MemoCollisionsOverwriteWithoutCorruption) {
  // Far more distinct (pair, size) keys than the 128 memo slots: every
  // slot collides repeatedly, and each probe must still produce the
  // uncached timing (collisions overwrite, never alias).
  const topology::Grid grid = test_grid();
  Network cached(grid, {}, 1);
  Network direct(grid, {}, 1);
  direct.disable_send_memo_for_test();
  for (int i = 0; i < 2000; ++i) {
    const Bytes m = static_cast<Bytes>(i) * 17 + 1;
    const auto from = static_cast<NodeId>(i % 4);
    const auto to = static_cast<NodeId>((i + 2) % 4);
    if (from == to) continue;
    const SendTiming a = cached.send(from, to, m);
    const SendTiming b = direct.send(from, to, m);
    ASSERT_EQ(a.delivered, b.delivered) << "send " << i << " size " << m;
  }
}

}  // namespace
}  // namespace gridcast::sim
