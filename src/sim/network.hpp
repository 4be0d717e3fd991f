#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "sim/engine.hpp"
#include "sim/inline_callback.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"
#include "topology/grid.hpp"

/// Message-level network simulation over a Grid.
///
/// Every machine owns one NIC.  A send issued at time t begins once the
/// NIC is free, occupies it for the link's gap g(m) (optionally jittered),
/// and the receiver *holds* the payload after the latency plus its receive
/// overhead: delivered = start + g(m) + L + or(m).  Link parameters come
/// from the grid: the cluster's intra pLogP set for same-cluster pairs,
/// the inter-cluster link set otherwise.
///
/// Under jitter, each send scales its gap and then its latency by the next
/// two factors of the network's own stream, `Rng::stream(seed, 0xD15C0)`.
/// The factors are drawn a block of polar candidates ahead
/// (`Rng::normal_block`): the same doubles, in the same order, as one
/// `normal(1, frac)` call per factor, each clamped to
/// [max(1 - 3 frac, 0.05), 1 + 3 frac].
///
/// This intentionally includes the receive overhead the scheduling model
/// omits — the residual between Fig. 5 (predicted) and Fig. 6 (measured)
/// is real, and this is one of its sources.
///
/// The send path is allocation-free: delivery handlers are fixed-capacity
/// `InlineCallback`s, the pLogP parameter set of every (cluster, cluster)
/// pair is resolved once at construction, and a direct-mapped memo caches
/// `g(m)` / `orecv(m)` per (pair, size) so a collective sending the same
/// size thousands of times skips the gap-function binary search entirely.
/// Cached values are the exact doubles the gap functions produce, so
/// timings are bit-identical to the uncached path.
namespace gridcast::sim {

/// Multiplicative noise on gap and latency, per message.  `frac = 0`
/// reproduces the analytic model exactly (up to overheads).  Valid
/// fractions lie in [0, kMaxFrac): the Network asserts it, and
/// `gridcast_race --jitter` rejects anything else at parse time.
struct JitterConfig {
  static constexpr double kMaxFrac = 0.5;
  double frac = 0.0;

  /// False for negative, too large or NaN fractions.
  [[nodiscard]] bool valid() const noexcept {
    return frac >= 0.0 && frac < kMaxFrac;
  }
};

/// Timing of one send as decided at issue time.
struct SendTiming {
  Time start = 0.0;      ///< injection begins (NIC acquired)
  Time injected = 0.0;   ///< NIC free again (gap elapsed)
  Time delivered = 0.0;  ///< receiver holds the payload
};

class Network {
 public:
  /// Inline capacity for delivery handlers.  Sized for the largest
  /// executor capture list (the hierarchical all-to-all's coordinator
  /// fan-out); exceeding it is a compile-time error at the call site.
  static constexpr std::size_t kHandlerCapacity = 64;
  using DeliveryHandler = InlineCallback<void(Time), kHandlerCapacity>;

  Network(const topology::Grid& grid, JitterConfig jitter,
          std::uint64_t seed);

  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const topology::Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] std::uint32_t ranks() const noexcept { return ranks_; }

  /// Issue a send of `m` bytes from global rank `from` to `to`.  The NIC
  /// serializes with previously issued sends of `from`.  `on_delivered`
  /// (optional) fires when the receiver holds the payload.  Returns the
  /// decided timing.
  SendTiming send(NodeId from, NodeId to, Bytes m,
                  DeliveryHandler on_delivered = {});

  /// NIC availability of a rank (for executors that need to sequence
  /// non-message work after sends).
  [[nodiscard]] Time nic_free(NodeId rank) const;

  /// Messages issued so far.
  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }

  /// Messages that crossed a cluster boundary (the expensive ones in a
  /// grid; the paper's heuristics exist to minimise their impact).
  [[nodiscard]] std::uint64_t inter_cluster_messages() const noexcept {
    return inter_messages_;
  }

  /// Payload bytes carried by inter-cluster messages.
  [[nodiscard]] Bytes inter_cluster_bytes() const noexcept {
    return inter_bytes_;
  }

  /// Total payload bytes issued so far.
  [[nodiscard]] Bytes bytes_sent() const noexcept { return bytes_; }

  /// Testing hook: re-run the gap-function lookups on every send instead
  /// of consulting the (pair, size) memo.  Timings must stay bit-identical
  /// either way — tests/sim/test_network.cpp pins that equivalence.
  void disable_send_memo_for_test() noexcept { memo_enabled_ = false; }

 private:
  /// One resolved (pair, size) -> {g(m), orecv(m)} association.  Entries
  /// always hold a valid association (sentinel pair index = empty), so a
  /// probe is a single key compare; collisions simply overwrite.
  struct MemoEntry {
    std::uint64_t pair;
    Bytes size;
    Time gap;
    Time orecv;
  };
  static constexpr std::uint64_t kEmptyPair = ~std::uint64_t{0};
  static constexpr std::size_t kMemoSlots = 128;  // power of two

  /// Candidate pairs drawn per jitter refill.
  static constexpr std::size_t kJitterPairs = 32;

  /// The next factor of the jitter stream; draws nothing without jitter.
  [[nodiscard]] double jitter_factor() {
    if (jitter_.frac == 0.0) return 1.0;
    if (jitter_next_ == jitter_end_) refill_jitter();
    return jitter_buf_[jitter_next_++];
  }
  void refill_jitter();

  const topology::Grid& grid_;
  Engine engine_;
  JitterConfig jitter_;
  Rng rng_;  ///< feeds the jitter buffer only
  std::array<double, 2 * kJitterPairs> jitter_buf_{};  ///< clamped factors
  std::size_t jitter_next_ = 0;  ///< next unread factor
  std::size_t jitter_end_ = 0;   ///< factors in jitter_buf_
  std::uint32_t ranks_;
  std::size_t n_clusters_;
  std::vector<Time> nic_free_;
  std::vector<std::pair<ClusterId, NodeId>> locate_;  // cached per rank
  // Resolved parameter set per ordered (from, to) cluster pair, indexed
  // [from * n_clusters + to]; the diagonal points at the cluster's intra
  // set.  Replaces a branch + matrix lookup per send.
  std::vector<const plogp::Params*> pair_params_;
  std::vector<MemoEntry> memo_;  // direct-mapped, kMemoSlots entries
  bool memo_enabled_ = true;
  std::uint64_t messages_ = 0;
  std::uint64_t inter_messages_ = 0;
  Bytes bytes_ = 0;
  Bytes inter_bytes_ = 0;
};

}  // namespace gridcast::sim
