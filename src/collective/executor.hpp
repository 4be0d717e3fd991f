#pragma once

#include <cstddef>

#include "sim/network.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

/// Internals shared by the message-level executors in this directory
/// (broadcasts, multilevel, scatter, all-to-all); not part of the
/// library's interface.
///
/// Terminal deliveries: a delivery whose handler would only record an
/// arrival time, issuing no further send, is recorded from the
/// `SendTiming` that `sim::Network::send` returns and never enters the
/// event calendar.  This is exact.  `send()` fixes every timing at issue,
/// taking the next two factors of the network's jitter stream; the order
/// of `send()` calls does not change; and deleting events from the
/// `(time, seq)` order leaves the rest in the same relative order, so every
/// remaining callback fires at the same `now()` and issues the same sends.
/// Only deliveries that send again stay on the calendar: gathers,
/// coordinator exchanges, relays, and binomial children with subtrees of
/// their own.
namespace gridcast::collective::detail {

/// A Network carries one collective.  Its counters are then that
/// collective's totals, and no collective starts from another's clock,
/// which after a run reads the last *event*, not the last delivery.
inline void expect_fresh(const sim::Network& net) {
  GRIDCAST_ASSERT(net.messages() == 0,
                  "one collective per Network: this one has already sent");
}

/// Binomial tree over positions [lo, hi) of `ranks`: position lo holds the
/// payload at the engine's current time, and `delivered[i]` receives
/// position i's arrival.  Matches the analytic predictor's split: the
/// child takes floor(n/2) positions, the holder keeps the rest and keeps
/// injecting.  Both arrays must outlive the engine run.
void binomial_issue(sim::Network& net, const NodeId* ranks, Time* delivered,
                    std::size_t lo, std::size_t hi, Bytes m);

}  // namespace gridcast::collective::detail
