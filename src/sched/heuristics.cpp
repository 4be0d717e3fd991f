#include "sched/heuristics.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "sched/evaluate.hpp"
#include "support/error.hpp"

namespace gridcast::sched {

namespace {

constexpr Time kInf = std::numeric_limits<Time>::infinity();

/// The A/B set formalism as two ascending member lists: `a` holds the
/// clusters that have (or are committed to receive) the message, `b` the
/// rest.  Selection loops walk the lists, so a round costs O(|A|·|B|)
/// instead of O(n²); the lists ascend in id, so the first row, and the
/// first member of it, to attain a minimum are the first pair a full
/// row-major scan would find.
struct Sets {
  explicit Sets(const Instance& inst) {
    const auto n = static_cast<ClusterId>(inst.clusters());
    a.reserve(n);
    b.reserve(n);
    a.push_back(inst.root());
    for (ClusterId c = 0; c < n; ++c)
      if (c != inst.root()) b.push_back(c);
  }
  void move_to_a(ClusterId c) {
    const auto it = std::lower_bound(b.begin(), b.end(), c);
    GRIDCAST_ASSERT(it != b.end() && *it == c, "cluster already in A");
    b.erase(it);
    a.insert(std::upper_bound(a.begin(), a.end(), c), c);
  }
  std::vector<ClusterId> a;
  std::vector<ClusterId> b;
};

/// The minimum of `cost(k)` over the members `ks`, folded into four
/// independent accumulators so that each compare waits on the one four
/// members back instead of on the one before it.  A minimum is exact and
/// does not depend on fold order, so this is the value a sequential
/// strict-less scan finds (NaN costs are passed over, as that scan passed
/// them over); kInf for an empty list.
template <typename Cost>
Time row_min(const std::vector<ClusterId>& ks, Cost cost) {
  Time m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
  const std::size_t n = ks.size();
  std::size_t x = 0;
  for (; x + 4 <= n; x += 4) {
    m0 = std::min(m0, cost(ks[x]));
    m1 = std::min(m1, cost(ks[x + 1]));
    m2 = std::min(m2, cost(ks[x + 2]));
    m3 = std::min(m3, cost(ks[x + 3]));
  }
  for (; x < n; ++x) m0 = std::min(m0, cost(ks[x]));
  // Combined by assignment, as in the loop: nesting the calls returns
  // references, which -O2 selects with unpredictable branches.
  m0 = std::min(m0, m1);
  m2 = std::min(m2, m3);
  m0 = std::min(m0, m2);
  return m0;
}

/// The first member of `ks` whose cost equals `min`: a strict-less scan's
/// first-wins tie-break, run on the one row that holds the minimum.
/// `cost` must be the expression `row_min` folded, so every value it
/// recomputes is the same double.
template <typename Cost>
ClusterId first_attaining(const std::vector<ClusterId>& ks, Time min,
                          Cost cost) {
  const auto it = std::find_if(ks.begin(), ks.end(),
                               [&](ClusterId k) { return cost(k) == min; });
  GRIDCAST_ASSERT(it != ks.end(), "row minimum not attained");
  return *it;
}

/// The first (i, j) in A × B, in ascending (i, j) order, of least
/// `cost_from(i)(j)`: the row of least minimum, then its first member
/// attaining it.
template <typename CostFrom>
SendPair least_pair(const Sets& sets, CostFrom cost_from) {
  ClusterId bi = sets.a.front();
  Time best = kInf;
  for (const ClusterId i : sets.a) {
    const Time m = row_min(sets.b, cost_from(i));
    if (m < best) {
      best = m;
      bi = i;
    }
  }
  return {bi, first_attaining(sets.b, best, cost_from(bi))};
}

/// The look-ahead F_j of every j in B, kept current as clusters move from
/// B to A (see `Lookahead` for what each one maintains, what it costs and
/// why only AvgMove's sum is reassociated).  Reads the caller's `Sets`,
/// which must already reflect a move when `moved_to_a` is called, and the
/// instance's transfer rows in place.
class LookaheadState {
 public:
  LookaheadState(const Instance& inst, Lookahead la, const Sets& sets)
      : inst_(inst),
        la_(la),
        sets_(sets),
        f_(la == Lookahead::kNone ? 0 : inst.clusters(), 0.0) {
    switch (la_) {
      case Lookahead::kNone: return;
      case Lookahead::kMinEdge:
      case Lookahead::kMinEdgePlusT:
      case Lookahead::kMaxEdgePlusT:
        arg_.assign(inst.clusters(), kNoCluster);
        for (const ClusterId j : sets_.b) rescan(j);
        return;
      case Lookahead::kAvgAfterMove: {
        col_sum_.assign(inst.clusters(), 0.0);
        const Time* from_root = inst.transfer_row(inst.root());
        for (const ClusterId k : sets_.b) col_sum_[k] = from_root[k];
        refold<true>();
        return;
      }
      case Lookahead::kAvgEdge: refold<false>(); return;
    }
  }

  [[nodiscard]] Time operator[](ClusterId j) const { return f_[j]; }

  /// Cluster `c` has just left B for A.
  void moved_to_a(ClusterId c) {
    switch (la_) {
      case Lookahead::kNone: return;
      case Lookahead::kMinEdge:
      case Lookahead::kMinEdgePlusT:
      case Lookahead::kMaxEdgePlusT:
        // An extremum over B \ {j} survives the loss of any k but the one
        // attaining it.
        for (const ClusterId j : sets_.b)
          if (arg_[j] == c) rescan(j);
        return;
      case Lookahead::kAvgAfterMove: {
        const Time* from_c = inst_.transfer_row(c);
        for (const ClusterId k : sets_.b) col_sum_[k] += from_c[k];
        refold<true>();
        return;
      }
      case Lookahead::kAvgEdge: refold<false>(); return;
    }
  }

 private:
  /// Recompute an extremum F_j over B \ {j} and the first k attaining it
  /// (kNoCluster while nothing beats the fold's start value).
  void rescan(ClusterId j) {
    const bool is_max = la_ == Lookahead::kMaxEdgePlusT;
    Time acc = is_max ? 0.0 : kInf;
    ClusterId arg = kNoCluster;
    const Time* from_j = inst_.transfer_row(j);
    for (const ClusterId k : sets_.b) {
      if (k == j) continue;
      Time v = from_j[k];
      if (la_ != Lookahead::kMinEdge) v += inst_.T(k);
      if (is_max ? acc < v : v < acc) {
        acc = v;
        arg = k;
      }
    }
    // Last cluster in B: no forwarding ability needed.
    f_[j] = acc == kInf ? 0.0 : acc;
    arg_[j] = arg;
  }

  /// Recompute every average F_j with an ascending-k fold over B \ {j},
  /// for the rows of B four per pass, then the remainder one by one.
  /// AvgMove (`kMove`) adds g_jk + L_jk and then k's column sum as two
  /// separate additions, so while A is the root alone the fold adds
  /// exactly the terms of the definition's (j, then each i in A) inner
  /// loop.
  template <bool kMove>
  void refold() {
    const std::size_t rows = sets_.b.size();
    std::size_t p = 0;
    for (; p + 4 <= rows; p += 4) fold<4, kMove>(p);
    for (; p < rows; ++p) fold<1, kMove>(p);
  }

  /// Fold the R rows b[p], ..., b[p + R - 1] of B in one pass over B.
  /// Each row adds its own terms in ascending k, as a lone fold would, so
  /// the R sums are the same doubles; only their additions overlap.
  template <std::size_t R, bool kMove>
  void fold(std::size_t p) {
    const std::vector<ClusterId>& b = sets_.b;
    const std::size_t receivers = b.size() - 1;
    const std::size_t senders = kMove ? sets_.a.size() + 1 : 1;
    const auto count = static_cast<double>(receivers * senders);
    const Time* from[R];
    Time sum[R];
    for (std::size_t r = 0; r < R; ++r) {
      from[r] = inst_.transfer_row(b[p + r]);
      sum[r] = 0.0;
    }
    // Row r skips k = b[p + r], its own column: every row adds the columns
    // before b[p] and after b[p + R - 1], and all but its own in between.
    const auto add = [&](std::size_t r, ClusterId k) {
      sum[r] += from[r][k];
      if constexpr (kMove) sum[r] += col_sum_[k];
    };
    for (std::size_t x = 0; x < p; ++x)
      for (std::size_t r = 0; r < R; ++r) add(r, b[x]);
    for (std::size_t x = p; x < p + R; ++x)
      for (std::size_t r = 0; r < R; ++r)
        if (x != p + r) add(r, b[x]);
    for (std::size_t x = p + R; x < b.size(); ++x)
      for (std::size_t r = 0; r < R; ++r) add(r, b[x]);
    for (std::size_t r = 0; r < R; ++r)
      f_[b[p + r]] = receivers == 0 ? 0.0 : sum[r] / count;
  }

  const Instance& inst_;
  const Lookahead la_;
  const Sets& sets_;
  std::vector<Time> f_;          ///< F_j, valid for j in B (empty: kNone)
  std::vector<ClusterId> arg_;   ///< extrema: the k attaining F_j
  std::vector<Time> col_sum_;    ///< AvgMove: Σ_{i in A} transfer(i, k)
};

/// The ECEF rounds, with (`kLookahead`) or without the F_j term.  Plain
/// ECEF's F_j are all 0.0, and x + 0.0 == x for these non-negative costs,
/// so leaving the term out takes the same decisions.
template <bool kLookahead>
SendOrder ecef_rounds(const Instance& inst, Lookahead la) {
  Sets sets(inst);
  EvalState state(inst);
  LookaheadState lookahead(inst, la, sets);
  SendOrder order;
  order.reserve(inst.clusters() - 1);

  const auto cost_from = [&](ClusterId i) {
    return [&, start = state.send_start(i),
            from_i = inst.transfer_row(i)](ClusterId j) {
      if constexpr (kLookahead)
        return start + from_i[j] + lookahead[j];
      else
        return start + from_i[j];
    };
  };

  while (!sets.b.empty()) {
    const SendPair p = least_pair(sets, cost_from);
    order.push_back(p);
    state.apply(p.sender, p.receiver);
    sets.move_to_a(p.receiver);
    lookahead.moved_to_a(p.receiver);
  }
  return order;
}

}  // namespace

SendOrder flat_tree_order(const Instance& inst) {
  SendOrder order;
  order.reserve(inst.clusters() - 1);
  for (ClusterId j = 0; j < inst.clusters(); ++j)
    if (j != inst.root()) order.push_back({inst.root(), j});
  return order;
}

SendOrder fef_order(const Instance& inst, FefWeight weight) {
  Sets sets(inst);
  SendOrder order;
  order.reserve(inst.clusters() - 1);

  const auto cost_from = [&](ClusterId i) {
    return [from_i = weight == FefWeight::kGapPlusLatency
                         ? inst.transfer_row(i)
                         : inst.L_row(i)](ClusterId j) { return from_i[j]; };
  };

  while (!sets.b.empty()) {
    const SendPair p = least_pair(sets, cost_from);
    order.push_back(p);
    sets.move_to_a(p.receiver);
  }
  return order;
}

SendOrder ecef_order(const Instance& inst, Lookahead la) {
  return la == Lookahead::kNone ? ecef_rounds<false>(inst, la)
                                : ecef_rounds<true>(inst, la);
}

SendOrder bottomup_order(const Instance& inst, BottomUpPolicy policy) {
  Sets sets(inst);
  EvalState state(inst);
  SendOrder order;
  order.reserve(inst.clusters() - 1);
  // Each sender's RT_i; the paper formula leaves every one at 0.
  std::vector<Time> ready(inst.clusters(), 0.0);
  // Column j of the transfer table holds every sender's transfer into j.
  const Time* table = inst.transfer_row(0);
  const std::size_t n = inst.clusters();

  const auto cost_into = [&](ClusterId j) {
    return [rt = ready.data(), into_j = table + j, n,
            t_j = inst.T(j)](ClusterId i) {
      return rt[i] + into_j[i * n] + t_j;
    };
  };

  while (!sets.b.empty()) {
    if (policy == BottomUpPolicy::kReadyTimeAware)
      for (const ClusterId i : sets.a) ready[i] = state.send_start(i);
    // For every receiver j in B the cost of its *best* sender; pick the
    // receiver whose best cost is the *worst* (max-min), then its sender.
    ClusterId bj = sets.b.front();
    Time worst_best = -kInf;
    for (const ClusterId j : sets.b) {
      const Time best = row_min(sets.a, cost_into(j));
      if (best > worst_best) {
        worst_best = best;
        bj = j;
      }
    }
    const ClusterId bj_sender =
        first_attaining(sets.a, worst_best, cost_into(bj));
    order.push_back({bj_sender, bj});
    state.apply(bj_sender, bj);
    sets.move_to_a(bj);
  }
  return order;
}

}  // namespace gridcast::sched
