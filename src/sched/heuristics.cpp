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
/// instead of O(n²); walking them in ascending id order visits the (i, j)
/// pairs in the order of a full row-major scan, so strict-less
/// first-wins tie-breaks pick the same pair.
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

/// One edge cost per ordered pair, row-major: the kernels' working copy of
/// an instance's costs, so their loops read one contiguous row per cluster
/// instead of two bounds-checked matrices per pair.  The values are the
/// ones `cost` returns, so no decision changes.
class EdgeRows {
 public:
  template <typename Cost>
  EdgeRows(std::size_t n, Cost cost) : n_(n), w_(n * n, 0.0) {
    for (ClusterId i = 0; i < n; ++i)
      for (ClusterId j = 0; j < n; ++j)
        if (i != j) w_[i * n + j] = cost(i, j);
  }
  [[nodiscard]] const Time* row(ClusterId i) const {
    return w_.data() + i * n_;
  }

 private:
  std::size_t n_;
  std::vector<Time> w_;
};

/// The look-ahead F_j of every j in B, kept current as clusters move from
/// B to A (see `Lookahead` for what each one maintains, what it costs and
/// why only AvgMove's sum is reassociated).  Reads the caller's `Sets`,
/// which must already reflect a move when `moved_to_a` is called.
class LookaheadState {
 public:
  LookaheadState(const Instance& inst, const EdgeRows& transfer,
                 Lookahead la, const Sets& sets)
      : inst_(inst),
        transfer_(transfer),
        la_(la),
        sets_(sets),
        f_(inst.clusters(), 0.0) {
    switch (la_) {
      case Lookahead::kNone: return;
      case Lookahead::kMinEdge:
      case Lookahead::kMinEdgePlusT:
      case Lookahead::kMaxEdgePlusT:
        arg_.assign(inst.clusters(), kNoCluster);
        for (const ClusterId j : sets_.b) rescan(j);
        return;
      case Lookahead::kAvgAfterMove:
        col_sum_.assign(inst.clusters(), 0.0);
        for (const ClusterId k : sets_.b)
          col_sum_[k] = transfer_.row(inst.root())[k];
        refold();
        return;
      case Lookahead::kAvgEdge: refold(); return;
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
      case Lookahead::kAvgAfterMove:
        for (const ClusterId k : sets_.b) col_sum_[k] += transfer_.row(c)[k];
        refold();
        return;
      case Lookahead::kAvgEdge: refold(); return;
    }
  }

 private:
  /// Recompute an extremum F_j over B \ {j} and the first k attaining it
  /// (kNoCluster while nothing beats the fold's start value).
  void rescan(ClusterId j) {
    const bool is_max = la_ == Lookahead::kMaxEdgePlusT;
    Time acc = is_max ? 0.0 : kInf;
    ClusterId arg = kNoCluster;
    const Time* from_j = transfer_.row(j);
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

  /// Recompute every average F_j with an ascending-k fold over B \ {j}.
  /// AvgMove adds g_jk + L_jk and then k's column sum as two separate
  /// additions, so while A is the root alone the fold adds exactly the
  /// terms of the definition's (j, then each i in A) inner loop.
  void refold() {
    if (sets_.b.empty()) return;
    const std::size_t receivers = sets_.b.size() - 1;
    const std::size_t senders =
        la_ == Lookahead::kAvgAfterMove ? sets_.a.size() + 1 : 1;
    const auto count = static_cast<double>(receivers * senders);
    for (const ClusterId j : sets_.b) {
      const Time* from_j = transfer_.row(j);
      Time sum = 0.0;
      for (const ClusterId k : sets_.b) {
        if (k == j) continue;
        sum += from_j[k];
        if (la_ == Lookahead::kAvgAfterMove) sum += col_sum_[k];
      }
      f_[j] = receivers == 0 ? 0.0 : sum / count;
    }
  }

  const Instance& inst_;
  const EdgeRows& transfer_;
  const Lookahead la_;
  const Sets& sets_;
  std::vector<Time> f_;          ///< F_j, valid for j in B
  std::vector<ClusterId> arg_;   ///< extrema: the k attaining F_j
  std::vector<Time> col_sum_;    ///< AvgMove: Σ_{i in A} transfer(i, k)
};

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
  const EdgeRows w(inst.clusters(), [&](ClusterId i, ClusterId j) {
    return weight == FefWeight::kGapPlusLatency ? inst.transfer(i, j)
                                                : inst.L(i, j);
  });

  while (!sets.b.empty()) {
    ClusterId bi = kNoCluster, bj = kNoCluster;
    Time best = kInf;
    for (const ClusterId i : sets.a) {
      const Time* from_i = w.row(i);
      for (const ClusterId j : sets.b) {
        const Time c = from_i[j];
        if (c < best) {
          best = c;
          bi = i;
          bj = j;
        }
      }
    }
    order.push_back({bi, bj});
    sets.move_to_a(bj);
  }
  return order;
}

SendOrder ecef_order(const Instance& inst, Lookahead la) {
  Sets sets(inst);
  EvalState state(inst);
  const EdgeRows transfer(inst.clusters(), [&](ClusterId i, ClusterId j) {
    return inst.transfer(i, j);
  });
  LookaheadState lookahead(inst, transfer, la, sets);
  SendOrder order;
  order.reserve(inst.clusters() - 1);

  while (!sets.b.empty()) {
    ClusterId bi = kNoCluster, bj = kNoCluster;
    Time best = kInf;
    for (const ClusterId i : sets.a) {
      const Time start = state.send_start(i);
      const Time* from_i = transfer.row(i);
      for (const ClusterId j : sets.b) {
        const Time c = start + from_i[j] + lookahead[j];
        if (c < best) {
          best = c;
          bi = i;
          bj = j;
        }
      }
    }
    order.push_back({bi, bj});
    state.apply(bi, bj);
    sets.move_to_a(bj);
    lookahead.moved_to_a(bj);
  }
  return order;
}

SendOrder bottomup_order(const Instance& inst, BottomUpPolicy policy) {
  Sets sets(inst);
  EvalState state(inst);
  SendOrder order;
  order.reserve(inst.clusters() - 1);
  // Each sender's RT_i; the paper formula leaves every one at 0.
  std::vector<Time> ready(inst.clusters(), 0.0);
  // Row j holds every sender's transfer into j.
  const EdgeRows into(inst.clusters(), [&](ClusterId j, ClusterId i) {
    return inst.transfer(i, j);
  });

  while (!sets.b.empty()) {
    if (policy == BottomUpPolicy::kReadyTimeAware)
      for (const ClusterId i : sets.a) ready[i] = state.send_start(i);
    // For every receiver j in B: the *best* sender and its cost; then pick
    // the receiver whose best cost is the *worst* (max-min).
    ClusterId bj = kNoCluster, bj_sender = kNoCluster;
    Time worst_best = -kInf;
    for (const ClusterId j : sets.b) {
      const Time* into_j = into.row(j);
      const Time t_j = inst.T(j);
      ClusterId bi = kNoCluster;
      Time best = kInf;
      for (const ClusterId i : sets.a) {
        const Time c = ready[i] + into_j[i] + t_j;
        if (c < best) {
          best = c;
          bi = i;
        }
      }
      if (best > worst_best) {
        worst_best = best;
        bj = j;
        bj_sender = bi;
      }
    }
    order.push_back({bj_sender, bj});
    state.apply(bj_sender, bj);
    sets.move_to_a(bj);
  }
  return order;
}

}  // namespace gridcast::sched
