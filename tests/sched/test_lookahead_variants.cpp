// Bhat's alternative lookahead functions (paper Section 4.4): average
// edge cost to the rest of B, and average A->B cost after the move.
// Also the differential check of the incremental selection kernels
// against their from-scratch reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "exp/param_ranges.hpp"
#include "exp/sweep.hpp"
#include "sched/evaluate.hpp"
#include "sched/heuristics.hpp"
#include "support/rng.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::sched {
namespace {

/// The selection kernels written straight from their definitions: every
/// round rebuilds each F_j from scratch, and every loop scans all n×n
/// pairs, skipping members through `in_a`.  The oracle the incremental
/// kernels must match order for order.
namespace reference {

constexpr Time kInf = std::numeric_limits<Time>::infinity();

struct Sets {
  explicit Sets(const Instance& inst)
      : in_a(inst.clusters(), false), b_count(inst.clusters() - 1) {
    in_a[inst.root()] = true;
  }
  void move_to_a(ClusterId c) {
    in_a[c] = true;
    --b_count;
  }
  std::vector<bool> in_a;
  std::size_t b_count;
};

SendOrder fef_order(const Instance& inst, FefWeight weight) {
  const auto n = static_cast<ClusterId>(inst.clusters());
  Sets sets(inst);
  SendOrder order;
  const auto w = [&](ClusterId i, ClusterId j) {
    return weight == FefWeight::kGapPlusLatency ? inst.transfer(i, j)
                                                : inst.L(i, j);
  };
  while (sets.b_count > 0) {
    ClusterId bi = kNoCluster, bj = kNoCluster;
    Time best = kInf;
    for (ClusterId i = 0; i < n; ++i) {
      if (!sets.in_a[i]) continue;
      for (ClusterId j = 0; j < n; ++j) {
        if (sets.in_a[j]) continue;
        const Time c = w(i, j);
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
  const auto n = static_cast<ClusterId>(inst.clusters());
  Sets sets(inst);
  EvalState state(inst);
  SendOrder order;
  std::vector<Time> lookahead(n, 0.0);
  const auto recompute_lookahead = [&] {
    if (la == Lookahead::kNone) return;
    for (ClusterId j = 0; j < n; ++j) {
      if (sets.in_a[j]) continue;
      Time acc = la == Lookahead::kMaxEdgePlusT ? 0.0 : kInf;
      Time sum = 0.0;
      std::size_t count = 0;
      for (ClusterId k = 0; k < n; ++k) {
        if (sets.in_a[k] || k == j) continue;
        switch (la) {
          case Lookahead::kMinEdge:
            acc = std::min(acc, inst.transfer(j, k));
            break;
          case Lookahead::kMinEdgePlusT:
            acc = std::min(acc, inst.transfer(j, k) + inst.T(k));
            break;
          case Lookahead::kMaxEdgePlusT:
            acc = std::max(acc, inst.transfer(j, k) + inst.T(k));
            break;
          case Lookahead::kAvgEdge:
            sum += inst.transfer(j, k);
            ++count;
            break;
          case Lookahead::kAvgAfterMove:
            sum += inst.transfer(j, k);
            ++count;
            for (ClusterId i = 0; i < n; ++i) {
              if (!sets.in_a[i]) continue;
              sum += inst.transfer(i, k);
              ++count;
            }
            break;
          case Lookahead::kNone: break;
        }
      }
      if (la == Lookahead::kAvgEdge || la == Lookahead::kAvgAfterMove)
        lookahead[j] = count == 0 ? 0.0 : sum / static_cast<double>(count);
      else
        lookahead[j] = (acc == kInf) ? 0.0 : acc;
    }
  };
  while (sets.b_count > 0) {
    recompute_lookahead();
    ClusterId bi = kNoCluster, bj = kNoCluster;
    Time best = kInf;
    for (ClusterId i = 0; i < n; ++i) {
      if (!sets.in_a[i]) continue;
      const Time start = state.send_start(i);
      for (ClusterId j = 0; j < n; ++j) {
        if (sets.in_a[j]) continue;
        const Time c = start + inst.transfer(i, j) + lookahead[j];
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
  }
  return order;
}

SendOrder bottomup_order(const Instance& inst, BottomUpPolicy policy) {
  const auto n = static_cast<ClusterId>(inst.clusters());
  Sets sets(inst);
  EvalState state(inst);
  SendOrder order;
  while (sets.b_count > 0) {
    ClusterId bj = kNoCluster, bj_sender = kNoCluster;
    Time worst_best = -kInf;
    for (ClusterId j = 0; j < n; ++j) {
      if (sets.in_a[j]) continue;
      ClusterId bi = kNoCluster;
      Time best = kInf;
      for (ClusterId i = 0; i < n; ++i) {
        if (!sets.in_a[i]) continue;
        const Time rt =
            policy == BottomUpPolicy::kReadyTimeAware ? state.send_start(i)
                                                      : 0.0;
        const Time c = rt + inst.transfer(i, j) + inst.T(j);
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

}  // namespace reference

/// Compare every kernel variant with its reference on `inst`; returns the
/// number of orders compared.
std::size_t expect_reference_orders(const Instance& inst) {
  std::size_t compared = 0;
  const auto same = [&](const std::string& kernel, const SendOrder& got,
                        const SendOrder& want) {
    EXPECT_EQ(got, want) << kernel;
    ++compared;
  };
  for (const auto la :
       {Lookahead::kNone, Lookahead::kMinEdge, Lookahead::kMinEdgePlusT,
        Lookahead::kMaxEdgePlusT, Lookahead::kAvgEdge,
        Lookahead::kAvgAfterMove})
    same("ecef lookahead=" + std::to_string(static_cast<int>(la)),
         ecef_order(inst, la), reference::ecef_order(inst, la));
  for (const auto w : {FefWeight::kLatencyOnly, FefWeight::kGapPlusLatency})
    same("fef weight=" + std::to_string(static_cast<int>(w)),
         fef_order(inst, w), reference::fef_order(inst, w));
  for (const auto p :
       {BottomUpPolicy::kReadyTimeAware, BottomUpPolicy::kPaperFormula})
    same("bottomup policy=" + std::to_string(static_cast<int>(p)),
         bottomup_order(inst, p), reference::bottomup_order(inst, p));
  return compared;
}

class ReferenceOnTable2 : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReferenceOnTable2, IncrementalKernelsMatchReference) {
  const std::size_t n = GetParam();
  constexpr std::uint64_t kSeeds = 24;
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("clusters=" + std::to_string(n) +
                 " seed=" + std::to_string(seed));
    Rng rng = Rng::stream(seed, n);
    compared += expect_reference_orders(
        exp::sample_instance(exp::ParamRanges::paper(), n, rng));
  }
  EXPECT_EQ(compared, kSeeds * 10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReferenceOnTable2,
                         ::testing::Values(2, 3, 5, 10, 20, 35, 50, 64));

/// `inst` with every g, L and T rounded to a multiple of `step` seconds.
Instance snapped(const Instance& inst, Time step) {
  const std::size_t n = inst.clusters();
  const auto snap = [step](Time v) { return std::round(v / step) * step; };
  SquareMatrix<Time> g(n, 0.0), L(n, 0.0);
  std::vector<Time> T(n);
  for (ClusterId i = 0; i < n; ++i) {
    T[i] = snap(inst.T(i));
    for (ClusterId j = 0; j < n; ++j) {
      if (i == j) continue;
      g(i, j) = snap(inst.g(i, j));
      L(i, j) = snap(inst.L(i, j));
    }
  }
  return Instance(inst.root(), std::move(g), std::move(L), std::move(T));
}

class ReferenceOnSnappedTable2
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReferenceOnSnappedTable2, FirstWinsTieBreaksMatchReference) {
  // Plain Table 2 draws almost never hold two equal candidates, so they
  // cannot tell a first-wins tie-break from a last-wins one.  Snapped to
  // a 1/8, 1/16 or 1/128 s grid, most rounds of most kernels do.  The
  // grids are binary fractions, so every sum of snapped values is exact
  // and AvgMove's pre-summed column sums equal the definition's one-by-one
  // sums; on decimal grids their last bits differ and flip ties (see
  // `Lookahead`).
  const std::size_t n = GetParam();
  constexpr std::uint64_t kSeeds = 40;
  std::size_t compared = 0;
  for (const Time step : {0x1p-3, 0x1p-4, 0x1p-7}) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("clusters=" + std::to_string(n) +
                   " step=" + std::to_string(step) +
                   " seed=" + std::to_string(seed));
      Rng rng = Rng::stream(seed, n);
      compared += expect_reference_orders(snapped(
          exp::sample_instance(exp::ParamRanges::paper(), n, rng), step));
    }
  }
  EXPECT_EQ(compared, 3 * kSeeds * 10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReferenceOnSnappedTable2,
                         ::testing::Values(5, 7, 12, 13, 20, 35, 50, 64));

TEST(ReferenceOnAsymmetric, IncrementalKernelsMatchReference) {
  // Table 2 draws are symmetric, so a kernel reading transfer(k, i) for
  // transfer(i, k) would pass on them; these draws are not.
  std::size_t compared = 0;
  for (const std::size_t n : {3, 10, 35}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("clusters=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      Rng rng = Rng::stream(seed, 1000 + n);
      SquareMatrix<Time> g(n, 0.0), L(n, 0.0);
      std::vector<Time> T(n);
      for (std::size_t i = 0; i < n; ++i) {
        T[i] = rng.uniform(0.0, 0.5);
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j) continue;
          g(i, j) = rng.uniform(0.05, 1.0);
          L(i, j) = rng.uniform(0.0, 0.1);
        }
      }
      const auto root = static_cast<ClusterId>(seed % n);
      compared += expect_reference_orders(
          Instance(root, std::move(g), std::move(L), std::move(T)));
    }
  }
  EXPECT_EQ(compared, 3 * 8 * 10u);
}

TEST(ReferenceOnTestbed, IncrementalKernelsMatchReferenceEveryRootAndSize) {
  // The testbed's links come in site classes, so its instances are full
  // of exact ties — the case where a reordered fold would show first.
  const auto grid = topology::grid5000_testbed();
  std::size_t compared = 0;
  for (ClusterId root = 0; root < grid.cluster_count(); ++root) {
    for (const Bytes m : exp::default_size_ladder()) {
      SCOPED_TRACE("root=" + std::to_string(root) +
                   " bytes=" + std::to_string(m));
      compared += expect_reference_orders(Instance::from_grid(grid, root, m));
    }
  }
  EXPECT_EQ(compared, grid.cluster_count() *
                          exp::default_size_ladder().size() * 10);
}

TEST(AvgLookahead, AvgEdgeHandComputed) {
  // Receiver 1 has cheap average onward edges, receiver 2 expensive ones;
  // root edges tie.  kAvgEdge must fetch 1 first.
  SquareMatrix<Time> g(4, 0.0), L(4, 0.0);
  const auto set = [&](ClusterId a, ClusterId b, Time v) {
    g(a, b) = v;
    g(b, a) = v;
  };
  set(0, 1, 0.10);
  set(0, 2, 0.10);
  set(0, 3, 0.50);
  set(1, 2, 0.20);
  set(1, 3, 0.10);
  set(2, 3, 0.90);
  const Instance inst(0, std::move(g), std::move(L), {0, 0, 0, 0});
  // F_1 = avg(0.20, 0.10) = 0.15; F_2 = avg(0.20, 0.90) = 0.55.
  const SendOrder o = ecef_order(inst, Lookahead::kAvgEdge);
  EXPECT_EQ(o.front(), (SendPair{0, 1}));
}

TEST(AvgLookahead, AvgAfterMoveAccountsForExistingSenders) {
  // kAvgAfterMove averages over the hypothetical A + {j}: a receiver with
  // bad own edges can still score well when A already reaches B cheaply.
  SquareMatrix<Time> g(3, 0.0), L(3, 0.0);
  g(0, 1) = g(1, 0) = 0.10;
  g(0, 2) = g(2, 0) = 0.10;
  g(1, 2) = g(2, 1) = 0.80;
  const Instance inst(0, std::move(g), std::move(L), {0, 0, 0});
  // F_1 = avg over senders {1, 0} to {2}: (0.8 + 0.1)/2 = 0.45.
  // F_2 = avg over senders {2, 0} to {1}: (0.8 + 0.1)/2 = 0.45.
  // Tie -> lowest receiver id first; mostly checks the arithmetic path.
  const SendOrder o = ecef_order(inst, Lookahead::kAvgAfterMove);
  EXPECT_EQ(o.front(), (SendPair{0, 1}));
  const Schedule s = evaluate_order(inst, o);
  EXPECT_EQ(describe_invalid(s, 3), "");
}

class AvgLookaheadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AvgLookaheadSweep, ProducesValidSchedules) {
  Rng rng = Rng::stream(11, GetParam());
  const Instance inst =
      exp::sample_instance(exp::ParamRanges::paper(), GetParam(), rng);
  for (const auto la : {Lookahead::kAvgEdge, Lookahead::kAvgAfterMove}) {
    const SendOrder o = ecef_order(inst, la);
    const Schedule s = evaluate_order(inst, o);
    EXPECT_EQ(describe_invalid(s, inst.clusters()), "");
  }
}

TEST_P(AvgLookaheadSweep, DistinctFromMinEdgeOnLargeInstances) {
  if (GetParam() < 10) return;  // tiny instances often coincide
  Rng rng = Rng::stream(13, GetParam());
  const Instance inst =
      exp::sample_instance(exp::ParamRanges::paper(), GetParam(), rng);
  EXPECT_NE(ecef_order(inst, Lookahead::kAvgEdge),
            ecef_order(inst, Lookahead::kMinEdge));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AvgLookaheadSweep,
                         ::testing::Values(2, 3, 5, 10, 20, 40));

}  // namespace
}  // namespace gridcast::sched
