#pragma once

#include <cstdint>

#include "sched/instance.hpp"
#include "sched/schedule.hpp"

/// The seven broadcast scheduling heuristics of the paper.
///
/// Baselines (paper Section 4): Flat Tree (ECO/MagPIe), FEF, ECEF and
/// ECEF-LA (Bhat et al., JPDC 2003).  Grid-aware contributions (Section 5):
/// ECEF-LAt, ECEF-LAT and BottomUp, which add the intra-cluster broadcast
/// time T to the selection criteria.
///
/// Every heuristic emits a `SendOrder`; `evaluate_order` assigns the times.
/// Selection decisions inside the ECEF family use the *same* timing state
/// as the evaluator (`EvalState`), so a heuristic's internal cost estimates
/// coincide exactly with the reported makespans.
///
/// Selection walks.  FEF and the ECEF family take the (i, j) in A × B of
/// least cost, BottomUp the i in A of least cost for each j in B.  Each
/// kernel takes every row's minimum (one sender's over B, or one
/// receiver's over A) folded into four independent accumulators, so
/// that consecutive compares overlap instead of forming one serial chain,
/// then scans the winning row for the first member attaining it.  A
/// minimum is exact in any fold order, and the scan recomputes the same
/// expression, so ties go to the first pair in ascending (sender,
/// receiver) order, as with a strict-less row-major scan.  The kernels
/// copy no costs: FEF reads rows of L (or of the transfer table, for the
/// g+L weight), the ECEF family and its look-aheads read rows of the
/// instance's transfer table in place, and BottomUp reads its column j at
/// stride n.  Plain ECEF leaves out the look-ahead term, which is 0.0 for
/// every j: adding it changes no non-negative cost.
///
/// These free functions are the selection kernels; the polymorphic
/// `SchedulerEntry` wrappers in builtin_schedulers.hpp expose them through
/// the registry, which is how consumers should reach them.
namespace gridcast::sched {

/// Lookahead flavours of the ECEF family.
///
/// The first four are the paper's Figs. 1-4 competitors; the last two are
/// the alternative lookahead functions Bhat "suggests" and the paper
/// recounts in Section 4.4: the average cost from P_j to the rest of B,
/// and the average A->B cost if P_j were moved to A.
///
/// `ecef_order` keeps every F_j current as clusters move from B to A
/// instead of evaluating the definitions afresh each round (n clusters,
/// one move per round; each round also pays the O(|A|·|B|) selection
/// walk, O(n³) per order):
///   * kMinEdge, kMinEdgePlusT, kMaxEdgePlusT keep each j's extremum and
///     the first k attaining it, and rescan B (O(n)) only for the j whose
///     k just left B: O(n²) amortised per order (O(n³) when one cluster
///     attains every j's extremum), where rescanning every j each round
///     costs O(n³).
///   * kAvgEdge refolds each F_j over B, ascending in k, every round:
///     O(n³) per order.
///   * kAvgAfterMove keeps each k's column sum Σ_{i in A} (g_ik + L_ik),
///     updated in O(n) per move, and folds g_jk + L_jk plus that sum over
///     B, ascending in k: O(n³) per order, where summing the definition's
///     A × B terms for every j each round costs O(n⁴).
///   Both refold four rows per pass over B.  Each row still adds its own
///   terms in ascending k, so every sum is the same double; only the
///   additions of different rows overlap.
///
/// Min and max are exact, so a kept extremum is the value a full rescan
/// would find, and kAvgEdge adds the definition's terms in the
/// definition's order.  Only kAvgAfterMove's sum is reassociated: its A
/// terms are pre-summed per k in move order instead of added one by one
/// per (j, k).  While A is the root alone the two agree term for term;
/// later rounds can differ in the last bits, which could flip an exact
/// tie.  tests/sched/test_lookahead_variants.cpp checks every variant
/// against the from-scratch definitions on Table 2 draws (2-64 clusters),
/// asymmetric draws, every testbed instance and tie-heavy Table 2 draws
/// snapped to 1/8, 1/16 and 1/128 s grids, and finds no order change.  On
/// the binary grids every sum is exact, so the reassociation cannot show;
/// snapped to 0.1, 0.05 and 0.01 s instead, 227 of 960 kAvgAfterMove
/// orders (5-64 clusters, 40 draws each) differ from the definition's.
enum class Lookahead : std::uint8_t {
  kNone,         ///< plain ECEF
  kMinEdge,      ///< ECEF-LA:  F_j = min_k (g_jk + L_jk)
  kMinEdgePlusT, ///< ECEF-LAt: F_j = min_k (g_jk + L_jk + T_k)
  kMaxEdgePlusT, ///< ECEF-LAT: F_j = max_k (g_jk + L_jk + T_k)
  kAvgEdge,      ///< F_j = avg_{k in B\{j}} (g_jk + L_jk)
  kAvgAfterMove, ///< F_j = avg_{i in A+{j}, k in B\{j}} (g_ik + L_ik)
};

/// FEF edge weight (DESIGN.md §4.2).  Bhat defines the edge weight as
/// "usually the communication latency"; under the paper's Table 2 ranges
/// the gap dominates the true cost, which is precisely why FEF underwhelms
/// in Figs. 1-2 (and why BottomUp beats it).  The latency-only weight is
/// therefore the faithful default; the informed g+L weight is the ablation.
enum class FefWeight : std::uint8_t {
  kLatencyOnly,     ///< w_ij = L_ij (paper-faithful default)
  kGapPlusLatency,  ///< w_ij = g_ij(m) + L_ij (informed-weight ablation)
};

/// BottomUp inner-cost policy (DESIGN.md §4.1: the paper's formula omits
/// the sender ready time; the prose implies it matters).
enum class BottomUpPolicy : std::uint8_t {
  kReadyTimeAware,  ///< inner cost RT_i + g_ij + L_ij + T_j (default)
  kPaperFormula,    ///< inner cost g_ij + L_ij + T_j
};

/// Flat tree: the root contacts every other cluster sequentially, in
/// cluster-id order (the paper notes the result depends on this ordering —
/// that sensitivity is part of what Figs. 1–2 show).
[[nodiscard]] SendOrder flat_tree_order(const Instance& inst);

/// Fastest Edge First: repeatedly take the lightest edge between A and B.
/// Receivers join A immediately — sender readiness is ignored, which is
/// exactly the flaw ECEF fixes.
///
/// Like `ecef_order` and `bottomup_order`, each round walks only the
/// current (A, B) pairs, and ties go to the first pair in ascending
/// (sender, receiver) order (see "Selection walks" above).
[[nodiscard]] SendOrder fef_order(const Instance& inst,
                                  FefWeight weight = FefWeight::kLatencyOnly);

/// The ECEF family: minimise RT_i + g_ij + L_ij (+ F_j per `la`).
[[nodiscard]] SendOrder ecef_order(const Instance& inst,
                                   Lookahead la = Lookahead::kNone);

/// BottomUp: max-min — deliver first to the cluster whose best possible
/// completion is worst.
[[nodiscard]] SendOrder bottomup_order(
    const Instance& inst, BottomUpPolicy policy = BottomUpPolicy::kReadyTimeAware);

}  // namespace gridcast::sched
