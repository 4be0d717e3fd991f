#pragma once

#include "sched/instance.hpp"
#include "topology/grid.hpp"

/// Synthetic-grid realisation of a sampled scheduling instance.
///
/// The paper's Monte-Carlo races (Figs. 1-4) draw their inputs directly —
/// per-pair gap g and latency L, per-cluster internal broadcast time T —
/// with no topology behind them, which is why grid-executing backends such
/// as "sim" cannot time them (`Backend::instance_only()`).  `realise_instance`
/// closes that gap: it constructs a minimal concrete grid whose *derived*
/// instance reproduces the sampled one bit-for-bit, so the message-level
/// simulator can execute the very draws the analytic model scores — the
/// "measured Monte-Carlo" extension behind `gridcast_race --race
/// --backend=sim`.
///
/// Construction: one two-rank cluster per sampled cluster (coordinator +
/// one leaf) whose intra link has zero latency/overheads and a constant
/// gap equal to T_c, so the internal binomial broadcast takes exactly T_c
/// for any message size; inter-cluster links get constant gap g_ij,
/// latency L_ij and zero overheads.  Exactness:
/// `sched::Instance::from_grid(realise_instance(inst), inst.root(), m)`
/// equals `inst` for every m (constant gap functions are size-free).
///
/// Executed completions still differ from the analytic score by design —
/// the simulator serialises a coordinator's WAN relays and its local tree
/// on one NIC — exactly the predicted/measured residual the backends exist
/// to expose.
namespace gridcast::exp {

/// Build the realisation grid.  Clusters are named "c0", "c1", ...;
/// the instance's root is *not* baked in (a Grid has no root), so callers
/// keep passing it to `Instance::from_grid` / the collective verbs.
[[nodiscard]] topology::Grid realise_instance(const sched::Instance& inst);

}  // namespace gridcast::exp
