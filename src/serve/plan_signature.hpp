#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "collective/verb.hpp"
#include "sched/registry.hpp"
#include "support/types.hpp"
#include "topology/grid.hpp"

/// Stable request identity for the serving layer.
///
/// A schedule-request is fully determined by five inputs: the grid, the
/// collective verb, the root cluster, the message size, and the scheduler
/// set competing for the plan.  `PlanSignature` reduces them to five
/// ordered fields, the `SchedulePlanCache` key, so repeat requests hit the
/// cache instead of re-running selection — nvfuser's "input id encoding
/// for kernel cache lookup", applied to collective schedules.
///
/// Two deliberate quantisations make the key *useful*, not just correct:
///
///  * The grid collapses to a fingerprint hash of its full text form
///    (`io::grid_to_string`), so any pLogP parameter change — not just a
///    shape change — rolls the key.
///  * The message size collapses to a quarter-octave bucket: sizes within
///    ~19% of each other share a plan (send orders are stable across such
///    spans; the pLogP gap functions are piecewise-linear in size).  The
///    plan is built for the bucket's floor size, so the cached makespan is
///    the floor's prediction, reproducible from the bucket alone.
///
/// The scheduler-set revision folds every competitor's name and option
/// description, so registering a new heuristic (or re-tuning one)
/// invalidates all plans it could have won.
namespace gridcast::serve {

struct PlanSignature {
  std::uint64_t grid_hash = 0;  ///< `grid_fingerprint` of the grid
  collective::Verb verb = collective::Verb::kBcast;
  ClusterId root = 0;           ///< 0 for all-to-all (root-symmetric)
  std::uint32_t size_bucket = 0;  ///< `size_bucket_of(message size)`
  std::uint64_t sched_rev = 0;  ///< `scheduler_set_revision` of the set

  [[nodiscard]] auto operator<=>(const PlanSignature&) const = default;

  /// Stable text encoding, e.g. "g=00a1…;v=bcast;r=0;b=80;s=3f…", for
  /// diagnostics.  Two signatures encode equal iff they compare equal.
  [[nodiscard]] std::string encode() const;
};

/// 64-bit FNV-1a of the grid's full text serialisation.  Any change to
/// shape, sizes, or pLogP parameters changes the fingerprint.
[[nodiscard]] std::uint64_t grid_fingerprint(const topology::Grid& grid);

/// Quarter-octave size bucket: sizes 1–3 get buckets 0–2; from 4 bytes up,
/// each power-of-two octave splits into four equal-width buckets
/// (bucket = 4·msb + quarter, so buckets are monotone in size).  Throws
/// InvalidInput for size 0 — no verb moves zero bytes.
[[nodiscard]] std::uint32_t size_bucket_of(Bytes m);

/// Smallest size mapping to `bucket` — the size plans are built for.
/// Inverse of `size_bucket_of` on bucket floors:
/// `size_bucket_of(bucket_floor(b)) == b` for every reachable bucket.
/// Throws InvalidInput for unreachable bucket ids.
[[nodiscard]] Bytes bucket_floor(std::uint32_t bucket);

/// Order-sensitive FNV-1a fold of every competitor's `sched::entry_key`
/// (registry name and option description, the order memo's key too).
/// Adding, removing, reordering, or re-tuning a competitor changes the
/// revision and thereby every signature.
[[nodiscard]] std::uint64_t scheduler_set_revision(
    const std::vector<sched::Scheduler>& competitors);

}  // namespace gridcast::serve
