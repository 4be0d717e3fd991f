#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "collective/backend.hpp"
#include "exp/instance_cache.hpp"
#include "io/bench_json.hpp"
#include "sched/registry.hpp"
#include "serve/plan_cache.hpp"
#include "support/thread_pool.hpp"
#include "topology/grid.hpp"

/// The serving layer behind `gridcast_serve`.
///
/// `PlanService` is the whole request path in library form: it owns the
/// signature inputs (grid fingerprint, resolved competitor set and its
/// revision), the two caches (derived instances, finished plans), and the
/// analytic plogp backend that scores selection — so the tool is a thin
/// `main` and every piece is unit-testable, like `exp::RaceCli`.
///
/// Requests speak a one-line-per-request protocol (`handle_line`), and a
/// whole request log can be *replayed* into a `"bench": "serve"`
/// BenchReport (`replay_requests`): misses batch across the thread pool
/// while the accounting stays equal to serial one-request-at-a-time
/// semantics, so the default report is byte-identical for every thread
/// count — only the opt-in timing series depend on the host.
namespace gridcast::serve {

/// Service configuration (the tool's flags, minus I/O concerns).
struct ServeOptions {
  /// Scheduler-registry names competing for every plan; empty = every
  /// registered scheduler in registration order.
  std::vector<std::string> sched_names;
  sched::CompletionModel completion = sched::CompletionModel::kEager;
  /// Plan-cache byte bound (`SchedulePlanCache` semantics).
  std::size_t plan_capacity = SchedulePlanCache::kUnbounded;
  /// Instance-cache byte bound (`exp::InstanceCache` semantics).
  std::size_t instance_capacity = exp::InstanceCache::kUnbounded;
};

class PlanService {
 public:
  /// The service only references the grid; it must outlive the service.
  /// `grid_name` is recorded in replay reports ("grid5000" or a path).
  /// Throws InvalidInput for unknown scheduler names or an empty registry.
  PlanService(const topology::Grid& grid, std::string grid_name,
              ServeOptions opts = {});
  PlanService(topology::Grid&&, std::string, ServeOptions = {}) = delete;

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// The signature a request encodes to.  All-to-all is root-symmetric
  /// (one plan serves every root), so its signatures canonicalise
  /// `root` to 0.  Throws InvalidInput for an out-of-range root or a
  /// zero size.
  [[nodiscard]] PlanSignature signature_for(collective::Verb verb,
                                            ClusterId root, Bytes m) const;

  /// Run full selection for `sig` — no cache involved: gate every
  /// competitor with `can_schedule` (every root for all-to-all), score
  /// the survivors through the plogp backend, build the winner's
  /// schedule for the bucket-floor size.  Ties keep the first competitor
  /// in registration order, so selection is deterministic.  Thread-safe;
  /// concurrent builds of distinct signatures run fully parallel.
  /// Throws InvalidInput when `sig` is not this service's (wrong grid
  /// fingerprint or scheduler revision) or every competitor refuses.
  [[nodiscard]] PlanPtr build_plan(const PlanSignature& sig);

  /// The cached request path: `signature_for` + plan-cache lookup,
  /// building on a miss.
  [[nodiscard]] PlanPtr plan_for(collective::Verb verb, ClusterId root,
                                 Bytes m);

  /// One served request, with how it was answered: from residency
  /// (`hit`), by waiting on another requester's in-flight build of the
  /// same signature (`waited`), or by building (neither).
  struct Served {
    PlanPtr plan;
    bool hit = false;
    bool waited = false;
  };

  /// The full request path behind every front-end: `signature_for`, then
  /// the latched cache `get` — hits answer immediately, the first
  /// requester of a missing signature builds, concurrent requesters of
  /// the same signature share that build, and requests for other
  /// signatures never queue behind it.  Thread-safe.
  [[nodiscard]] Served serve(collective::Verb verb, ClusterId root, Bytes m);

  /// One protocol exchange.  Commands:
  ///
  ///     plan <verb> <root> <size>   answer a schedule-request
  ///     stats                       cache and service counters
  ///     quit                        close the session
  ///
  /// Blank lines and `#` comments produce no reply (`text` empty).
  /// Malformed input replies `error: <one-line reason>` — the session
  /// survives.  Replies are single-line, deterministic (doubles at 17
  /// significant digits), and documented in the README's serving
  /// section.
  struct Reply {
    std::string text;  ///< empty = nothing to send
    bool hit = false;  ///< plan commands: answered from cache
    bool quit = false; ///< session should close
  };
  [[nodiscard]] Reply handle_line(std::string_view line);

  /// The one-line `stats` reply (also what `handle_line("stats")`
  /// answers): cache and service counters, space-separated `key=value`.
  [[nodiscard]] std::string stats_line() const;

  [[nodiscard]] const topology::Grid& grid() const noexcept { return *grid_; }
  [[nodiscard]] const std::string& grid_name() const noexcept {
    return grid_name_;
  }
  [[nodiscard]] const std::vector<sched::Scheduler>& competitors()
      const noexcept {
    return comps_;
  }
  [[nodiscard]] std::uint64_t grid_hash() const noexcept { return grid_hash_; }
  [[nodiscard]] std::uint64_t sched_rev() const noexcept { return sched_rev_; }
  [[nodiscard]] SchedulePlanCache& plans() noexcept { return plans_; }
  [[nodiscard]] const SchedulePlanCache& plans() const noexcept {
    return plans_;
  }
  [[nodiscard]] exp::InstanceCache& instances() noexcept { return instances_; }
  [[nodiscard]] const exp::InstanceCache& instances() const noexcept {
    return instances_;
  }

 private:
  const topology::Grid* grid_;
  std::string grid_name_;
  ServeOptions opts_;
  std::vector<sched::Scheduler> comps_;
  collective::BackendPtr backend_;  ///< plogp, bound to *grid_
  std::uint64_t grid_hash_;
  std::uint64_t sched_rev_;
  exp::InstanceCache instances_;
  SchedulePlanCache plans_;
};

// ------------------------------------------------------------------ replay

/// One parsed request-log line.
struct ReplayRequest {
  collective::Verb verb = collective::Verb::kBcast;
  ClusterId root = 0;
  Bytes size = 0;
};

/// One classified protocol line, for front-ends (the TCP session loop)
/// that route the plan path differently from stats/quit: `kNone` is a
/// blank or comment line (no reply), `kPlan` carries the parsed request.
/// Malformed lines throw InvalidInput with the same one-line reasons
/// `handle_line` turns into `error:` replies.
struct LineCommand {
  enum class Kind { kNone, kPlan, kStats, kQuit };
  Kind kind = Kind::kNone;
  ReplayRequest plan;  ///< valid when kind == kPlan
};
[[nodiscard]] LineCommand parse_command(std::string_view line);

/// The deterministic single-line `plan` reply for a request answered by
/// `plan`: shared by the interactive path and the TCP session loop so
/// every front-end answers byte-identically.
[[nodiscard]] std::string plan_reply_text(const ReplayRequest& rq,
                                          std::uint32_t bucket,
                                          const SchedulePlan& plan, bool hit);

/// Parse a request log: one `plan <verb> <root> <size>` per line, blank
/// lines and `#` comments skipped.  Strict — a malformed line throws
/// InvalidInput with its line number (replay logs are checked-in CI
/// artifacts, not interactive sessions).
[[nodiscard]] std::vector<ReplayRequest> parse_request_log(std::istream& in);

struct ReplayOptions {
  /// Requests per batch: each batch's distinct missing plans build
  /// across the pool before the batch is accounted serially.  The batch
  /// is also the deterministic `build_waits` window (see below).
  std::size_t batch = 64;
  /// Add the host-dependent series (requests_per_s, latency_p50_s,
  /// latency_p99_s) to the report.  Off by default so the report is
  /// byte-identical across machines, runs and thread counts; the CI
  /// throughput gate opts in.
  bool timing = false;
  /// Concurrent replay sessions: with `sessions > 1` the log is split
  /// contiguously and each shard is driven through the live request path
  /// (`serve`) by its own thread, hammering the latched caches
  /// concurrently.  The deterministic series never depend on it — they
  /// are computed by the serial accounting model — so the report stays
  /// byte-identical for every session count; with `timing`, the timing
  /// tail measures the concurrent run.
  std::size_t sessions = 1;
};

/// Replay `requests` through the service and report the outcome as a
/// `"bench": "serve"` BenchReport: the axis is the request count, and
/// the deterministic series (hit_rate, hits, misses, plans_built,
/// build_waits, evictions, predicted_sum_s) are exact.
///
/// Accounting is defined as *serial one-request-at-a-time semantics from
/// a cold cache*, computed against a private model cache configured like
/// the service's (same capacity) — so the report is
/// a pure function of (service configuration, log): byte-identical for
/// every worker count, every session count, and regardless of how warm
/// the live cache already is.  `build_waits` is the one batch-scoped
/// series: it counts the requests that would have waited on an earlier
/// same-batch requester's in-flight build had the batch run
/// concurrently (0 at `batch == 1`); every other series is additionally
/// invariant under `batch`.  Each distinct signature is built once per
/// replay (in parallel across `pool`); `plans_built` reports the builds
/// the serial cold daemon would have run, which under eviction can
/// exceed the builds actually executed.  Throws InvalidInput on an
/// empty log.
[[nodiscard]] io::BenchReport replay_requests(
    PlanService& service, const std::vector<ReplayRequest>& requests,
    ThreadPool& pool, const ReplayOptions& opts = {});

/// Warm the service's *live* plan cache from a request log: per batch,
/// the distinct signatures not already resident build across `pool` and
/// insert in request order — the same batched build path replay uses,
/// against the real cache.  Warming traffic is ordinary traffic: it
/// shows up in the `stats` counters.  Returns the number of plans built.
std::size_t warm_requests(PlanService& service,
                          const std::vector<ReplayRequest>& requests,
                          ThreadPool& pool, std::size_t batch = 64);

}  // namespace gridcast::serve
