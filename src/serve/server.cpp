#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "exp/race.hpp"
#include "sched/order_memo.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"

namespace gridcast::serve {

namespace {

/// 17-significant-digit double, matching the BenchReport writer, so
/// protocol replies are byte-stable and round-trip exactly.
std::string fmt17(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::vector<std::string> tokens_of(std::string_view line) {
  std::vector<std::string> out;
  std::istringstream in{std::string(line)};
  for (std::string tok; in >> tok;) out.push_back(std::move(tok));
  return out;
}

}  // namespace

PlanService::PlanService(const topology::Grid& grid, std::string grid_name,
                         ServeOptions opts)
    : grid_(&grid),
      grid_name_(std::move(grid_name)),
      opts_(std::move(opts)),
      comps_(exp::resolve_competitors(
          opts_.sched_names.empty() ? sched::registry().names()
                                    : opts_.sched_names,
          sched::HeuristicOptions{.completion = opts_.completion})),
      backend_(collective::backend_registry().make(
          "plogp", collective::BackendOptions{.grid = &grid})),
      grid_hash_(grid_fingerprint(grid)),
      sched_rev_(scheduler_set_revision(comps_)),
      instances_(grid, opts_.instance_capacity),
      plans_(opts_.plan_capacity) {
  GRIDCAST_ASSERT(!comps_.empty(), "no competitors to serve with");
}

PlanSignature PlanService::signature_for(collective::Verb verb, ClusterId root,
                                         Bytes m) const {
  const auto n = static_cast<ClusterId>(grid_->cluster_count());
  if (root >= n)
    throw InvalidInput("root cluster " + std::to_string(root) +
                       " out of range (grid has " + std::to_string(n) +
                       " clusters)");
  // All-to-all schedules every root; its plan is root-independent, so all
  // roots share signature root 0 (the root is still range-checked above —
  // the request named a cluster that must exist).
  const ClusterId sig_root =
      verb == collective::Verb::kAlltoall ? ClusterId{0} : root;
  return PlanSignature{grid_hash_, verb, sig_root, size_bucket_of(m),
                       sched_rev_};
}

PlanPtr PlanService::build_plan(const PlanSignature& sig) {
  if (sig.grid_hash != grid_hash_)
    throw InvalidInput("plan signature encodes a different grid (fingerprint "
                       "mismatch)");
  if (sig.sched_rev != sched_rev_)
    throw InvalidInput("plan signature encodes a different scheduler set "
                       "(revision mismatch)");
  const Bytes m = bucket_floor(sig.size_bucket);

  // One memo per build: a broadcast build's composites ("auto", "Mixed")
  // reuse the orders the loop below derived for their candidates and
  // delegates, and the plan's schedule is the winner's stored one.
  // Scatter and all-to-all derive their instances inside the backend, so
  // only the plan's schedule goes through the memo there.
  const exp::InstancePtr inst = instances_.get(sig.root, m);
  sched::OrderMemo memo;
  const sched::SchedulerRuntimeInfo info(*inst, m, opts_.completion, &memo);

  const sched::Scheduler* best = nullptr;
  Time best_completion = 0.0;
  std::vector<std::string> refused;
  for (const auto& comp : comps_) {
    // The per-verb gate the sweeps apply too (all-to-all probes every
    // root).
    if (!exp::verb_accepts(comp, sig.verb, instances_, sig.root, m)) {
      refused.emplace_back(comp.name());
      continue;
    }
    Time completion = 0.0;
    switch (sig.verb) {
      case collective::Verb::kBcast:
        completion = backend_->bcast(comp.entry(), info).completion;
        break;
      case collective::Verb::kScatter:
        completion = backend_->scatter(comp.entry(), sig.root, m).completion;
        break;
      case collective::Verb::kAlltoall:
        completion = backend_->alltoall(comp.entry(), m).completion;
        break;
    }
    // Strict less: ties keep the earlier competitor, so selection is a
    // pure function of the signature and the registration order.
    if (best == nullptr || completion < best_completion) {
      best = &comp;
      best_completion = completion;
    }
  }
  if (best == nullptr) {
    std::string who;
    for (const auto& name : refused) {
      if (!who.empty()) who += ", ";
      who += name;
    }
    throw InvalidInput("no schedulable competitor for signature " +
                       sig.encode() + " (refused: " + who + ")");
  }
  return std::make_shared<const SchedulePlan>(SchedulePlan{
      sig, std::string(best->name()),
      sched::registry().make(best->name(), best->options()),
      sched::schedule_of(best->entry(), info), best_completion, m});
}

PlanPtr PlanService::plan_for(collective::Verb verb, ClusterId root, Bytes m) {
  return plans_.get(signature_for(verb, root, m),
                    [this](const PlanSignature& sig) {
                      return build_plan(sig);
                    });
}

PlanService::Served PlanService::serve(collective::Verb verb, ClusterId root,
                                       Bytes m) {
  const PlanSignature sig = signature_for(verb, root, m);
  SchedulePlanCache::GetStats gs;
  PlanPtr plan = plans_.get(
      sig, [this](const PlanSignature& s) { return build_plan(s); }, &gs);
  return Served{std::move(plan), gs.hit, gs.waited};
}

LineCommand parse_command(std::string_view line) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string_view::npos || line[first] == '#') return {};
  const std::vector<std::string> toks = tokens_of(line);
  if (toks[0] == "quit") return {.kind = LineCommand::Kind::kQuit, .plan = {}};
  if (toks[0] == "stats")
    return {.kind = LineCommand::Kind::kStats, .plan = {}};
  if (toks[0] == "plan") {
    if (toks.size() != 4)
      throw InvalidInput("usage: plan <verb> <root> <size>");
    return {.kind = LineCommand::Kind::kPlan,
            .plan = ReplayRequest{collective::to_verb(toks[1]),
                                  parse_count<ClusterId>(toks[2], "root"),
                                  parse_size(toks[3])}};
  }
  throw InvalidInput("unknown command '" + toks[0] +
                     "' (valid: plan, stats, quit)");
}

std::string plan_reply_text(const ReplayRequest& rq, std::uint32_t bucket,
                            const SchedulePlan& plan, bool hit) {
  std::string out = "plan verb=";
  out += collective::verb_name(rq.verb);
  out += " root=" + std::to_string(rq.root);
  out += " size=" + std::to_string(rq.size);
  out += " bucket=" + std::to_string(bucket);
  out += " sched=" + plan.scheduler;
  out += " makespan=" + fmt17(plan.predicted_makespan);
  out += " transfers=" + std::to_string(plan.schedule.transfers.size());
  out += hit ? " hit" : " miss";
  return out;
}

std::string PlanService::stats_line() const {
  std::string out = "stats grid=" + grid_name_;
  out += " schedulers=" + std::to_string(comps_.size());
  out += " plans=" + std::to_string(plans_.entries());
  out += " plan_bytes=" + std::to_string(plans_.bytes_in_use());
  out += " hits=" + std::to_string(plans_.hits());
  out += " misses=" + std::to_string(plans_.misses());
  out += " evictions=" + std::to_string(plans_.evictions());
  out += " build_waits=" + std::to_string(plans_.build_waits());
  out += " instances=" + std::to_string(instances_.entries());
  out += " instance_hits=" + std::to_string(instances_.hits());
  out += " instance_misses=" + std::to_string(instances_.misses());
  return out;
}

PlanService::Reply PlanService::handle_line(std::string_view line) {
  try {
    const LineCommand cmd = parse_command(line);
    switch (cmd.kind) {
      case LineCommand::Kind::kNone:
        return {};
      case LineCommand::Kind::kQuit:
        return {.text = "bye", .quit = true};
      case LineCommand::Kind::kStats:
        return {.text = stats_line()};
      case LineCommand::Kind::kPlan: {
        // The latched path: a resident plan answers immediately, the
        // first requester of a missing signature builds it, concurrent
        // requesters of the same signature share that build.  A waited
        // answer reports `miss` — the plan was not resident when asked.
        const Served served = serve(cmd.plan.verb, cmd.plan.root,
                                    cmd.plan.size);
        return {.text = plan_reply_text(cmd.plan,
                                        served.plan->signature.size_bucket,
                                        *served.plan, served.hit),
                .hit = served.hit};
      }
    }
    return {};  // unreachable; switch covers every kind
  } catch (const InvalidInput& e) {
    return {.text = std::string("error: ") + e.what()};
  }
}

// ------------------------------------------------------------------ replay

std::vector<ReplayRequest> parse_request_log(std::istream& in) {
  std::vector<ReplayRequest> out;
  std::size_t lineno = 0;
  for (std::string line; std::getline(in, line);) {
    ++lineno;
    try {
      const LineCommand cmd = parse_command(line);
      if (cmd.kind == LineCommand::Kind::kPlan)
        out.push_back(cmd.plan);
      else if (cmd.kind != LineCommand::Kind::kNone)
        throw InvalidInput("expected 'plan <verb> <root> <size>'");
    } catch (const InvalidInput& e) {
      throw InvalidInput("request log line " + std::to_string(lineno) + ": " +
                         e.what());
    }
  }
  return out;
}

namespace {

io::BenchSeries value_cell(std::string name, double value) {
  io::BenchSeries s;
  s.name = std::move(name);
  s.makespan_s = {value};
  return s;
}

/// Nearest-rank percentile over a sorted sample (q in (0, 1]).
double percentile(const std::vector<double>& sorted, double q) {
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[(k == 0 ? 1 : k) - 1];
}

/// Builds each of a batch's `pending` signatures across the pool, in
/// order.  Builds are independent and deterministic, so the worker count
/// cannot change any result.
std::vector<PlanPtr> build_pending(PlanService& service,
                                   const std::vector<PlanSignature>& pending,
                                   ThreadPool& pool) {
  std::vector<PlanPtr> built(pending.size());
  pool.parallel_for(pending.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t j = b; j < e; ++j)
      built[j] = service.build_plan(pending[j]);
  });
  return built;
}

}  // namespace

io::BenchReport replay_requests(PlanService& service,
                                const std::vector<ReplayRequest>& requests,
                                ThreadPool& pool, const ReplayOptions& opts) {
  if (requests.empty()) throw InvalidInput("serve replay: empty request log");
  const std::size_t batch = opts.batch == 0 ? 1 : opts.batch;
  const std::size_t sessions = opts.sessions == 0 ? 1 : opts.sessions;

  using clock = std::chrono::steady_clock;
  const auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };

  // ---- Deterministic pass: the report's exact series are *defined* as
  // serial one-request-at-a-time semantics from a cold cache.  They are
  // computed against a private model cache configured like the live one
  // (same capacity), so they are a pure function of
  // (service configuration, log): the worker count, the session count
  // and however warm the live cache already is (e.g. after --warm) can
  // never change a byte of them.
  SchedulePlanCache model(service.plans().capacity());
  // Every distinct signature is built once per replay, in parallel across
  // the pool; the serial accounting below replays inserts (and, under
  // eviction, re-inserts) from here.
  std::map<PlanSignature, PlanPtr> built_by_sig;
  std::uint64_t hits = 0;
  std::uint64_t plans_built = 0;
  std::uint64_t build_waits = 0;
  double predicted_sum = 0.0;
  std::vector<double> latency;
  const bool serial_timing = opts.timing && sessions <= 1;
  if (serial_timing) latency.reserve(requests.size());
  const auto t_start = clock::now();

  for (std::size_t lo = 0; lo < requests.size(); lo += batch) {
    const std::size_t hi = std::min(lo + batch, requests.size());
    const std::size_t n = hi - lo;

    // Phase 1 (serial): signatures, plus this batch's build list — each
    // distinct signature not built earlier in the replay.  A repeat of a
    // just-scheduled signature inside the batch is the deterministic
    // `build_waits` model: had the batch run concurrently, that request
    // would have waited on the first requester's build latch.
    std::vector<PlanSignature> sig;
    sig.reserve(n);
    std::vector<PlanSignature> pending;
    std::set<PlanSignature> scheduled;
    for (std::size_t i = 0; i < n; ++i) {
      const ReplayRequest& rq = requests[lo + i];
      sig.push_back(service.signature_for(rq.verb, rq.root, rq.size));
      if (!built_by_sig.contains(sig[i])) {
        if (scheduled.insert(sig[i]).second)
          pending.push_back(sig[i]);
        else
          ++build_waits;
      }
    }

    // Phase 2 (parallel): build the batch's new signatures across the
    // pool.
    const auto t_build = clock::now();
    std::vector<PlanPtr> built = build_pending(service, pending, pool);
    for (std::size_t j = 0; j < pending.size(); ++j)
      built_by_sig[pending[j]] = std::move(built[j]);
    const double build_s = serial_timing ? seconds_since(t_build) : 0.0;

    // Phase 3 (serial): replay the batch one request at a time against
    // the model cache — find, and on a miss insert the prebuilt plan —
    // so hit/miss and eviction accounting are exactly the serial cold
    // daemon's.  A request's latency includes the batch build it waited
    // on when it missed.
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = clock::now();
      PlanPtr p = model.find(sig[i]);
      const bool missed = p == nullptr;
      if (missed) {
        ++plans_built;
        p = model.insert(built_by_sig[sig[i]]);
      } else {
        ++hits;
      }
      predicted_sum += p->predicted_makespan;
      if (serial_timing)
        latency.push_back(seconds_since(t0) + (missed ? build_s : 0.0));
    }
  }
  double wall_s = seconds_since(t_start);

  // ---- Concurrent pass: with `sessions > 1`, drive the same log
  // through the live request path — contiguous shards, one session
  // thread each, all hammering the latched caches at once.  It
  // contributes nothing to the exact series (defined above) and, when
  // timing is on, everything to the timing tail.
  if (sessions > 1) {
    std::vector<double> session_lat(opts.timing ? requests.size() : 0);
    std::vector<std::string> session_error(sessions);
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    const auto t_sessions = clock::now();
    for (std::size_t s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        try {
          const std::size_t b = requests.size() * s / sessions;
          const std::size_t e = requests.size() * (s + 1) / sessions;
          for (std::size_t i = b; i < e; ++i) {
            const auto t0 = clock::now();
            const ReplayRequest& rq = requests[i];
            (void)service.serve(rq.verb, rq.root, rq.size);
            if (opts.timing) session_lat[i] = seconds_since(t0);
          }
        } catch (const std::exception& ex) {
          session_error[s] =
              "serve replay session " + std::to_string(s) + ": " + ex.what();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& err : session_error)
      if (!err.empty()) throw InvalidInput(err);
    if (opts.timing) {
      latency = std::move(session_lat);
      wall_s = seconds_since(t_sessions);
    }
  }

  const auto total = static_cast<std::uint64_t>(requests.size());

  io::BenchReport r;
  r.bench = "serve";
  r.grid = service.grid_name();
  r.mode = "predicted";
  r.sizes = {total};
  const auto count = static_cast<double>(total);
  r.series.push_back(
      value_cell("hit_rate", static_cast<double>(hits) / count));
  r.series.push_back(value_cell("hits", static_cast<double>(hits)));
  r.series.push_back(
      value_cell("misses", static_cast<double>(total - hits)));
  r.series.push_back(
      value_cell("plans_built", static_cast<double>(plans_built)));
  r.series.push_back(
      value_cell("build_waits", static_cast<double>(build_waits)));
  r.series.push_back(
      value_cell("evictions", static_cast<double>(model.evictions())));
  r.series.push_back(value_cell("predicted_sum_s", predicted_sum));
  if (opts.timing) {
    // The host-dependent tail: a lower-bounded requests/sec gate and
    // upper-bounded latency gates (wall_factor), exactly the directions
    // compare_bench already applies to throughput and wall_time_s.
    io::BenchSeries rps;
    rps.name = "requests_per_s";
    rps.throughput = {count / wall_s};
    r.series.push_back(std::move(rps));
    std::vector<double> sorted = latency;
    std::sort(sorted.begin(), sorted.end());
    const auto latency_cell = [&](std::string name, double q) {
      io::BenchSeries s;
      s.name = std::move(name);
      // The value channel is deliberately null: latency is a wall cost,
      // gated through wall_time_s; a null cell is skipped by the
      // baseline compare.
      s.makespan_s = {std::numeric_limits<double>::quiet_NaN()};
      s.wall_time_s = percentile(sorted, q);
      return s;
    };
    r.series.push_back(latency_cell("latency_p50_s", 0.50));
    r.series.push_back(latency_cell("latency_p99_s", 0.99));
  }
  return r;
}

std::size_t warm_requests(PlanService& service,
                          const std::vector<ReplayRequest>& requests,
                          ThreadPool& pool, std::size_t batch) {
  if (batch == 0) batch = 1;
  std::size_t total_built = 0;
  for (std::size_t lo = 0; lo < requests.size(); lo += batch) {
    const std::size_t hi = std::min(lo + batch, requests.size());

    // Distinct signatures of this batch not already resident.
    std::vector<PlanSignature> pending;
    std::set<PlanSignature> scheduled;
    for (std::size_t i = lo; i < hi; ++i) {
      const ReplayRequest& rq = requests[i];
      const PlanSignature sig =
          service.signature_for(rq.verb, rq.root, rq.size);
      if (!scheduled.contains(sig) && service.plans().find(sig) == nullptr) {
        scheduled.insert(sig);
        pending.push_back(sig);
      }
    }

    // Serial inserts in request order: a deterministic LRU and eviction
    // history whatever ran where, exactly like replay's.
    for (auto& p : build_pending(service, pending, pool))
      (void)service.plans().insert(std::move(p));
    total_built += pending.size();
  }
  return total_built;
}

}  // namespace gridcast::serve
