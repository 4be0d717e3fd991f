// perfbench_driver: the in-process half of the gridcast benchmark
// (perfbench/run.py is the other half and the only entry point).
//
//   perfbench_driver version
//       the compiler and build type this binary (and the library) used
//   perfbench_driver gen --workload=W --seed=N --dir=D [--log=FILE]
//       write workload W's inputs for seed N into D (byte-deterministic);
//       serve_batch draws its requests from the request log FILE
//   perfbench_driver race --dir=D --seconds=S --trace=0|1 [--min-items=N]
//   perfbench_driver sim  --dir=D --seconds=S --trace=0|1 [--min-items=N]
//       set up, run one untimed warm-up item, print "ready", the CPU
//       seconds set-up took and a reference kernel time, measure for S
//       seconds, print one JSON object as the last line; --setup-only
//       exits right after "ready"
//   perfbench_driver reference
//       print the median of five reference kernel times, in seconds
//   perfbench_driver serve-replay --dir=D --sent=FILE
//       replay the batches a wire run sent, in-process, traced and untraced
//
// Every call into gridcast goes through its public headers, as a user's
// program would make it.  Traced runs wrap those calls in spans
// (trace.hpp); untraced runs time whole items only.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "collective/alltoall.hpp"
#include "collective/backend.hpp"
#include "exp/instance_cache.hpp"
#include "exp/param_ranges.hpp"
#include "exp/race_cli.hpp"
#include "exp/sweep.hpp"
#include "io/grid_io.hpp"
#include "sched/auto_scheduler.hpp"
#include "sched/evaluate.hpp"
#include "sched/registry.hpp"
#include "serve/plan_signature.hpp"
#include "serve/server.hpp"
#include "sim/network.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "topology/generator.hpp"
#include "topology/grid5000.hpp"
#include "trace.hpp"

namespace {

using namespace gridcast;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::Tracer;

// ------------------------------------------------------------ plumbing

struct Args {
  std::string command;
  std::map<std::string, std::string> values;

  [[nodiscard]] bool has(const std::string& key) const {
    return values.contains(key);
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw InvalidInput("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t fallback) const {
    if (!has(key)) return fallback;
    const std::string v = str(key);
    std::uint64_t out = 0;
    const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || p != v.data() + v.size())
      throw InvalidInput("--" + key + " must be a non-negative integer");
    return out;
  }
  [[nodiscard]] double seconds() const {
    const double s = std::stod(str("seconds"));
    if (!(s > 0.0)) throw InvalidInput("--seconds must be positive");
    return s;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw InvalidInput("usage: perfbench_driver <command> --key=value...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw InvalidInput("unexpected argument '" + arg + "'");
    const std::size_t eq = arg.find('=');
    a.values[arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2)] =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
  }
  return a;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, p);
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += num(values[i]);
  }
  return out + "]";
}

/// A JSON object written field by field.
class Json {
 public:
  Json& raw(std::string_view key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + value;
    return *this;
  }
  Json& number(std::string_view key, double v) { return raw(key, num(v)); }
  Json& text(std::string_view key, std::string_view v) { return raw(key, quote(v)); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// This process image's peak RSS (VmHWM).  Not getrusage's ru_maxrss,
/// which carries the high-water mark of the process that exec'ed us.
long peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  throw InvalidInput("/proc/self/status has no VmHWM");
}

std::vector<std::uint64_t> read_seeds(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInput("cannot open '" + path + "'");
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; in >> s;) seeds.push_back(s);
  if (seeds.size() < 2) throw InvalidInput("'" + path + "' holds too few seeds");
  return seeds;
}

/// Seed of timed item k; seeds[0] is the warm-up item's.
std::uint64_t item_seed(const std::vector<std::uint64_t>& seeds, std::uint64_t k) {
  return seeds[1 + k % (seeds.size() - 1)];
}

/// Per-item samples of one measured phase: each item's wall and thread CPU
/// seconds, and the reference kernel's CPU seconds timed just before it.
/// `check` failures are counted, and the first few reasons kept for stderr.
struct Samples {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> ref_cpu_s;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void fail(std::string reason) {
    ++failed;
    if (reasons.size() < 5) reasons.push_back(std::move(reason));
  }
};

/// A fixed CPU-bound kernel that uses no gridcast code: sorting a copy of
/// 4096 seeded doubles.  Timed beside every item, it tracks how fast the
/// host runs this process's code at that moment, so that run.py can take
/// host speed swings out of the item times.
class Reference {
 public:
  Reference() : keys_(4096) {
    std::mt19937_64 rng(0x7265666572656e63);  // "referenc"
    std::uniform_real_distribution<double> u(0.0, 1.0);
    for (double& k : keys_) k = u(rng);
  }

  /// Thread CPU seconds of one sort, after an untimed one that brings the
  /// keys back into cache, whatever the item before it left there.
  double time() {
    sort();
    const double c0 = thread_cpu_seconds();
    sort();
    return thread_cpu_seconds() - c0;
  }

 private:
  void sort() {
    scratch_ = keys_;
    std::sort(scratch_.begin(), scratch_.end());
    sink_ = sink_ + scratch_[scratch_.size() / 2];
  }

  std::vector<double> keys_, scratch_;
  volatile double sink_ = 0.0;
};

/// The median of five reference kernel times.
double reference_median() {
  Reference reference;
  std::vector<double> refs;
  for (int i = 0; i < 5; ++i) refs.push_back(reference.time());
  std::nth_element(refs.begin(), refs.begin() + 2, refs.end());
  return refs[2];
}

/// Ends set-up: prints "ready", the CPU seconds the process has used, and
/// the reference kernel's time right after.
void announce_ready() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  const double setup = static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  std::cout << "ready " << num(setup) << " " << num(reference_median()) << std::endl;
}

/// Moves the calling thread round the CPUs it may run on, one at a time,
/// and restores its affinity at scope exit.  On a shared host each virtual
/// CPU can run ~30% slower for seconds at a time, and the slow spells of
/// different CPUs overlap only partly; visiting every CPU several times a
/// second keeps one slow CPU from setting a whole run's numbers.
class CpuRotation {
 public:
  CpuRotation() {
    if (::sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) (void)::sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)::sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

constexpr double kRotateSeconds = 0.25;

/// Run `item(k)` (returning an empty string or a failure reason) until
/// `seconds` have passed, at least `min_items` items ran and the item count
/// is a multiple of `whole` — so every run weighs each of a cycle's items
/// equally.  Between items, outside their timing, the thread changes CPU
/// and then times the reference kernel on the CPU the item will run on.
template <class Item>
Samples measure(double seconds, std::uint64_t min_items, std::uint64_t whole,
                Item&& item) {
  Samples out;
  CpuRotation cpus;
  Reference reference;
  const auto t0 = Clock::now();
  auto moved = t0 - std::chrono::hours(1);
  for (std::uint64_t k = 0;; ++k) {
    if (k >= min_items && k % whole == 0 && seconds_since(t0) >= seconds) break;
    if (seconds_since(moved) >= kRotateSeconds) {
      cpus.next();
      moved = Clock::now();
    }
    out.ref_cpu_s.push_back(reference.time());
    const auto w0 = Clock::now();
    const double c0 = thread_cpu_seconds();
    std::string reason = item(k);
    out.cpu_s.push_back(thread_cpu_seconds() - c0);
    out.wall_s.push_back(seconds_since(w0));
    if (!reason.empty()) out.fail(std::move(reason));
  }
  return out;
}

/// A traced run's two kinds of item: the untraced public call and its
/// traced replay.
struct Halves {
  Samples untraced;
  Samples traced;  ///< also holds every failure of both kinds
};

/// `measure` alternating `public_item(k)` and `replay_item(k)` on each k,
/// so both kinds see the same host and the difference between them is the
/// tracing overhead.  `whole` is as for `measure`, in items of one kind.
template <class Public, class Replay>
Halves measure_pairs(double seconds, std::uint64_t whole, Public&& public_item,
                     Replay&& replay_item) {
  Samples all = measure(seconds, 2, 2 * whole, [&](std::uint64_t k) {
    return k % 2 == 0 ? public_item(k / 2) : replay_item(k / 2);
  });
  Halves h;
  for (std::size_t i = 0; i < all.wall_s.size(); ++i) {
    Samples& half = i % 2 == 0 ? h.untraced : h.traced;
    half.wall_s.push_back(all.wall_s[i]);
    half.cpu_s.push_back(all.cpu_s[i]);
    half.ref_cpu_s.push_back(all.ref_cpu_s[i]);
  }
  h.traced.failed = all.failed;
  h.traced.reasons = std::move(all.reasons);
  return h;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// The last stdout line of a measuring command.  `attempted` counts every
/// checked item: the warm-up and, in a traced run, both kinds of item.
/// Peak RSS is read first, so that the per-item arrays written out — which
/// grow with the items a run completes — stay out of it.
void print_result(const Samples& s, std::size_t attempted, Json extra = {}) {
  const long rss_kb = peak_rss_kb();
  for (const auto& r : s.reasons) std::cerr << "perfbench_driver: failed: " << r << "\n";
  extra.number("attempted", static_cast<double>(attempted))
      .number("items", static_cast<double>(s.wall_s.size()))
      .number("failed", static_cast<double>(s.failed))
      .number("wall_s", sum(s.wall_s))
      .raw("item_cpu_s", array(s.cpu_s))
      .raw("ref_cpu_s", array(s.ref_cpu_s))
      .number("peak_rss_kb", static_cast<double>(rss_kb));
  std::cout << extra.str() << std::endl;
}

void write_trace(const Tracer& tracer, const Args& args) {
  if (!args.has("trace-out")) return;
  std::ofstream out(args.str("trace-out"));
  tracer.write_chrome_json(out);
}

// ------------------------------------------------------------ inputs

constexpr std::uint64_t kRaceDomain = 0x72616365;   // "race"
constexpr std::uint64_t kSimDomain = 0x73696d;      // "sim"
constexpr std::uint64_t kGridDomain = 0x67726964;   // "grid"
constexpr std::uint64_t kServeDomain = 0x73727665;  // "srve"
constexpr std::size_t kSeedCount = 8192;
constexpr std::size_t kStreamLength = 4096;

void write_seeds(const std::string& path, std::uint64_t seed, std::uint64_t domain) {
  Rng rng = Rng::stream(seed, domain);
  std::ofstream out(path);
  for (std::size_t i = 0; i <= kSeedCount; ++i) out << rng.next() << "\n";
}

/// The all-to-all grid: 16 clusters on 4 sites, so a cell is ~90%
/// message-level execution and ~10% scheduling.  random_grid draws the
/// links and intra-cluster parameters; the cluster sizes are a seeded
/// permutation of 16, 18, ..., 46 ranks, because an all-to-all's work grows
/// with the sum of squared sizes and must not change from seed to seed.
void write_sim_grid(const std::string& path, std::uint64_t seed) {
  topology::GeneratorConfig cfg;
  cfg.clusters = 16;
  cfg.sites = 4;
  Rng rng = Rng::stream(seed, kGridDomain);
  const topology::Grid drawn = topology::random_grid(cfg, rng);
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t c = 0; c < cfg.clusters; ++c) sizes.push_back(16 + 2 * c);
  rng.shuffle(sizes);
  std::vector<topology::Cluster> clusters;
  for (ClusterId c = 0; c < cfg.clusters; ++c) {
    const topology::Cluster& d = drawn.cluster(c);
    clusters.emplace_back(d.name(), sizes[c], d.intra(), d.algorithm());
  }
  topology::Grid grid(std::move(clusters));
  for (ClusterId i = 0; i < cfg.clusters; ++i)
    for (ClusterId j = 0; j < cfg.clusters; ++j)
      if (i != j) grid.set_link(i, j, drawn.link(i, j));
  grid.validate();
  std::ofstream out(path);
  io::write_grid(out, grid);
}

std::vector<serve::ReplayRequest> read_requests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInput("cannot open '" + path + "'");
  return serve::parse_request_log(in);
}

/// A reply without its trailing cache status (" hit" / " miss").
std::string_view reply_body(std::string_view reply) {
  const std::size_t sp = reply.rfind(' ');
  return sp == std::string_view::npos ? reply : reply.substr(0, sp);
}

/// The serve_batch inputs.  The stream draws its requests, with
/// replacement, from `log`, the request log that the repository's CI
/// serve lane replays (240 requests over 45 signatures of bcast, scatter
/// and alltoall at 64 KiB - 8 MiB, skewed by construction), so its mix is
/// the repository's reference traffic rather than a new guess.
///
/// The daemon's plan-cache bound (capacity.txt) is a share of the stream's
/// working set, the bytes of all its distinct plans.  The share is set so
/// that a serial replay of the stream hits 0.81 of requests, the hit rate
/// the CI lane measures on the log itself (BENCH_baseline_serve.json), so
/// misses, builds and evictions come at the log's rate; the warmed daemon
/// hits 0.81-0.83 with two connections.  The warm log names the stream's
/// most popular signatures, as many as fit in the bound.  expected.txt
/// holds each request's reply from PlanService::build_plan run in-process,
/// without its hit/miss status.
void write_serve_inputs(const std::string& dir, const std::string& log, std::uint64_t seed) {
  constexpr double kCapacityShare = 0.72;
  const std::vector<serve::ReplayRequest> source = read_requests(log);
  if (source.empty()) throw InvalidInput("'" + log + "' holds no requests");
  Rng rng = Rng::stream(seed, kServeDomain);
  const topology::Grid grid = topology::grid5000_testbed();
  serve::PlanService service(grid, "grid5000_testbed");

  struct Sig {
    std::size_t requests = 0;
    std::size_t first = 0;
    std::size_t bytes = 0;
    serve::PlanPtr plan;
  };
  std::map<std::string, Sig> sigs;
  std::ofstream out(dir + "/requests.txt");
  std::ofstream expected(dir + "/expected.txt");
  for (std::size_t n = 0; n < kStreamLength; ++n) {
    const serve::ReplayRequest& rq = source[rng.below(source.size())];
    out << "plan " << collective::verb_name(rq.verb) << " " << rq.root << " " << rq.size << "\n";
    const serve::PlanPtr plan = service.plan_for(rq.verb, rq.root, rq.size);
    expected << reply_body(serve::plan_reply_text(rq, plan->signature.size_bucket, *plan, false))
             << "\n";
    const auto [it, fresh] = sigs.try_emplace(plan->signature.encode());
    if (fresh) it->second = {0, n, serve::SchedulePlanCache::plan_bytes(*plan), plan};
    ++it->second.requests;
  }

  std::vector<const Sig*> ranked;
  std::size_t working_set = 0;
  for (const auto& [key, s] : sigs) {
    ranked.push_back(&s);
    working_set += s.bytes;
  }
  std::sort(ranked.begin(), ranked.end(), [](const Sig* a, const Sig* b) {
    return a->requests != b->requests ? a->requests > b->requests : a->first < b->first;
  });
  const auto capacity =
      static_cast<std::size_t>(kCapacityShare * static_cast<double>(working_set));
  std::ofstream(dir + "/capacity.txt") << capacity << "\n";
  std::ofstream warm(dir + "/warm.txt");
  std::size_t warmed = 0;
  for (const Sig* s : ranked) {
    if (warmed + s->bytes > capacity) break;
    warmed += s->bytes;
    const serve::PlanSignature& sig = s->plan->signature;
    warm << "plan " << collective::verb_name(sig.verb) << " " << sig.root << " "
         << serve::bucket_floor(sig.size_bucket) << "\n";
  }
}

int cmd_gen(const Args& args) {
  const std::string workload = args.str("workload");
  const std::uint64_t seed = args.u64("seed", 0);
  const std::string dir = args.str("dir");
  if (workload == "race_fig2") {
    write_seeds(dir + "/race_seeds.txt", seed, kRaceDomain);
  } else if (workload == "sim_alltoall") {
    write_sim_grid(dir + "/grid.txt", seed);
    write_seeds(dir + "/sim_seeds.txt", seed, kSimDomain);
  } else if (workload == "serve_batch") {
    write_serve_inputs(dir, args.str("log"), seed);
  } else {
    throw InvalidInput("unknown workload '" + workload + "'");
  }
  return 0;
}

// ------------------------------------------------------------ race_fig2

/// The paper's seven heuristics plus `auto`, raced on the plogp backend.
std::vector<std::string> race_names() {
  std::vector<std::string> names;
  for (const auto& s : sched::paper_heuristics()) names.emplace_back(s.name());
  names.emplace_back("auto");
  return names;
}

/// auto's candidates that the race does not field itself.
const std::vector<std::string> kAutoOnly = {"ECEF-AvgEdge", "ECEF-AvgMove",
                                            "LAN-Flat", "Star-WAN"};

exp::RaceGridSpec race_spec(const std::vector<std::string>& names, std::uint64_t seed) {
  exp::RaceGridSpec spec;
  spec.sched_names = names;
  spec.cluster_counts = exp::fig2_cluster_ladder();
  spec.iterations = 1;
  spec.seed = seed;
  spec.backend = "plogp";
  return spec;
}

/// Every series mean finite and >= GlobalMin; auto hits at every point.
std::string check_race(const io::BenchReport& r) {
  const io::BenchSeries& gmin = r.series.back();
  for (std::size_t p = 0; p < r.sizes.size(); ++p) {
    const double g = gmin.makespan_s[p];
    const std::string at = " at " + std::to_string(r.sizes[p]) + " clusters";
    if (!std::isfinite(g) || g <= 0.0) return "GlobalMin is not a positive number" + at;
    for (std::size_t s = 0; s + 1 < r.series.size(); ++s) {
      const double v = r.series[s].makespan_s[p];
      if (!std::isfinite(v) || v < g)
        return r.series[s].name + " mean " + num(v) + " is below GlobalMin" + at;
      if (r.series[s].name == "auto" && r.series[s].hits[p] != 1.0)
        return "auto missed GlobalMin" + at;
    }
  }
  return {};
}

/// The race item replayed call by call, so spans can sit around each
/// layer: the same draws, orders and evaluations run_race_grid makes.
class RaceReplay {
 public:
  RaceReplay(const std::vector<std::string>& names, Tracer* tracer)
      : tracer_(tracer),
        comps_(exp::resolve_competitors(names, {})),
        ladder_(exp::fig2_cluster_ladder()),
        draws_(ladder_.size()) {
    auto_ = dynamic_cast<const sched::AutoScheduler*>(&comps_.back().entry());
    GRIDCAST_ASSERT(auto_ != nullptr, "the last race competitor must be auto");
    for (const auto& name : kAutoOnly) extra_.push_back(sched::registry().make(name));
    if (tracer_ == nullptr) return;
    item_span_ = tracer_->intern("race.item");
    sample_span_ = tracer_->intern("exp.sample");
    evaluate_span_ = tracer_->intern("sched.evaluate");
    for (const auto& c : comps_)
      order_spans_.push_back(tracer_->intern("sched.order." + std::string(c.name())));
    for (const auto& e : extra_)
      extra_spans_.push_back(tracer_->intern("sched.order." + std::string(e->name())));
  }

  /// One item: makespan[point][competitor], or a failure reason.
  std::string item(std::uint64_t seed, std::uint64_t k,
                   std::vector<std::vector<Time>>& makespan) {
    makespan.assign(ladder_.size(), std::vector<Time>(comps_.size(), 0.0));
    {
      ScopedSpan item_span(tracer_, item_span_, k);
      for (std::size_t p = 0; p < ladder_.size(); ++p) {
        const std::size_t n = ladder_[p];
        {
          ScopedSpan span(tracer_, sample_span_, k);
          Rng rng = Rng::stream(exp::race_instance_seed(seed, n), 0);
          exp::sample_instance_into(ranges_, n, rng, 0, draws_[p]);
        }
        for (std::size_t s = 0; s < comps_.size(); ++s) {
          const sched::SchedulerRuntimeInfo info(draws_[p], Bytes{0},
                                                 comps_[s].options().completion);
          if (!comps_[s].entry().can_schedule(info))
            return std::string(comps_[s].name()) + " refused a draw";
          sched::SendOrder order;
          {
            ScopedSpan span(tracer_, tracer_ ? order_spans_[s] : 0, k);
            if (s + 1 == comps_.size()) {
              sched::AutoScheduler::Proposal prop = auto_->propose(info);
              evaluated_ += prop.evaluated;
              pruned_ += prop.pruned;
              gated_ += prop.gated;
              order = std::move(prop.order);
            } else {
              order = comps_[s].order(info);
            }
          }
          ScopedSpan span(tracer_, evaluate_span_, k);
          makespan[p][s] =
              sched::evaluate_order(info.instance(), order, info.completion()).makespan;
        }
      }
    }
    // auto's other candidates, timed on the same draws outside the item.
    for (std::size_t p = 0; p < ladder_.size(); ++p) {
      for (std::size_t e = 0; e < extra_.size(); ++e) {
        const sched::SchedulerRuntimeInfo info(draws_[p], Bytes{0},
                                               extra_[e]->options().completion);
        if (!extra_[e]->can_schedule(info)) continue;
        ScopedSpan span(tracer_, tracer_ ? extra_spans_[e] : 0, k);
        (void)extra_[e]->order(info);
      }
    }
    for (std::size_t p = 0; p < ladder_.size(); ++p) {
      const Time best = *std::min_element(makespan[p].begin(), makespan[p].end());
      if (makespan[p].back() > best * (1.0 + 1e-9))
        return "replayed auto missed the minimum at " + std::to_string(ladder_[p]) +
               " clusters";
    }
    return {};
  }

  [[nodiscard]] std::size_t evaluated() const { return evaluated_; }
  [[nodiscard]] std::size_t pruned() const { return pruned_; }
  [[nodiscard]] std::size_t gated() const { return gated_; }
  [[nodiscard]] const std::vector<sched::Scheduler>& competitors() const { return comps_; }
  [[nodiscard]] std::uint32_t item_span() const { return item_span_; }

 private:
  Tracer* tracer_;
  std::vector<sched::Scheduler> comps_;
  const sched::AutoScheduler* auto_ = nullptr;
  std::vector<sched::SchedulerEntryPtr> extra_;
  std::vector<std::size_t> ladder_;
  std::vector<sched::Instance> draws_;
  exp::ParamRanges ranges_ = exp::ParamRanges::paper();
  std::uint32_t item_span_ = 0, sample_span_ = 0, evaluate_span_ = 0;
  std::vector<std::uint32_t> order_spans_, extra_spans_;
  std::size_t evaluated_ = 0, pruned_ = 0, gated_ = 0;
};

int cmd_race(const Args& args) {
  const std::vector<std::uint64_t> seeds = read_seeds(args.str("dir") + "/race_seeds.txt");
  const std::vector<std::string> names = race_names();
  ThreadPool pool(0);  // one thread: the ladder's large points never share a worker

  const io::BenchReport warm = exp::run_race_grid(race_spec(names, seeds[0]), pool);
  std::string warm_failure = check_race(warm);
  const bool traced = args.u64("trace", 0) == 1;
  Tracer tracer;
  std::optional<RaceReplay> replay;
  if (traced) {
    // The replay must reproduce the public call's numbers bit for bit.
    replay.emplace(names, &tracer);
    RaceReplay check(names, nullptr);
    std::vector<std::vector<Time>> mk;
    if (const std::string r = check.item(seeds[0], 0, mk); !r.empty() && warm_failure.empty())
      warm_failure = r;
    for (std::size_t p = 0; p < mk.size(); ++p)
      for (std::size_t s = 0; s < mk[p].size(); ++s)
        if (mk[p][s] != warm.series[s].makespan_s[p] && warm_failure.empty())
          warm_failure = "replay differs from run_race_grid";
  }
  announce_ready();
  if (args.has("setup-only")) return 0;

  const double seconds = args.seconds();
  const auto public_item = [&](std::uint64_t k) {
    return check_race(exp::run_race_grid(race_spec(names, item_seed(seeds, k)), pool));
  };
  if (!traced) {
    Samples s = measure(seconds, args.u64("min-items", 1), 1, public_item);
    if (!warm_failure.empty()) s.fail("warm-up: " + warm_failure);
    print_result(s, 1 + s.wall_s.size());
    return 0;
  }

  std::vector<std::vector<Time>> mk;
  auto [untraced, s] = measure_pairs(seconds, 1, public_item, [&](std::uint64_t k) {
    return replay->item(item_seed(seeds, k), k, mk);
  });
  if (!warm_failure.empty()) s.fail("warm-up: " + warm_failure);

  const double items = static_cast<double>(s.wall_s.size());
  const double item_total = tracer.total_seconds(replay->item_span());
  const std::map<std::string, double> self = tracer.self_seconds();
  Json layers;
  double order_total = 0.0;
  for (const auto& c : replay->competitors())
    order_total += self.at("sched.order." + std::string(c.name()));
  layers.number("sched.order.busy_s", order_total / items);
  for (const auto& [name, secs] : self)
    if (name != "race.item") layers.number(name + ".busy_s", secs / items);
  const double ev = static_cast<double>(replay->evaluated());
  const double pr = static_cast<double>(replay->pruned());
  layers.number("sched.auto.evaluated", ev / items)
      .number("sched.auto.pruned", pr / items)
      .number("sched.auto.gated", static_cast<double>(replay->gated()) / items)
      .number("sched.auto.prune_ratio", pr / (ev + pr))
      .number("trace.coverage", 1.0 - self.at("race.item") / item_total);
  write_trace(tracer, args);
  print_result(s, 1 + untraced.wall_s.size() + s.wall_s.size(),
               Json()
                   .raw("layers", layers.str())
                   .number("untraced_items_per_s",
                           static_cast<double>(untraced.wall_s.size()) / sum(untraced.wall_s))
                   .number("traced_items_per_s", items / item_total));
  return 0;
}

// ------------------------------------------------------------ sim_alltoall

/// Forwards to the simulator backend and keeps the message counts of the
/// last all-to-all, which backend_sweep's result does not carry.  The
/// sweep runs on an inline pool, so the counters have one writer.
class CountingBackend final : public collective::Backend {
 public:
  explicit CountingBackend(collective::BackendPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] std::string_view mode_label() const noexcept override {
    return inner_->mode_label();
  }
  [[nodiscard]] bool supports(collective::Verb v) const noexcept override {
    return inner_->supports(v);
  }
  [[nodiscard]] bool is_deterministic() const noexcept override {
    return inner_->is_deterministic();
  }
  [[nodiscard]] bool instance_only() const noexcept override {
    return inner_->instance_only();
  }
  [[nodiscard]] collective::CollectiveResult bcast(
      const sched::SchedulerEntry& sched, const sched::SchedulerRuntimeInfo& info,
      std::uint64_t seed) const override {
    return inner_->bcast(sched, info, seed);
  }
  [[nodiscard]] collective::CollectiveResult alltoall(const sched::SchedulerEntry& sched,
                                                      Bytes block,
                                                      std::uint64_t seed) const override {
    collective::CollectiveResult r = inner_->alltoall(sched, block, seed);
    messages_ = r.messages;
    wan_messages_ = r.wan_messages;
    return r;
  }

  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  [[nodiscard]] std::uint64_t wan_messages() const { return wan_messages_; }

 private:
  collective::BackendPtr inner_;
  mutable std::uint64_t messages_ = 0;
  mutable std::uint64_t wan_messages_ = 0;
};

/// Forwards to `inner` and remembers each root's order, so that the
/// dest-order derivation inside run_hierarchical_alltoall replays the
/// orders the dest-order span already computed for the same cell.
class OrderMemo final : public sched::SchedulerEntry {
 public:
  explicit OrderMemo(const sched::SchedulerEntry& inner)
      : SchedulerEntry(inner.options()), inner_(&inner) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] bool can_schedule(const sched::SchedulerRuntimeInfo& info) const override {
    return inner_->can_schedule(info);
  }
  [[nodiscard]] sched::SendOrder order(const sched::SchedulerRuntimeInfo& info) const override {
    const auto [slot, fresh] = memo_.try_emplace(info.instance().root());
    if (fresh) slot->second = inner_->order(info);
    return slot->second;
  }
  using SchedulerEntry::order;

  void clear() { memo_.clear(); }

 private:
  const sched::SchedulerEntry* inner_;
  mutable std::map<ClusterId, sched::SendOrder> memo_;
};

/// Messages of the coordinator-routed all-to-all on clusters of `sizes`:
/// direct intra-cluster pairs + gathers + coordinator exchanges +
/// deliveries.  Independent of the scheduler and the block size.
std::uint64_t alltoall_messages(const std::vector<std::uint64_t>& sizes) {
  const std::uint64_t c = sizes.size();
  std::uint64_t n = 0, pairs = 0;
  for (const std::uint64_t s : sizes) {
    n += s;
    pairs += s * (s - 1);
  }
  return pairs + (n - c) + c * (c - 1) + (c - 1) * (n - c);
}

int cmd_sim(const Args& args) {
  const std::string dir = args.str("dir");
  std::ifstream grid_in(dir + "/grid.txt");
  if (!grid_in) throw InvalidInput("cannot open '" + dir + "/grid.txt'");
  const topology::Grid grid = io::read_grid(grid_in);
  const std::vector<std::uint64_t> seeds = read_seeds(dir + "/sim_seeds.txt");
  exp::InstanceCache cache(grid);
  collective::BackendOptions bopts;
  bopts.grid = &grid;
  bopts.jitter = {0.05};  // gridcast_race's default
  const CountingBackend backend(collective::backend_registry().make("sim", bopts));
  ThreadPool pool(0);

  std::vector<std::uint64_t> sizes;
  for (ClusterId c = 0; c < grid.cluster_count(); ++c) sizes.push_back(grid.cluster(c).size());
  const std::uint64_t want_messages = alltoall_messages(sizes);
  const std::uint64_t want_wan = sizes.size() * (sizes.size() - 1);

  // The sweep's own gate picks the raced competitors: a shard that owns no
  // cell runs the gate and the instance derivations, and no cell.
  const std::vector<sched::Scheduler> all =
      exp::resolve_competitors(sched::registry().names(), {});
  const std::vector<Bytes> ladder = exp::default_size_ladder();
  const std::size_t no_cell = ladder.size() * all.size();
  const exp::SweepResult gate =
      exp::backend_sweep(backend, cache, 0, all, ladder, 0, pool,
                         exp::ShardSpec{no_cell + 1, no_cell}, collective::Verb::kAlltoall);
  std::vector<std::vector<sched::Scheduler>> raced;
  for (const auto& c : all)
    if (std::find(gate.skipped.begin(), gate.skipped.end(), c.name()) == gate.skipped.end())
      raced.push_back({c});
  const std::uint64_t cells = ladder.size() * raced.size();

  // Cell k: size k / |raced|, competitor k % |raced|.
  double last_completion = 0.0;
  const auto public_cell = [&](std::uint64_t k, std::uint64_t seed) -> std::string {
    const auto& comp = raced[k % raced.size()];
    const Bytes m = ladder[(k / raced.size()) % ladder.size()];
    const exp::SweepResult r = exp::backend_sweep(backend, cache, 0, comp, {&m, 1}, seed,
                                                  pool, {}, collective::Verb::kAlltoall);
    last_completion = r.series.at(0).completion.at(0);
    const std::string at = " (" + std::string(comp[0].name()) + ", " + std::to_string(m) + " B)";
    if (!std::isfinite(last_completion) || last_completion <= 0.0)
      return "completion is not a positive number" + at;
    if (backend.messages() != want_messages || backend.wan_messages() != want_wan)
      return "sent " + std::to_string(backend.messages()) + " messages (" +
             std::to_string(backend.wan_messages()) + " WAN), closed form " +
             std::to_string(want_messages) + " (" + std::to_string(want_wan) + ")" + at;
    return {};
  };

  std::string warm_failure = public_cell(0, seeds[0]);
  const bool traced = args.u64("trace", 0) == 1;
  Tracer tracer;
  const std::uint32_t item_span = tracer.intern("sim.item");
  const std::uint32_t dest_span = tracer.intern("collective.dest_order");
  const std::uint32_t exec_span = tracer.intern("sim.execute");
  std::vector<std::unique_ptr<OrderMemo>> memos;
  for (const auto& c : raced) memos.push_back(std::make_unique<OrderMemo>(c[0].entry()));
  std::uint64_t events = 0, messages = 0, wan = 0;
  const auto replay_cell = [&](std::uint64_t k, std::uint64_t seed, Tracer* tr,
                               double* completion) -> std::string {
    OrderMemo& memo = *memos[k % raced.size()];
    const Bytes m = ladder[(k / raced.size()) % ladder.size()];
    memo.clear();
    ScopedSpan item(tr, item_span, k);
    {
      ScopedSpan span(tr, dest_span, k);
      (void)collective::alltoall_dest_order(grid, m, memo);
    }
    ScopedSpan span(tr, exec_span, k);
    sim::Network net(grid, bopts.jitter, exp::measured_cell_seed(seed, 0, memo.name()));
    const collective::AlltoallResult r = collective::run_hierarchical_alltoall(net, m, memo);
    events += net.engine().processed();
    messages += r.messages;
    wan += r.wan_messages;
    *completion = r.completion;
    if (r.messages != want_messages || r.wan_messages != want_wan)
      return "replayed cell sent " + std::to_string(r.messages) + " messages";
    return {};
  };
  if (traced) {
    double replayed = 0.0;
    if (const std::string r = replay_cell(0, seeds[0], nullptr, &replayed);
        !r.empty() && warm_failure.empty())
      warm_failure = r;
    if (replayed != last_completion && warm_failure.empty())
      warm_failure = "replay differs from backend_sweep";
    events = messages = wan = 0;
  }
  // Set-up derives every (root, size) instance of the ladder; the timed
  // cells then look them up.
  const std::uint64_t setup_misses = cache.misses();
  const std::uint64_t setup_hits = cache.hits();
  announce_ready();
  if (args.has("setup-only")) return 0;

  const double seconds = args.seconds();
  const auto public_item = [&](std::uint64_t k) { return public_cell(k, item_seed(seeds, k)); };
  if (!traced) {
    Samples s = measure(seconds, args.u64("min-items", 1), cells, public_item);
    if (!warm_failure.empty()) s.fail("warm-up: " + warm_failure);
    print_result(s, 1 + s.wall_s.size());
    return 0;
  }

  double completion = 0.0;
  auto [untraced, s] = measure_pairs(seconds, cells, public_item, [&](std::uint64_t k) {
    return replay_cell(k, item_seed(seeds, k), &tracer, &completion);
  });
  if (!warm_failure.empty()) s.fail("warm-up: " + warm_failure);

  const double items = static_cast<double>(s.wall_s.size());
  const double item_total = tracer.total_seconds(item_span);
  const std::map<std::string, double> self = tracer.self_seconds();
  const double exec = self.at("sim.execute");
  Json layers;
  layers.number("collective.dest_order.busy_s", self.at("collective.dest_order") / items)
      .number("sim.execute.busy_s", exec / items)
      .number("sim.events", static_cast<double>(events) / items)
      .number("sim.messages", static_cast<double>(messages) / items)
      .number("sim.wan_messages", static_cast<double>(wan) / items)
      .number("sim.events_per_s", static_cast<double>(events) / exec)
      .number("exp.instance_cache.hits",
              static_cast<double>(cache.hits() - setup_hits) /
                  static_cast<double>(untraced.wall_s.size()))
      .number("exp.instance_cache.misses", static_cast<double>(setup_misses))
      .number("trace.coverage", 1.0 - self.at("sim.item") / item_total);
  write_trace(tracer, args);
  print_result(s, 1 + untraced.wall_s.size() + s.wall_s.size(),
               Json()
                   .raw("layers", layers.str())
                   .number("untraced_items_per_s",
                           static_cast<double>(untraced.wall_s.size()) / sum(untraced.wall_s))
                   .number("traced_items_per_s", items / item_total));
  return 0;
}

// ------------------------------------------------------------ serve_batch

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInput("cannot open '" + path + "'");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

int cmd_serve_replay(const Args& args) {
  const std::string dir = args.str("dir");
  const std::vector<std::string> lines = read_lines(dir + "/requests.txt");
  const std::vector<std::string> expected = read_lines(dir + "/expected.txt");
  const std::vector<serve::ReplayRequest> warm = read_requests(dir + "/warm.txt");
  std::vector<std::vector<std::size_t>> batches;
  for (const std::string& line : read_lines(args.str("sent"))) {
    std::istringstream in(line);
    batches.emplace_back();
    for (std::size_t i = 0; in >> i;) {
      if (i >= lines.size()) throw InvalidInput("sent log names request " + std::to_string(i));
      batches.back().push_back(i);
    }
  }
  const topology::Grid grid = topology::grid5000_testbed();
  std::ifstream capacity(dir + "/capacity.txt");
  serve::ServeOptions opts;
  if (!(capacity >> opts.plan_capacity)) throw InvalidInput("no capacity in '" + dir + "'");

  Tracer tracer;
  const std::uint32_t request_span = tracer.intern("serve.request");
  const std::uint32_t parse_span = tracer.intern("serve.parse");
  const std::uint32_t signature_span = tracer.intern("serve.signature");
  const std::uint32_t lookup_span = tracer.intern("serve.lookup");
  const std::uint32_t reply_span = tracer.intern("serve.reply");
  const std::map<collective::Verb, std::uint32_t> build_span = {
      {collective::Verb::kBcast, tracer.intern("serve.build.bcast")},
      {collective::Verb::kScatter, tracer.intern("serve.build.scatter")},
      {collective::Verb::kAlltoall, tracer.intern("serve.build.alltoall")}};

  // The daemon's session path, call for call: parse, signature, residency
  // peek; on a miss the worker's PlanService::serve (signature again, then
  // the latched cache get that builds); reply text.  Every replay serves
  // the same requests from the same state, so only the first is checked.
  Samples result;
  std::uint64_t build_calls = 0;
  std::vector<double> batch_busy(batches.size(), 0.0);
  const auto replay = [&](Tracer* tr, bool check) {
    serve::PlanService service(grid, "grid5000_testbed", opts);
    ThreadPool pool(0);
    (void)serve::warm_requests(service, warm, pool);
    const auto t0 = Clock::now();
    std::uint64_t id = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const auto b0 = Clock::now();
      for (const std::size_t i : batches[b]) {
        const std::uint64_t rid = id++;
        ScopedSpan item(tr, request_span, rid);
        serve::LineCommand cmd;
        {
          ScopedSpan span(tr, parse_span, rid);
          cmd = serve::parse_command(lines[i]);
        }
        const serve::ReplayRequest& rq = cmd.plan;
        serve::PlanSignature sig;
        {
          ScopedSpan span(tr, signature_span, rid);
          sig = service.signature_for(rq.verb, rq.root, rq.size);
        }
        serve::PlanPtr plan;
        {
          ScopedSpan span(tr, lookup_span, rid);
          plan = service.plans().peek(sig);
        }
        const bool hit = plan != nullptr;
        if (!hit) {
          {
            ScopedSpan span(tr, signature_span, rid);
            sig = service.signature_for(rq.verb, rq.root, rq.size);
          }
          ScopedSpan span(tr, lookup_span, rid);
          plan = service.plans().get(sig, [&](const serve::PlanSignature& s) {
            ScopedSpan build(tr, build_span.at(s.verb), rid);
            if (tr != nullptr) ++build_calls;
            return service.build_plan(s);
          });
        }
        std::string text;
        {
          ScopedSpan span(tr, reply_span, rid);
          text = serve::plan_reply_text(rq, plan->signature.size_bucket, *plan, hit);
        }
        if (check && text != expected[i] + (hit ? " hit" : " miss"))
          result.fail("in-process reply '" + text + "' != expected '" + expected[i] + "'");
      }
      if (tr == nullptr) batch_busy[b] += seconds_since(b0);
    }
    return seconds_since(t0);
  };

  // One warm-up replay, then untraced and traced replays in turn; each
  // starts from a freshly warmed service, like the daemon.  A replay is a
  // fraction of a second, so the overhead compares the fastest of each kind.
  constexpr int kRounds = 15;
  (void)replay(nullptr, true);
  std::fill(batch_busy.begin(), batch_busy.end(), 0.0);
  double untraced_s = std::numeric_limits<double>::infinity();
  double traced_s = untraced_s;
  for (int r = 0; r < kRounds; ++r) {
    untraced_s = std::min(untraced_s, replay(nullptr, false));
    traced_s = std::min(traced_s, replay(&tracer, false));
  }
  for (double& b : batch_busy) b /= kRounds;

  std::size_t per_replay = 0;
  for (const auto& batch : batches) per_replay += batch.size();
  const double requests = static_cast<double>(per_replay) * kRounds;
  const std::map<std::string, double> self = tracer.self_seconds();
  Json layers;
  for (const auto& [name, secs] : self)
    if (name != "serve.request") layers.number(name + ".busy_s", secs / requests);
  layers.number("serve.build.calls", static_cast<double>(build_calls) / kRounds);
  write_trace(tracer, args);
  for (const auto& r : result.reasons) std::cerr << "perfbench_driver: failed: " << r << "\n";
  std::cout << Json()
                   .number("requests", static_cast<double>(per_replay))
                   .number("failed", static_cast<double>(result.failed))
                   .raw("layers", layers.str())
                   .raw("batch_busy_s", array(batch_busy))
                   .number("untraced_items_per_s", static_cast<double>(per_replay) / untraced_s)
                   .number("traced_items_per_s", static_cast<double>(per_replay) / traced_s)
                   .str()
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "version") {
#if defined(__clang__)
      constexpr std::string_view compiler = "clang " __clang_version__;
#else
      constexpr std::string_view compiler = "gcc " __VERSION__;
#endif
      std::cout << Json()
                       .text("compiler", compiler)
                       .text("build_type", PERFBENCH_BUILD_TYPE)
                       .str()
                << std::endl;
      return 0;
    }
    if (args.command == "reference") {
      std::cout << num(reference_median()) << std::endl;
      return 0;
    }
    if (args.command == "gen") return cmd_gen(args);
    if (args.command == "race") return cmd_race(args);
    if (args.command == "sim") return cmd_sim(args);
    if (args.command == "serve-replay") return cmd_serve_replay(args);
    throw InvalidInput("unknown command '" + args.command + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
