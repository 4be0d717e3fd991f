#include "exp/race_cli.hpp"

#include <cctype>
#include <fstream>
#include <ostream>
#include <sstream>

#include "collective/backend.hpp"
#include "io/grid_io.hpp"
#include "sim/network.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/parse.hpp"
#include "topology/grid5000.hpp"

namespace gridcast::exp {

namespace {

/// A --check tolerance.  A negative value (or a zero factor) would switch
/// its gate off, so it must be >= 0 (`zero_ok`, the relative drift bound)
/// or > 0 (the slack factors); the reader already refuses inf and nan.
double parse_tolerance(const std::string& token, const char* what,
                       bool zero_ok) {
  const double v = parse_decimal(token, what);
  if (v < 0.0 || (v == 0.0 && !zero_ok))
    throw InvalidInput(std::string(what) + " must be " +
                       (zero_ok ? ">= 0" : "> 0") + ", got '" + token + "'");
  return v;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out(1);
  for (const char c : s) {
    if (c == ',')
      out.emplace_back();
    else
      out.back().push_back(c);
  }
  return out;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// What the rows write: the invocation, and the N of a `--shard=k/N`
/// (0 = the plain `--shard=k` form), checked against `--shards` last.
struct RaceArgs : RaceCli { std::size_t pair_shards = 0; };

using Action = RaceCli::Action;

constexpr flags::Modes in(Action a) { return 1U << static_cast<unsigned>(a); }
constexpr flags::Modes kSweep = in(Action::kRun), kRace = in(Action::kRace),
                       kRuns = kSweep | kRace, kCheck = in(Action::kCheck);

/// In RaceCli::Action order; a sweep races a size ladder on a grid.
constexpr flags::Mode kModes[] = {
    {"race", "--race"}, {"merge", "--merge", "OUT SHARD..."},
    {"check", "--check"}, {"list", "--list-backends"}, {"sweep", ""}};

constexpr flags::Flag<RaceArgs> kFlags[] = {
    {"--sched", "LIST", kRuns, "schedulers, or all (race: the paper's seven)",
     [](auto& a, auto& v) { a.spec.sched_names = parse_sched_names(v); }},
    // resolve() lists what is registered on a typo; "measured" -> "sim".
    {"--backend", "NAME", kRuns, "collective backend: plogp or sim",
     [](auto& a, auto& v) {
       a.spec.backend = collective::backend_registry().resolve(v);
     }},
    {"--root", "N", kRuns, "root cluster (default: 0)",
     [](auto& a, auto& v) {
       a.spec.root = parse_count<ClusterId>(v, "--root");
     }},
    {"--completion", "MODEL", kRuns, "eager or after-last-send (bcast only)",
     [](auto& a, auto& v) { a.spec.completion = parse_completion(v); }},
    {"--jitter", "F", kRuns, "sim jitter fraction in [0, 0.5) (default: 0.05)",
     [](auto& a, auto& v) {
       a.spec.jitter = parse_decimal(v, "--jitter");
       if (!sim::JitterConfig{a.spec.jitter}.valid()) {
         std::ostringstream msg;
         msg << "--jitter must be in [0, " << sim::JitterConfig::kMaxFrac
             << "), got '" << v << "'";
         throw InvalidInput(msg.str());
       }
     }},
    {"--seed", "N", kRuns, "seed of the draws and the sim (default: 1)",
     [](auto& a, auto& v) { a.spec.seed = parse_count(v, "--seed"); }},
    {"--threads", "N", kRuns, "worker threads (default: 0 = inline)",
     [](auto& a, auto& v) {
       a.threads = parse_count<std::size_t>(v, "--threads");
     }},
    {"--shards", "N", kRuns, "shard count (default: 1)",
     [](auto& a, auto& v) {
       a.spec.shard.shards = parse_count<std::size_t>(v, "--shards");
     }},
    {"--shard", "K[/N]", kRuns, "the shard this process computes",
     [](auto& a, auto& v) {
       const std::size_t slash = v.find('/');
       a.spec.shard.shard =
           parse_count<std::size_t>(v.substr(0, slash), "--shard");
       if (slash == std::string::npos) return;
       a.pair_shards = parse_count<std::size_t>(v.substr(slash + 1), "--shard");
       if (a.pair_shards == 0)
         throw InvalidInput("--shard=k/N: shard count N must be >= 1");
     }},
    {"--out", "FILE", kRuns, "write the report to FILE (default: stdout)",
     [](auto& a, auto& v) { a.out_path = v; }},
    {"--verb", "VERB", kSweep, "bcast, scatter or alltoall (default: bcast)",
     [](auto& a, auto& v) { a.spec.verb = collective::to_verb(v); }},
    {"--grid", "grid5000|FILE", kSweep, "grid (default: the Table 3 testbed)",
     [](auto& a, auto& v) { a.grid_arg = v; }},
    {"--sizes", "LIST", kSweep, "sizes such as 256K,1M,4MiB, or default",
     [](auto& a, auto& v) {
       if (lower(v) == "default") return;
       for (const auto& tok : split_csv(v))
         a.spec.sizes.push_back(parse_size(tok));
     }},
    {"--wall", "", kSweep, "also time each competitor's schedule (unsharded)",
     [](auto& a, auto&) { a.spec.wall = true; }},
    {"--sched-cost", "", kSweep, "also time selections per size (unsharded)",
     [](auto& a, auto&) { a.spec.sched_cost = true; }},
    {"--race", "", kRace, "race random Table 2 draws (Figs. 1-4)",
     [](auto&, auto&) {}},
    {"--clusters", "LIST", kRace, "counts: 8, 5-50 or 5-50:5 (default: 2-10)",
     [](auto& a, auto& v) { a.race.cluster_counts = parse_cluster_list(v); }},
    {"--iters", "N", kRace, "draws per cluster count (default: 1000)",
     [](auto& a, auto& v) {
       a.race.iterations = parse_count(v, "--iters");
       if (a.race.iterations == 0)
         throw InvalidInput("--iters must be >= 1");
     }},
    {"--merge", "", in(Action::kMerge), "merge the SHARD reports into OUT",
     [](auto&, auto&) {}},
    {"--check", "FILE", kCheck, "gate FILE against --baseline (exit 1)",
     [](auto& a, auto& v) { a.check_path = v; }},
    {"--baseline", "FILE", kCheck, "the baseline to gate against",
     [](auto& a, auto& v) { a.baseline_path = v; }},
    {"--rtol", "F", kCheck, "relative makespan tolerance (default: 1e-6)",
     [](auto& a, auto& v) {
       a.tolerances.makespan_rtol = parse_tolerance(v, "--rtol", true);
     }},
    {"--wall-tol", "F", kCheck, "wall-time ceiling factor (default: 10)",
     [](auto& a, auto& v) {
       a.tolerances.wall_factor = parse_tolerance(v, "--wall-tol", false);
     }},
    {"--throughput-tol", "F", kCheck, "throughput floor factor (default: 10)",
     [](auto& a, auto& v) {
       a.tolerances.throughput_factor =
           parse_tolerance(v, "--throughput-tol", false);
     }},
    {"--list-backends", "", in(Action::kListBackends), "list the backends",
     [](auto&, auto&) {}},
};

constexpr flags::Tool<RaceArgs> kTool = {"gridcast_race", kModes, kFlags};

io::BenchReport read_report_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInput("cannot open '" + path + "'");
  return io::read_bench_json(in);
}

}  // namespace

std::vector<std::size_t> parse_cluster_list(const std::string& value) {
  std::vector<std::size_t> counts;
  for (const auto& tok : split_csv(value)) {
    if (tok.empty())
      throw InvalidInput("--clusters: empty token in list '" + value + "'");
    const std::size_t dash = tok.find('-');
    if (dash == std::string::npos) {
      counts.push_back(parse_count<std::size_t>(tok, "--clusters"));
      continue;
    }
    const std::size_t colon = tok.find(':', dash);
    const std::uint64_t lo = parse_count(tok.substr(0, dash), "--clusters");
    const std::uint64_t hi = parse_count(
        tok.substr(dash + 1,
                   colon == std::string::npos ? std::string::npos
                                              : colon - dash - 1),
        "--clusters");
    const std::uint64_t step =
        colon == std::string::npos
            ? 1
            : parse_count(tok.substr(colon + 1), "--clusters");
    if (step == 0)
      throw InvalidInput("--clusters: range '" + tok + "' has step 0");
    if (hi < lo)
      throw InvalidInput("--clusters: range '" + tok + "' is descending");
    // Iterate without `n += step` overflow: a range ending near 2^64
    // would otherwise wrap and loop forever.  The point cap bounds both
    // memory and the loop itself.
    for (std::uint64_t n = lo;; n += step) {
      if (counts.size() >= 100000)
        throw InvalidInput("--clusters: list '" + value +
                           "' expands to more than 100000 parameter points");
      counts.push_back(static_cast<std::size_t>(n));
      if (hi - n < step) break;
    }
  }
  return counts;
}

RaceCli parse_race_cli(const std::vector<std::string>& args) {
  RaceArgs a;
  const flags::Parsed parsed = flags::parse(kTool, args, a);
  RaceCli& cli = a;
  cli.action = static_cast<Action>(parsed.mode);
  if (a.pair_shards != 0) {
    if (parsed.has("--shards") && cli.spec.shard.shards != a.pair_shards)
      throw InvalidInput("--shard=k/N disagrees with --shards");
    cli.spec.shard.shards = a.pair_shards;
  }

  switch (cli.action) {
    case Action::kRace:
      // Flags both runs read land in `spec`: an unseeded race keeps its 1.
      cli.race.sched_names = cli.spec.sched_names;
      cli.race.seed = cli.spec.seed;
      cli.race.root = cli.spec.root;
      cli.race.backend = cli.spec.backend;
      cli.race.options.completion = cli.spec.completion;
      cli.race.jitter = cli.spec.jitter;
      cli.race.shard = cli.spec.shard;
      cli.race.shard.validate();
      break;
    case Action::kRun:
      if (parsed.has("--completion") &&
          cli.spec.verb != collective::Verb::kBcast)
        throw InvalidInput(
            "--completion applies to broadcast sweeps; scatter/alltoall "
            "schedules are derived and timed with the eager model");
      cli.spec.shard.validate();
      refuse_sharded_timing(cli.spec);
      break;
    case Action::kMerge:
      if (parsed.positionals.size() < 2)
        throw InvalidInput(
            "--merge needs an output path and at least one shard file: "
            "--merge out.json a.json b.json ...");
      cli.out_path = parsed.positionals.front();
      cli.merge_inputs.assign(parsed.positionals.begin() + 1,
                              parsed.positionals.end());
      break;
    case Action::kCheck:
      if (cli.baseline_path.empty())
        throw InvalidInput("--check needs --baseline=<baseline.json>");
      break;
    case Action::kListBackends:
      break;
  }
  return std::move(cli);
}

std::vector<std::string> parse_sched_names(const std::string& value) {
  if (lower(value) == "all") return {};  // every registered entry
  std::vector<std::string> names = split_csv(value);
  for (const auto& name : names)
    if (name.empty())
      throw InvalidInput("--sched: empty name in list '" + value + "'");
  return names;
}

sched::CompletionModel parse_completion(const std::string& value) {
  const std::string v = lower(value);
  if (v == "eager") return sched::CompletionModel::kEager;
  if (v == "after-last-send") return sched::CompletionModel::kAfterLastSend;
  throw InvalidInput(
      "--completion must be 'eager' or 'after-last-send', got '" + value +
      "'");
}

topology::Grid load_grid(const std::string& grid_arg,
                         std::string& grid_name) {
  if (lower(grid_arg) == "grid5000") {
    grid_name = "grid5000_testbed";
    return topology::grid5000_testbed();
  }
  std::ifstream in(grid_arg);
  if (!in)
    throw InvalidInput("cannot open grid file '" + grid_arg +
                       "' (use --grid=grid5000 for the built-in testbed)");
  grid_name = grid_arg;
  return io::read_grid(in);
}

void write_report(const io::BenchReport& r, const std::string& path,
                  std::ostream& fallback) {
  if (path.empty()) return io::write_bench_json(fallback, r);
  std::ofstream out(path);
  if (!out) throw InvalidInput("cannot open '" + path + "' for writing");
  io::write_bench_json(out, r);
}

int run_race_cli(const RaceCli& cli, std::ostream& out, std::ostream& err) {
  switch (cli.action) {
    case RaceCli::Action::kRun: {
      std::string grid_name;
      const topology::Grid grid = load_grid(cli.grid_arg, grid_name);
      RaceSpec spec = cli.spec;
      if (spec.sched_names.empty())
        spec.sched_names = sched::registry().names();
      InstanceCache cache(grid);
      ThreadPool pool(cli.threads);
      std::vector<std::string> skipped;
      const io::BenchReport report =
          run_race_sweep(cache, grid_name, spec, pool, &skipped);
      write_report(report, cli.out_path, out);
      err << "raced " << report.series.size() << " series x "
          << report.sizes.size() << " sizes (backend " << spec.backend;
      if (spec.verb != collective::Verb::kBcast)
        err << ", verb " << collective::verb_name(spec.verb);
      err << ", " << report.mode << ", shard " << report.shard << "/"
          << report.shards << ", " << cache.misses()
          << " instances derived)";
      if (!cli.out_path.empty()) err << " -> " << cli.out_path;
      err << "\n";
      if (!skipped.empty()) {
        err << "skipped (can_schedule refused this grid):";
        for (const auto& name : skipped) err << " " << name;
        err << "\n";
      }
      return 0;
    }
    case RaceCli::Action::kRace: {
      RaceGridSpec spec = cli.race;
      // The paper's seven heuristics by default: `--sched=all` would pull
      // in shape-gated and ablation entries, which a hit-rate race must
      // refuse, not skip.
      if (spec.sched_names.empty())
        for (const auto& c : sched::paper_heuristics())
          spec.sched_names.emplace_back(c.name());
      ThreadPool pool(cli.threads);
      const io::BenchReport report = run_race_grid(spec, pool);
      write_report(report, cli.out_path, out);
      err << "raced " << report.series.size() << " series x "
          << report.sizes.size() << " cluster counts (" << report.iterations
          << " iterations/point, backend " << spec.backend << ", "
          << report.mode << ", shard " << report.shard << "/"
          << report.shards << ")";
      if (!cli.out_path.empty()) err << " -> " << cli.out_path;
      err << "\n";
      return 0;
    }
    case RaceCli::Action::kListBackends: {
      auto& reg = collective::backend_registry();
      for (const auto& name : reg.names()) {
        out << name;
        const auto aliases = reg.aliases_of(name);
        if (!aliases.empty()) {
          out << " (aliases:";
          for (const auto& a : aliases) out << " " << a;
          out << ")";
        }
        out << " - " << reg.description_of(name) << "\n";
      }
      return 0;
    }
    case RaceCli::Action::kMerge: {
      std::vector<io::BenchReport> shards;
      shards.reserve(cli.merge_inputs.size());
      for (const auto& path : cli.merge_inputs)
        shards.push_back(read_report_file(path));
      const io::BenchReport merged = merge_race_shards(shards);
      write_report(merged, cli.out_path, out);
      err << "merged " << shards.size() << " shards -> " << cli.out_path
          << "\n";
      return 0;
    }
    case RaceCli::Action::kCheck: {
      const io::BenchReport baseline = read_report_file(cli.baseline_path);
      const io::BenchReport current = read_report_file(cli.check_path);
      const std::vector<std::string> problems =
          io::compare_bench(baseline, current, cli.tolerances);
      for (const auto& p : problems) err << "REGRESSION: " << p << "\n";
      if (problems.empty()) {
        err << "baseline gate OK: " << current.series.size() << " series x "
            << current.sizes.size() << " points within tolerance of "
            << cli.baseline_path << "\n";
        return 0;
      }
      err << problems.size() << " regression(s) against " << cli.baseline_path
          << "\n";
      return 1;
    }
  }
  return 2;  // unreachable
}

int race_cli_main(int argc, char** argv, std::ostream& out,
                  std::ostream& err) {
  return flags::run(kTool, argc, argv, out, err,
                    [&](const std::vector<std::string>& args) {
                      return run_race_cli(parse_race_cli(args), out, err);
                    });
}

}  // namespace gridcast::exp
