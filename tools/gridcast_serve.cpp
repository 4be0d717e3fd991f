// gridcast_serve: the long-lived serving front-end over the schedule-plan
// cache (src/serve).  Speaks a one-line-per-request protocol:
//
//     plan <verb> <root> <size>     e.g.  plan bcast 0 4MiB
//     stats
//     quit
//
// and answers each request with the winning scheduler, its predicted
// makespan and the plan's cache status.  Three front-ends share one
// PlanService:
//
//   gridcast_serve                          # interactive session on stdin
//   gridcast_serve --port=7777              # loopback TCP, one thread per
//                                           # session; SIGINT/SIGTERM stop it
//   gridcast_serve --requests=FILE          # replay a request log, print
//                                           # every reply
//   gridcast_serve --requests=FILE --replay-report [--timing] [--out=F]
//                                           # replay and emit the
//                                           # "bench": "serve" BenchReport
//
// The replay report is byte-identical across runs, machines, --threads,
// --sessions and --warm state unless --timing adds the host-dependent
// series (requests/sec, p50/p99 latency) — the CI serve lane gates that
// timing run against BENCH_baseline_serve.json via `gridcast_race
// --check`.  Inside a TCP session, hits answer immediately while misses
// build asynchronously behind the plan cache's build-once latch.
//
// All protocol, cache, socket and replay logic lives in the library
// (src/serve) where it is unit-tested; this file owns only flags,
// terminals and signal handling.

#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/race_cli.hpp"
#include "serve/server.hpp"
#include "serve/socket_server.hpp"
#include "support/error.hpp"
#include "support/parse.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace gridcast;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

/// std::signal on glibc gives BSD semantics (SA_RESTART), which would
/// transparently restart the blocking accept()/read() and the daemon
/// would never observe g_stop.  Install with sigaction and no
/// SA_RESTART so the syscalls return EINTR and the loops re-check.
void install_stop_handlers() {
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

std::string usage() {
  return
      "usage: gridcast_serve [options]\n"
      "\n"
      "Serving daemon over the schedule-plan cache.  Protocol (one line\n"
      "per request): 'plan <verb> <root> <size>', 'stats', 'quit'.\n"
      "\n"
      "  --grid=grid5000|FILE   grid to serve (default: built-in testbed)\n"
      "  --sched=all|a,b,c      competing schedulers (default: all)\n"
      "  --completion=MODEL     eager | after-last-send (default: eager)\n"
      "  --capacity=BYTES       plan-cache bound, e.g. 64M (default: "
      "unbounded)\n"
      "  --instance-capacity=BYTES  instance-cache bound (same spellings)\n"
      "  --warm=FILE            pre-build the plans a request log needs before\n"
      "                         serving (batched across --threads)\n"
      "  --threads=N            build worker threads (default: 0 = inline)\n"
      "  --batch=N              replay/warm batch size (default: 64)\n"
      "  --requests=FILE        replay a request log instead of serving\n"
      "  --replay-report        emit the \"serve\" BenchReport for the replay\n"
      "  --sessions=N           replay only: drive the log through N\n"
      "                         concurrent live sessions (default: 1; the\n"
      "                         report's exact series never change)\n"
      "  --timing               add requests/sec + latency series (host-\n"
      "                         dependent; off keeps the report byte-stable)\n"
      "  --out=FILE             write the report to FILE (default: stdout)\n"
      "  --port=N               serve loopback TCP sessions instead of stdin\n";
}

struct ServeCliArgs {
  std::string grid_arg = "grid5000";
  serve::ServeOptions service;
  std::size_t threads = 0;
  serve::ReplayOptions replay;
  std::string warm_path;
  std::string requests_path;
  bool replay_report = false;
  std::string out_path;
  int port = -1;
};

ServeCliArgs parse_args(const std::vector<std::string>& args) {
  using exp::value_of;
  ServeCliArgs cli;
  for (const auto& arg : args) {
    const std::string key = arg.substr(0, arg.find('='));
    if (key == "--grid") {
      cli.grid_arg = value_of(arg);
    } else if (key == "--sched") {
      exp::add_sched_names(value_of(arg), cli.service.sched_names);
    } else if (key == "--completion") {
      cli.service.completion = exp::parse_completion(value_of(arg));
    } else if (key == "--capacity") {
      cli.service.plan_capacity = exp::parse_size(value_of(arg));
    } else if (key == "--instance-capacity") {
      cli.service.instance_capacity = exp::parse_size(value_of(arg));
    } else if (key == "--warm") {
      cli.warm_path = value_of(arg);
    } else if (key == "--threads") {
      cli.threads = parse_count<std::size_t>(value_of(arg), "--threads");
    } else if (key == "--batch") {
      cli.replay.batch = parse_count<std::size_t>(value_of(arg), "--batch");
      if (cli.replay.batch == 0)
        throw InvalidInput("--batch must be >= 1");
    } else if (key == "--requests") {
      cli.requests_path = value_of(arg);
    } else if (arg == "--replay-report") {
      cli.replay_report = true;
    } else if (key == "--sessions") {
      cli.replay.sessions =
          parse_count<std::size_t>(value_of(arg), "--sessions");
      if (cli.replay.sessions == 0)
        throw InvalidInput("--sessions must be >= 1");
    } else if (arg == "--timing") {
      cli.replay.timing = true;
    } else if (key == "--out") {
      cli.out_path = value_of(arg);
    } else if (key == "--port") {
      cli.port = parse_count<std::uint16_t>(value_of(arg), "--port");
      if (cli.port == 0) throw InvalidInput("--port must be >= 1");
    } else {
      throw InvalidInput("unknown option '" + arg + "' (see --help)");
    }
  }
  if (cli.requests_path.empty() && (cli.replay_report || cli.replay.timing))
    throw InvalidInput("--replay-report/--timing need --requests=FILE");
  if (cli.requests_path.empty() && cli.replay.sessions > 1)
    throw InvalidInput("--sessions needs --requests=FILE");
  if (!cli.requests_path.empty() && cli.port >= 0)
    throw InvalidInput("--requests and --port are mutually exclusive");
  return cli;
}

std::vector<serve::ReplayRequest> load_request_log(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInput("cannot open request log '" + path + "'");
  return serve::parse_request_log(in);
}

/// `--warm=FILE`: build every plan the log's requests need, through the
/// same batched build path replay uses, before the first request is
/// served.  Valid with every front-end.
void warm_cache(const ServeCliArgs& cli, serve::PlanService& service) {
  if (cli.warm_path.empty()) return;
  const std::vector<serve::ReplayRequest> requests =
      load_request_log(cli.warm_path);
  ThreadPool pool(cli.threads);
  const std::size_t built =
      serve::warm_requests(service, requests, pool, cli.replay.batch);
  std::cerr << "gridcast_serve: warmed " << built << " plans from "
            << cli.warm_path << "\n";
}

int run_replay(const ServeCliArgs& cli, serve::PlanService& service) {
  const std::vector<serve::ReplayRequest> requests =
      load_request_log(cli.requests_path);
  if (!cli.replay_report) {
    // Reply-stream mode: every request through the interactive path, so a
    // log replays exactly like piping it to stdin.
    for (const auto& rq : requests) {
      std::string line = "plan ";
      line += collective::verb_name(rq.verb);
      line += ' ' + std::to_string(rq.root) + ' ' + std::to_string(rq.size);
      const auto reply = service.handle_line(line);
      if (!reply.text.empty()) std::cout << reply.text << '\n';
    }
    return 0;
  }
  ThreadPool pool(cli.threads);
  exp::write_report(serve::replay_requests(service, requests, pool, cli.replay),
                    cli.out_path, std::cout);
  return 0;
}

int run_stdin(serve::PlanService& service) {
  for (std::string line; std::getline(std::cin, line);) {
    const auto reply = service.handle_line(line);
    if (!reply.text.empty()) std::cout << reply.text << std::endl;
    if (reply.quit) break;
  }
  return 0;
}

/// Loopback TCP sessions, one thread each, until SIGINT/SIGTERM.  The
/// accept loop, session threads and async miss answering all live in
/// serve::SocketServer where they are tested against loopback clients.
int run_tcp(int port, serve::PlanService& service) {
  serve::SocketServerOptions opts;
  opts.port = port;
  opts.log = [](const std::string& line) {
    std::cerr << "gridcast_serve: " << line << "\n";
  };
  serve::SocketServer server(service, opts);
  server.bind_and_listen();
  server.run([] { return g_stop != 0; });
  std::cerr << "gridcast_serve: shutting down\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const auto& a : args) {
    if (a == "--help" || a == "-h") {
      std::cout << usage();
      return 0;
    }
  }
  try {
    const ServeCliArgs cli = parse_args(args);
    std::string grid_name;
    const topology::Grid grid = exp::load_grid(cli.grid_arg, grid_name);
    serve::PlanService service(grid, grid_name, cli.service);
    warm_cache(cli, service);
    if (!cli.requests_path.empty()) return run_replay(cli, service);
    if (cli.port >= 0) {
      install_stop_handlers();
      return run_tcp(cli.port, service);
    }
    return run_stdin(service);
  } catch (const gridcast::InvalidInput& e) {
    std::cerr << "gridcast_serve: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "gridcast_serve: internal error: " << e.what() << "\n";
    return 3;
  }
}
