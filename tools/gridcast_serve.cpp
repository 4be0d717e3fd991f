// gridcast_serve: the serving front-end over the schedule-plan cache
// (src/serve); `gridcast_serve --help` prints its modes and flags.  All
// protocol, cache, socket and replay logic lives in the library, where it
// is unit-tested; this file owns only flags, terminals and signals.

#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/race_cli.hpp"
#include "serve/server.hpp"
#include "serve/socket_server.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
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

struct ServeCli {
  std::string grid_arg = "grid5000";
  serve::ServeOptions service;
  std::size_t threads = 0;
  serve::ReplayOptions replay;
  std::string warm_path;
  std::string requests_path;
  std::string out_path;
  int port = 0;
};

enum Mode : unsigned { kPort, kReport, kReplay, kStdin };

constexpr flags::Modes in(Mode m) { return 1U << m; }
constexpr flags::Modes kAll = (in(kStdin) << 1) - 1;  // every mode

/// In Mode order.  Each mode answers the line protocol (`plan <verb> <root>
/// <size>`, `stats`, `quit`) but report, which writes the "serve" report.
constexpr flags::Mode kModes[] = {{"port", "--port"},
                                  {"report", "--replay-report"},
                                  {"replay", "--requests"},
                                  {"stdin", ""}};

constexpr flags::Flag<ServeCli> kFlags[] = {
    {"--grid", "grid5000|FILE", kAll, "grid (default: the Table 3 testbed)",
     [](auto& c, auto& v) { c.grid_arg = v; }},
    {"--sched", "LIST", kAll, "competing schedulers, or all (default: all)",
     [](auto& c, auto& v) {
       c.service.sched_names = exp::parse_sched_names(v);
     }},
    {"--completion", "MODEL", kAll, "eager or after-last-send (default: eager)",
     [](auto& c, auto& v) { c.service.completion = exp::parse_completion(v); }},
    {"--capacity", "BYTES", kAll, "plan-cache byte bound, e.g. 64M (none)",
     [](auto& c, auto& v) { c.service.plan_capacity = parse_size(v); }},
    {"--instance-capacity", "BYTES", kAll, "instance-cache byte bound (none)",
     [](auto& c, auto& v) { c.service.instance_capacity = parse_size(v); }},
    {"--warm", "FILE", kAll, "first build the plans a request log needs",
     [](auto& c, auto& v) { c.warm_path = v; }},
    {"--threads", "N", kAll, "build workers of a report or --warm (0 = inline)",
     [](auto& c, auto& v) {
       c.threads = parse_count<std::size_t>(v, "--threads");
     }},
    {"--port", "N", in(kPort), "answer plan/stats/quit lines on loopback TCP",
     [](auto& c, auto& v) {
       c.port = parse_count<std::uint16_t>(v, "--port");
       if (c.port == 0) throw InvalidInput("--port must be >= 1");
     }},
    {"--replay-report", "", in(kReport), "replay --requests into a report",
     [](auto&, auto&) {}},
    {"--requests", "FILE", in(kReport) | in(kReplay),
     "a log of plan/stats/quit lines, answered as stdin is",
     [](auto& c, auto& v) { c.requests_path = v; }},
    {"--sessions", "N", in(kReport), "concurrent live sessions (default: 1)",
     [](auto& c, auto& v) {
       c.replay.sessions = parse_count<std::size_t>(v, "--sessions");
       if (c.replay.sessions == 0)
         throw InvalidInput("--sessions must be >= 1");
     }},
    {"--timing", "", in(kReport), "add the host-dependent timing series",
     [](auto& c, auto&) { c.replay.timing = true; }},
    {"--out", "FILE", in(kReport), "write the report to FILE (default: stdout)",
     [](auto& c, auto& v) { c.out_path = v; }},
};

constexpr flags::Tool<ServeCli> kTool = {"gridcast_serve", kModes, kFlags};

std::ifstream open_log(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InvalidInput("cannot open request log '" + path + "'");
  return in;
}

/// Answer each protocol line of `in`: a stdin session or a request log.
int answer_lines(std::istream& in, serve::PlanService& service) {
  for (std::string line; std::getline(in, line);) {
    const auto reply = service.handle_line(line);
    if (!reply.text.empty()) std::cout << reply.text << std::endl;
    if (reply.quit) break;
  }
  return 0;
}

/// Loopback TCP sessions until SIGINT/SIGTERM; the accept loop, sessions and
/// async miss answering live in serve::SocketServer, tested there.
int run_tcp(int port, serve::PlanService& service) {
  install_stop_handlers();
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

int serve_main(const std::vector<std::string>& args) {
  ServeCli cli;
  const flags::Parsed parsed = flags::parse(kTool, args, cli);
  const auto mode = static_cast<Mode>(parsed.mode);
  if (mode == kReport && cli.requests_path.empty())
    throw InvalidInput("--replay-report needs --requests=FILE");
  // A mode row cannot say that --warm reads --threads in every mode.
  if (parsed.has("--threads") && mode != kReport && !parsed.has("--warm"))
    throw InvalidInput(std::string("option '--threads' does not apply to ")
                           .append(kModes[mode].name) +
                       " mode without --warm");
  std::string grid_name;
  const topology::Grid grid = exp::load_grid(cli.grid_arg, grid_name);
  serve::PlanService service(grid, grid_name, cli.service);
  ThreadPool pool(cli.threads);
  if (!cli.warm_path.empty()) {
    std::ifstream log = open_log(cli.warm_path);
    (void)serve::warm_requests(service, serve::parse_request_log(log), pool);
  }
  switch (mode) {
    case kPort:
      return run_tcp(cli.port, service);
    case kReport: {
      std::ifstream log = open_log(cli.requests_path);
      exp::write_report(serve::replay_requests(
                            service, serve::parse_request_log(log), pool,
                            cli.replay),
                        cli.out_path, std::cout);
      return 0;
    }
    case kReplay: {
      std::ifstream log = open_log(cli.requests_path);
      return answer_lines(log, service);
    }
    case kStdin:
      return answer_lines(std::cin, service);
  }
  return 3;  // unreachable
}

}  // namespace

int main(int argc, char** argv) {
  return flags::run(kTool, argc, argv, std::cout, std::cerr, serve_main);
}
