#include "serve/socket_server.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "topology/grid5000.hpp"

namespace gridcast::serve {
namespace {

const topology::Grid& testbed() {
  static const topology::Grid grid = topology::grid5000_testbed();
  return grid;
}

/// A live daemon on an ephemeral loopback port, torn down on scope exit.
struct TestDaemon {
  explicit TestDaemon(std::function<void()> on_session_start = {})
      : service(testbed(), "g5k") {
    SocketServerOptions opts;
    opts.on_session_start = std::move(on_session_start);
    opts.log = [this](const std::string& line) {
      std::lock_guard lk(mu);
      logs.push_back(line);
    };
    server.emplace(service, std::move(opts));
    server->bind_and_listen();
    runner = std::thread([this] { server->run(); });
  }
  ~TestDaemon() {
    server->stop();
    runner.join();
  }
  TestDaemon(const TestDaemon&) = delete;
  TestDaemon& operator=(const TestDaemon&) = delete;

  [[nodiscard]] std::vector<std::string> log_lines() {
    std::lock_guard lk(mu);
    return logs;
  }

  PlanService service;
  std::optional<SocketServer> server;
  std::thread runner;
  std::mutex mu;
  std::vector<std::string> logs;
};

/// A loopback client with a receive timeout, so a regression hangs a
/// bounded 20 s instead of wedging the suite.
struct Client {
  explicit Client(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    const timeval tv{20, 0};
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv), 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0)
        << std::strerror(errno);
  }
  ~Client() {
    if (fd >= 0) ::close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_all(std::string_view text) const {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t w =
          ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(w, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(w);
    }
  }

  /// Read until `want` newline-terminated lines arrived (or EOF/timeout).
  [[nodiscard]] std::vector<std::string> read_lines(std::size_t want) const {
    std::string buf;
    while (static_cast<std::size_t>(
               std::count(buf.begin(), buf.end(), '\n')) < want) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    std::vector<std::string> lines;
    for (std::size_t nl = buf.find('\n'); nl != std::string::npos;
         nl = buf.find('\n')) {
      lines.push_back(buf.substr(0, nl));
      buf.erase(0, nl + 1);
    }
    if (!buf.empty()) lines.push_back(buf);  // unterminated tail
    return lines;
  }

  /// Read until the server closes the connection.
  [[nodiscard]] std::string read_to_eof() const {
    std::string buf;
    for (;;) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    return buf;
  }

  int fd = -1;
};

void noop_handler(int) {}

/// SIGUSR1 with no SA_RESTART: delivery makes a blocked recv()/send()
/// return EINTR instead of restarting — exactly what SIGINT does to the
/// real daemon, minus the stop flag.
void install_noop_sigusr1() {
  struct sigaction sa{};
  sa.sa_handler = noop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, nullptr), 0);
}

TEST(SocketServer, SignalInterruptionDoesNotDropTheSession) {
  // The EINTR pins: a no-op signal lands on the session thread while it
  // is blocked in recv() (and again around the reply write).  The
  // session must survive — before the fix, the read loop treated EINTR
  // as a disconnect.
  install_noop_sigusr1();
  std::mutex mu;
  std::condition_variable cv;
  std::optional<pthread_t> session_tid;
  TestDaemon daemon([&] {
    std::lock_guard lk(mu);
    session_tid = pthread_self();
    cv.notify_all();
  });
  Client client(daemon.server->port());
  {
    std::unique_lock lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(20),
                            [&] { return session_tid.has_value(); }));
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(pthread_kill(*session_tid, SIGUSR1), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  client.send_all("plan bcast 0 1M\n");
  ASSERT_EQ(pthread_kill(*session_tid, SIGUSR1), 0);
  const auto replies = client.read_lines(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("plan verb=bcast root=0 size=1048576 ", 0), 0u)
      << replies[0];
  // Still alive: the session answers follow-up commands.
  client.send_all("stats\n");
  const auto stats = client.read_lines(1);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].rfind("stats grid=g5k ", 0), 0u) << stats[0];
  client.send_all("quit\n");
  const auto bye = client.read_lines(1);
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(bye[0], "bye");
}

TEST(SocketServer, ReassemblesSplitAndCoalescedRequests) {
  TestDaemon daemon;
  Client client(daemon.server->port());

  // One request dribbled across four writes: the session must reassemble
  // the line, not treat each segment as a command.
  for (const char* piece : {"pl", "an bca", "st 0 1", "M\n"}) {
    client.send_all(piece);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto replies = client.read_lines(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("plan verb=bcast root=0 size=1048576 ", 0), 0u);

  // Two distinct requests in one segment: two complete replies.
  client.send_all("plan bcast 0 2M\nplan scatter 1 64K\n");
  replies = client.read_lines(2);
  ASSERT_EQ(replies.size(), 2u);
  for (const auto& r : replies) EXPECT_EQ(r.rfind("plan verb=", 0), 0u) << r;

  // Two *same-signature* requests in one segment: exactly one miss and
  // one hit, both byte-identical up to the cache-status tail (the hit
  // may overtake the miss's reply, so the order is not pinned).
  client.send_all("plan alltoall 2 4M\nplan alltoall 2 4M\n");
  replies = client.read_lines(2);
  ASSERT_EQ(replies.size(), 2u);
  const auto strip_tail = [](const std::string& r) {
    const std::size_t sp = r.rfind(' ');
    return r.substr(0, sp);
  };
  EXPECT_EQ(strip_tail(replies[0]), strip_tail(replies[1]));
  std::multiset<std::string> tails{replies[0].substr(replies[0].rfind(' ')),
                                   replies[1].substr(replies[1].rfind(' '))};
  EXPECT_EQ(tails, (std::multiset<std::string>{" hit", " miss"}));
  client.send_all("quit\n");
  (void)client.read_lines(1);
}

TEST(SocketServer, TrailingUnterminatedLineIsServedAtDisconnect) {
  // Half-close: the client sends a request with no newline and shuts
  // down its write side.  Before the fix the line was silently dropped;
  // now it is processed (and logged) and the reply still comes back.
  TestDaemon daemon;
  Client client(daemon.server->port());
  client.send_all("plan bcast 0 1M");
  ASSERT_EQ(::shutdown(client.fd, SHUT_WR), 0);
  const std::string out = client.read_to_eof();
  EXPECT_EQ(out.rfind("plan verb=bcast root=0 size=1048576 ", 0), 0u) << out;
  EXPECT_EQ(out.back(), '\n');
  const auto logs = daemon.log_lines();
  EXPECT_TRUE(std::any_of(logs.begin(), logs.end(), [](const std::string& l) {
    return l.find("trailing unterminated line") != std::string::npos;
  }));
}

TEST(SocketServer, QuitDrainsPendingMissesAndAnswersLast) {
  // `quit` pipelined behind a miss: the miss's reply must still arrive,
  // and `bye` must be the session's last word before EOF.
  TestDaemon daemon;
  Client client(daemon.server->port());
  client.send_all("plan alltoall 0 1M\nquit\n");
  const std::string out = client.read_to_eof();
  std::vector<std::string> lines;
  std::string rest = out;
  for (std::size_t nl = rest.find('\n'); nl != std::string::npos;
       nl = rest.find('\n')) {
    lines.push_back(rest.substr(0, nl));
    rest.erase(0, nl + 1);
  }
  ASSERT_EQ(lines.size(), 2u) << out;
  EXPECT_EQ(lines[0].rfind("plan verb=alltoall root=0 size=1048576 ", 0), 0u);
  EXPECT_EQ(lines[1], "bye");
}

TEST(SocketServer, HitOvertakesAPendingMissWithinASession) {
  // Async miss answering over the wire: with bucket-Y resident, a miss
  // for X followed immediately by a hit for Y answers Y first — the hit
  // never queues behind X's build.  A side requester holds X's build
  // open on the plan cache's build-once latch, so the session's miss for
  // X waits until the test releases it, however fast builds are.
  TestDaemon daemon;
  Client client(daemon.server->port());
  client.send_all("plan bcast 0 1M\n");  // make Y resident
  ASSERT_EQ(client.read_lines(1).size(), 1u);

  PlanService& svc = daemon.service;
  const PlanSignature sig_x =
      svc.signature_for(collective::Verb::kAlltoall, 3, MiB(8));
  std::promise<void> building;
  std::promise<void> release;
  std::thread holder([&] {
    (void)svc.plans().get(sig_x, [&](const PlanSignature& s) {
      building.set_value();
      release.get_future().wait();
      return svc.build_plan(s);
    });
  });
  building.get_future().wait();

  client.send_all("plan alltoall 3 8M\nplan bcast 0 1M\n");
  // Y must arrive while X's build is still held; a session that queued
  // Y behind X would leave this read to time out.
  const auto first = client.read_lines(1);
  release.set_value();
  holder.join();
  const auto second = client.read_lines(1);

  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].rfind("plan verb=bcast root=0 size=1048576 ", 0), 0u)
      << first[0];
  EXPECT_EQ(first[0].substr(first[0].size() - 4), " hit");
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].rfind("plan verb=alltoall root=3 size=8388608 ", 0), 0u)
      << second[0];
  client.send_all("quit\n");
  (void)client.read_lines(1);
}

TEST(SocketServer, MalformedLinesKeepTheSessionAlive) {
  TestDaemon daemon;
  Client client(daemon.server->port());
  client.send_all("plan bcast 0\nfrobnicate\nplan bcast 0 1M\n");
  const auto replies = client.read_lines(3);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0], "error: usage: plan <verb> <root> <size>");
  EXPECT_EQ(replies[1],
            "error: unknown command 'frobnicate' (valid: plan, stats, quit)");
  EXPECT_EQ(replies[2].rfind("plan verb=bcast root=0 size=1048576 ", 0), 0u);
}

TEST(SocketServer, AnOverlongLineGetsOneErrorThenEof) {
  // A client that never sends a newline used to grow its session's buffer
  // without bound.
  TestDaemon daemon;
  {
    Client client(daemon.server->port());
    const std::string junk(64 * 1024, 'x');
    // The session may close before the whole write is read; only the
    // reply matters.
    for (std::size_t off = 0; off < junk.size();) {
      const ssize_t w = ::send(client.fd, junk.data() + off,
                               junk.size() - off, MSG_NOSIGNAL);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    EXPECT_EQ(client.read_to_eof(),
              "error: request line longer than 4096 bytes\n");
  }
  // The cap is per line: an 8-request batch padded past it in total still
  // gets 8 replies.
  Client client(daemon.server->port());
  std::string batch;
  for (int i = 1; i <= 8; ++i)
    batch += "plan bcast 0 " + std::to_string(i) + "M" +
             std::string(1000, ' ') + "\n";
  ASSERT_GT(batch.size(), SocketServer::kMaxLineBytes);
  client.send_all(batch);
  const auto replies = client.read_lines(8);
  ASSERT_EQ(replies.size(), 8u);
  for (const auto& reply : replies)
    EXPECT_EQ(reply.rfind("plan verb=bcast root=0 size=", 0), 0u) << reply;
}

TEST(SocketServer, ConcurrentSessionsGetByteCorrectReplies) {
  // The TSan-lane stress: N sessions hammer overlapping signatures at
  // once.  Every reply must be well-formed and — up to the hit/miss
  // tail, which depends on arrival order — byte-equal to what an
  // isolated reference service answers for the same request.
  constexpr int kSessions = 8;
  constexpr int kRounds = 6;
  const std::vector<std::string> kRequests = {
      "plan bcast 0 1M",    "plan bcast 1 1M",  "plan scatter 0 256K",
      "plan alltoall 0 2M", "plan bcast 0 4M",  "plan scatter 2 256K",
  };

  // Reference replies from a private service (selection is deterministic,
  // so both services derive identical plans for every signature).
  PlanService reference(testbed(), "g5k");
  std::map<std::string, std::string> expected;  // request -> reply sans tail
  for (const auto& rq : kRequests) {
    const std::string text = reference.handle_line(rq).text;
    expected[rq] = text.substr(0, text.rfind(' '));
  }

  TestDaemon daemon;
  std::vector<std::thread> clients;
  std::vector<std::string> failure(kSessions);
  clients.reserve(kSessions);
  for (int c = 0; c < kSessions; ++c) {
    clients.emplace_back([&, c] {
      Client client(daemon.server->port());
      for (int r = 0; r < kRounds; ++r) {
        // Stagger the request mix so sessions overlap on every signature.
        const std::string& rq = kRequests[(c + r) % kRequests.size()];
        client.send_all(rq + "\n");
        const auto replies = client.read_lines(1);
        if (replies.size() != 1) {
          failure[c] = "no reply to '" + rq + "'";
          return;
        }
        const std::string& got = replies[0];
        const std::string tail = got.substr(got.rfind(' '));
        if (tail != " hit" && tail != " miss") {
          failure[c] = "malformed tail in '" + got + "'";
          return;
        }
        if (got.substr(0, got.rfind(' ')) != expected.at(rq)) {
          failure[c] = "reply '" + got + "' != expected '" + expected.at(rq) +
                       "' for '" + rq + "'";
          return;
        }
      }
      client.send_all("quit\n");
      const auto bye = client.read_lines(1);
      if (bye.size() != 1 || bye[0] != "bye") failure[c] = "no bye";
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kSessions; ++c) EXPECT_EQ(failure[c], "") << "session "
                                                                << c;
}

}  // namespace
}  // namespace gridcast::serve
