#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"

/// The daemon's TCP front-end, in library form so every socket-path
/// behaviour is unit-testable against a loopback client (the tool's
/// `run_tcp` is a thin wrapper).
///
/// Concurrency model — session-per-thread over the thread-safe caches:
///
///  * the accept loop spawns one thread per connection; sessions share
///    the `PlanService` and contend only on its internal locks;
///  * inside a session, *misses answer asynchronously*: the reader
///    thread answers resident plans (and `stats`) immediately, while
///    missing signatures queue to a per-session worker that rides the
///    plan cache's build-once latch — so a cached hit is never stuck
///    behind a plan that is still being built, not even its own
///    session's;
///  * every reply is a single complete line and self-identifies its
///    request (`plan verb=... root=... size=...`), so a hit overtaking
///    an earlier miss's reply is unambiguous; miss replies within a
///    session stay in request order; `quit` drains the pending misses,
///    answers `bye` last, and closes;
///  * a line longer than `SocketServer::kMaxLineBytes` gets one `error:`
///    reply and closes its session, so a client that never sends a
///    newline cannot grow the daemon.
namespace gridcast::serve {

struct SocketServerOptions {
  /// Loopback port to bind; 0 picks an ephemeral port (see `port()`).
  int port = 0;
  /// One-line operational notices ("listening on ...", trailing-line
  /// warnings).  Null = silent.
  std::function<void(const std::string&)> log;
  /// Test hook, run first thing on each session's reader thread (e.g.
  /// to capture the thread id for signal-interruption tests).
  std::function<void()> on_session_start;
};

class SocketServer {
 public:
  /// The longest request line a session buffers, newline excluded; the
  /// longest valid request is under 100 bytes.
  static constexpr std::size_t kMaxLineBytes = 4096;

  /// `service` must outlive the server.
  explicit SocketServer(PlanService& service, SocketServerOptions opts = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Bind 127.0.0.1:`opts.port` and listen (SOMAXCONN backlog — the
  /// whole point is concurrent sessions).  Throws InvalidInput when the
  /// socket cannot be set up; `port()` is valid afterwards.
  void bind_and_listen();

  /// The bound port — `opts.port`, or the kernel's pick when that was 0.
  [[nodiscard]] int port() const noexcept { return port_; }

  /// Accept sessions until `should_stop()` answers true (checked after
  /// every accept wake-up, so a signal that EINTRs the accept is enough
  /// to stop) or `stop()` is called.  `EINTR` and `ECONNABORTED` are
  /// non-fatal accept outcomes: re-check and keep accepting.  On return
  /// every session has been woken, drained and joined.
  void run(const std::function<bool()>& should_stop = {});

  /// Stop accepting and wake every blocked session read; idempotent,
  /// callable from any thread (e.g. a test's client side).  `run()`
  /// owns the joining.
  void stop();

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void session_loop(Session& session);
  /// Join and close finished sessions (accept-loop thread only).
  void reap(bool everything);

  PlanService& service_;
  SocketServerOptions opts_;
  int listener_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::mutex mu_;  ///< guards sessions_
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace gridcast::serve
