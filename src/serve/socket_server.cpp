#include "serve/socket_server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <utility>

#include "support/error.hpp"

namespace gridcast::serve {

namespace {

/// Write the whole buffer or declare the session dead.  `EINTR` retries
/// — a signal must never truncate a protocol reply mid-line — and any
/// other failure is final: the caller closes the session rather than
/// desynchronise it by skipping bytes.  MSG_NOSIGNAL turns a
/// closed-peer write into EPIPE instead of a process-killing SIGPIPE.
bool write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t w =
        ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

SocketServer::SocketServer(PlanService& service, SocketServerOptions opts)
    : service_(service), opts_(std::move(opts)) {}

SocketServer::~SocketServer() {
  stop();
  reap(true);
  if (listener_ >= 0) ::close(listener_);
}

void SocketServer::bind_and_listen() {
  GRIDCAST_ASSERT(listener_ < 0, "bind_and_listen() called twice");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw InvalidInput("socket(): " + std::string(std::strerror(errno)));
  const auto fail = [&](const std::string& what) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw InvalidInput(what + ": " + why);
  };
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0)
    fail("setsockopt(SO_REUSEADDR)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0)
    fail("cannot bind 127.0.0.1:" + std::to_string(opts_.port));
  if (::listen(fd, SOMAXCONN) < 0)
    fail("cannot listen on 127.0.0.1:" + std::to_string(opts_.port));
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
    fail("getsockname()");
  port_ = ntohs(addr.sin_port);
  listener_ = fd;
  if (opts_.log)
    opts_.log("listening on 127.0.0.1:" + std::to_string(port_));
}

void SocketServer::run(const std::function<bool()>& should_stop) {
  GRIDCAST_ASSERT(listener_ >= 0, "run() before bind_and_listen()");
  const auto stopping = [&] {
    return stop_.load(std::memory_order_relaxed) ||
           (should_stop && should_stop());
  };
  while (!stopping()) {
    const int conn = ::accept(listener_, nullptr, nullptr);
    if (conn < 0) {
      if (stopping()) break;
      // EINTR: a signal woke the accept — loop re-checks the stop
      // predicate.  ECONNABORTED: the peer gave up while queued in the
      // backlog — their loss, not the daemon's; keep accepting.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      const std::string why = std::strerror(errno);
      throw InvalidInput("accept(): " + why);
    }
    reap(false);
    auto session = std::make_unique<Session>();
    session->fd = conn;
    Session* raw = session.get();
    {
      std::lock_guard lk(mu_);
      sessions_.push_back(std::move(session));
    }
    raw->thread = std::thread([this, raw] {
      session_loop(*raw);
      raw->done.store(true, std::memory_order_release);
    });
  }
  stop();  // wake every blocked session read before joining them
  reap(true);
}

void SocketServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  // shutdown(), not close(): it wakes a thread blocked in accept()/
  // recv() without freeing the descriptor number, so no other thread
  // can race a reused fd.  close happens after the join, in reap().
  if (listener_ >= 0) ::shutdown(listener_, SHUT_RDWR);
  std::lock_guard lk(mu_);
  for (const auto& s : sessions_)
    if (s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
}

void SocketServer::reap(bool everything) {
  std::vector<std::unique_ptr<Session>> finished;
  {
    std::lock_guard lk(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (everything || (*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& s : finished) {
    if (s->thread.joinable()) s->thread.join();
    if (s->fd >= 0) ::close(s->fd);
  }
}

void SocketServer::session_loop(Session& session) {
  if (opts_.on_session_start) opts_.on_session_start();
  const int fd = session.fd;

  // The async-miss machinery: one FIFO worker per session.  The reader
  // thread answers hits and stats inline; misses queue here, so a
  // resident plan's reply never waits on a build — the worker rides the
  // plan cache's build-once latch for the actual work.
  std::mutex qmu;
  std::condition_variable qcv;
  std::deque<ReplayRequest> queue;
  std::size_t pending = 0;  // queued + in-flight, for the quit drain
  bool closing = false;
  std::atomic<bool> dead{false};  // a write failed: session is over
  std::mutex write_mu;

  const auto send_reply = [&](const std::string& text) {
    std::lock_guard lk(write_mu);
    if (dead.load(std::memory_order_relaxed)) return;
    if (!write_all(fd, text + "\n"))
      dead.store(true, std::memory_order_relaxed);
  };

  std::thread worker([&] {
    for (;;) {
      ReplayRequest rq;
      {
        std::unique_lock lk(qmu);
        qcv.wait(lk, [&] { return closing || !queue.empty(); });
        if (queue.empty()) return;  // closing, and fully drained
        rq = queue.front();
        queue.pop_front();
      }
      std::string text;
      try {
        const PlanService::Served served =
            service_.serve(rq.verb, rq.root, rq.size);
        text = plan_reply_text(rq, served.plan->signature.size_bucket,
                               *served.plan, served.hit);
      } catch (const InvalidInput& e) {
        text = std::string("error: ") + e.what();
      }
      send_reply(text);
      {
        std::lock_guard lk(qmu);
        --pending;
      }
      qcv.notify_all();
    }
  });

  // One protocol line.  Returns true when the session should close.
  const auto dispatch = [&](const std::string& line) -> bool {
    LineCommand cmd;
    try {
      cmd = parse_command(line);
    } catch (const InvalidInput& e) {
      send_reply(std::string("error: ") + e.what());
      return false;
    }
    switch (cmd.kind) {
      case LineCommand::Kind::kNone:
        return false;
      case LineCommand::Kind::kStats:
        send_reply(service_.stats_line());
        return false;
      case LineCommand::Kind::kQuit: {
        // Drain the pending misses so `bye` is the session's last word.
        std::unique_lock lk(qmu);
        qcv.wait(lk, [&] { return pending == 0; });
        lk.unlock();
        send_reply("bye");
        return true;
      }
      case LineCommand::Kind::kPlan: {
        PlanSignature sig;
        try {
          sig = service_.signature_for(cmd.plan.verb, cmd.plan.root,
                                       cmd.plan.size);
        } catch (const InvalidInput& e) {
          send_reply(std::string("error: ") + e.what());
          return false;
        }
        if (const PlanPtr plan = service_.plans().peek(sig)) {
          send_reply(plan_reply_text(cmd.plan, plan->signature.size_bucket,
                                     *plan, true));
        } else {
          std::lock_guard lk(qmu);
          queue.push_back(cmd.plan);
          ++pending;
          qcv.notify_all();
        }
        return false;
      }
    }
    return false;  // unreachable; switch covers every kind
  };

  std::string buf;
  char chunk[4096];
  bool quit = false;
  while (!quit && !dead.load(std::memory_order_relaxed)) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      // The EINTR bugfix: a signal is not a disconnect.  Retry unless
      // the server is stopping (stop() shut this fd down).
      if (errno == EINTR && !stop_.load(std::memory_order_relaxed)) continue;
      break;
    }
    if (n == 0) {
      // Disconnect (or write-side shutdown).  A trailing unterminated
      // line is still a request — process it; the reply goes out in
      // case only the peer's write side is closed.
      if (!buf.empty()) {
        if (opts_.log) opts_.log("trailing unterminated line at disconnect");
        (void)dispatch(buf);
        buf.clear();
      }
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    for (std::size_t nl = buf.find('\n'); nl <= kMaxLineBytes && !quit;
         nl = buf.find('\n')) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      quit = dispatch(line);
    }
    // Left unread, the first line in `buf` is over the cap, whether or
    // not its newline has arrived.
    if (!quit && buf.size() > kMaxLineBytes) {
      send_reply("error: request line longer than " +
                 std::to_string(kMaxLineBytes) + " bytes");
      break;
    }
  }

  {
    std::lock_guard lk(qmu);
    closing = true;
  }
  qcv.notify_all();
  worker.join();
  // FIN the peer now — the descriptor itself is closed later by reap()
  // on the accept thread, so stop() can never shut down a reused fd.
  ::shutdown(fd, SHUT_RDWR);
}

}  // namespace gridcast::serve
