#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/string_util.h"
#include "core/mapper_registry.h"
#include "core/serialize.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace vwsdk {

namespace {

/// Signal-to-loop channel, self-pipe style.  The handler body is
/// restricted to the async-signal-safe vocabulary -- a store to a
/// lock-free atomic flag and a `write(2)` to the pipe -- and the repo
/// lint (tools/vwsdk_lint.py, rule `signal-safety`) rejects anything
/// else creeping in.  Lock-free atomics (not `volatile sig_atomic_t`)
/// because the handler runs on whichever thread receives the signal
/// while the daemon loop reads the flag from another: sig_atomic_t is
/// signal-safe but NOT thread-safe, and TSan rightly flags it.  The
/// pipe write is what makes shutdown prompt: every event loop polls
/// the read end, so a signal arriving *during* poll() wakes it
/// immediately instead of racing the flag-check-then-block window.
static_assert(std::atomic<int>::is_always_lock_free,
              "lock-free atomics are required for async-signal-safety");
std::atomic<int> g_signal{0};
std::atomic<int> g_wake_fd{-1};  ///< self-pipe write end
/// Handlers between their load of `g_wake_fd` and the end of their
/// write.  ~WakePipe unpublishes the fd, then waits for this to reach 0
/// before closing, so a late signal never writes into a closed (or
/// reused) descriptor.
std::atomic<int> g_handlers_in_flight{0};

/// Every blocking wait goes through poll with this timeout.  Infinite
/// is deliberate: the self-pipe converts signals into poll events, so
/// a periodic timeout would only mask a missing wakeup path.  Should
/// the pipe ever fail to construct (fd exhaustion), WakePipe keeps
/// read_fd() == -1, poll ignores the entry, and the fallback timeout
/// below restores the old 100 ms signal-check cadence.
constexpr int kPollForever = -1;
constexpr int kPollFallbackMs = 100;

extern "C" void handle_signal(int signum) {
  g_signal = signum;
  ++g_handlers_in_flight;  // before the load: ~WakePipe waits on it
  const int fd = g_wake_fd;
  if (fd >= 0) {
    const char byte = 1;
    const ssize_t ignored = ::write(fd, &byte, 1);  // async-signal-safe
    (void)ignored;  // a full pipe still means a pending wakeup
  }
  --g_handlers_in_flight;
}

/// One response sink: a file descriptor plus the write lock that keeps
/// concurrent worker responses line-atomic.  Closes the descriptor when
/// the last reference (reader map or in-flight request) drops, so a
/// worker never writes to a recycled descriptor.
class ResponseSink {
 public:
  ResponseSink(int fd, bool owns_fd) : fd_(fd), owns_fd_(owns_fd) {}

  ~ResponseSink() {
    if (owns_fd_) {
      ::close(fd_);
    }
  }

  ResponseSink(const ResponseSink&) = delete;
  ResponseSink& operator=(const ResponseSink&) = delete;

  /// Write `line` plus a newline, restarting on EINTR and short writes.
  /// A vanished peer (EPIPE with SIGPIPE ignored) is silently dropped;
  /// the request was still executed.
  void write_line(const std::string& line) VWSDK_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    std::string out = line;
    out += '\n';
    const char* data = out.data();
    std::size_t left = out.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, data, left);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return;
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
  }

 private:
  const int fd_;       ///< set at construction, closed at destruction
  const bool owns_fd_;
  /// Serializes writes so concurrent worker responses stay
  /// line-atomic; the guarded state is the fd's stream position, not a
  /// member, hence no VWSDK_GUARDED_BY -- write_line is the only door.
  Mutex mutex_;
};

/// Accumulates raw reads and yields complete lines.  A line that grows
/// past kMaxRequestBytes without a newline is reported once as
/// oversized, then discarded up to the next newline -- the stream
/// recovers instead of buffering without bound.
class LineBuffer {
 public:
  /// Feed a chunk; invokes `on_line(line)` per complete line and
  /// `on_oversized()` once per oversized line.
  template <typename OnLine, typename OnOversized>
  void feed(const char* data, std::size_t size, const OnLine& on_line,
            const OnOversized& on_oversized) {
    for (std::size_t i = 0; i < size; ++i) {
      const char c = data[i];
      if (c == '\n') {
        if (skipping_) {
          skipping_ = false;
        } else {
          on_line(buffer_);
        }
        buffer_.clear();
        continue;
      }
      if (skipping_) {
        continue;
      }
      buffer_ += c;
      if (buffer_.size() > kMaxRequestBytes) {
        on_oversized();
        buffer_.clear();
        skipping_ = true;
      }
    }
  }

  /// A final unterminated line at end-of-input, "" if none.
  const std::string& pending() const { return buffer_; }

 private:
  std::string buffer_;
  bool skipping_ = false;
};

/// Execute one validated request against the service and return its
/// response line.  Never throws: every failure becomes an error
/// response with the classified code.
std::string execute_request(ServiceApi& api, const ServeRequest& request) {
  try {
    std::string payload;
    switch (request.op) {
      case ServeOp::kMap:
        payload = to_json(api.map(request.map));
        break;
      case ServeOp::kCompare:
        payload = to_json(api.compare(request.compare));
        break;
      case ServeOp::kChip:
        payload = to_json(api.chip(request.chip).plan, request.chip.batch);
        break;
      case ServeOp::kTraffic: {
        const TrafficResult traffic = api.traffic(request.traffic);
        payload = traffic.capacity_mode ? to_json(traffic.capacity)
                                        : to_json(traffic.report);
        break;
      }
      case ServeOp::kVerify:
        payload = to_json(api.verify(request.verify));
        break;
      case ServeOp::kMappers:
        payload = to_json(MapperRegistry::instance());
        break;
      case ServeOp::kStats:
        payload = to_json(api.stats());
        break;
      case ServeOp::kPing:
        if (request.delay_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(request.delay_ms));
        }
        payload = cat("{\"pong\":true,\"delay_ms\":", request.delay_ms, "}");
        break;
      case ServeOp::kShutdown:
        payload = "{\"stopping\":true}";  // answered inline by the reader
        break;
    }
    return ok_response(request.id, request.op, payload);
  } catch (const std::exception& e) {
    return error_response(request.id, classify_exception(e), e.what());
  }
}

/// The shared per-run state: one service, whose pool admits and runs
/// the requests, and one stop flag every reader consults.
class Server {
 public:
  explicit Server(const ServeOptions& options)
      : api_(options.threads, options.max_inflight, options.max_queue) {}

  bool stopping() const { return stopping_.load(); }

  /// Route one request line: protocol errors and `shutdown` are
  /// answered inline on the reader thread; everything else goes through
  /// admission (refusals become `overloaded`).  Lines that were already
  /// buffered behind a shutdown are answered `shutting_down`.
  void handle_line(const std::string& line,
                   const std::shared_ptr<ResponseSink>& sink) {
    ServeRequest request;
    try {
      request = parse_request(line);
    } catch (const ProtocolError& e) {
      sink->write_line(error_response(e.id(), e.code(), e.what()));
      return;
    }
    if (stopping_.load()) {
      sink->write_line(error_response(
          request.id, ErrorCode::kShuttingDown,
          "the daemon is draining and no longer accepts requests"));
      return;
    }
    if (request.op == ServeOp::kShutdown) {
      stopping_.store(true);
      sink->write_line(execute_request(api_, request));
      return;
    }
    // Constructing the task moves the request out, so keep the id for
    // the rejection path -- the refusal must still echo it.
    // The response is written by the reply, after the worker is idle
    // again, so a sequential client's next request finds it on top of
    // the idle stack (common/thread_pool.h).
    const std::string request_id = request.id;
    auto response = std::make_shared<std::string>();
    const bool admitted = api_.pool().try_submit(
        [this, request = std::move(request), response] {
          *response = execute_request(api_, request);
        },
        [sink, response] { sink->write_line(*response); });
    if (!admitted) {
      // One snapshot, so `busy` and `queued` describe the same instant.
      const AdmissionStats load = api_.pool().stats();
      sink->write_line(error_response(
          request_id, ErrorCode::kOverloaded,
          cat("admission queue full (", load.busy, " in flight, ",
              load.queued, " queued); retry later")));
    }
  }

  void handle_oversized(const std::shared_ptr<ResponseSink>& sink) {
    sink->write_line(error_response(
        "", ErrorCode::kTooLarge,
        cat("request line exceeds the ", kMaxRequestBytes, "-byte limit")));
  }

  void request_stop() { stopping_.store(true); }

  /// Finish every admitted request; responses flush as they complete.
  void drain() { api_.pool().drain(); }

 private:
  ServiceApi api_;
  std::atomic<bool> stopping_{false};
};

/// The self-pipe: created before the handlers are installed, polled by
/// every event loop.  Publishes its write end through `g_wake_fd` for
/// the signal handler; the read end is drained (non-blocking) whenever
/// poll reports it, turning any number of pending signals into one
/// wakeup.
class WakePipe {
 public:
  WakePipe() {
    if (::pipe(fds_) != 0) {
      fds_[0] = fds_[1] = -1;
      return;
    }
    for (const int fd : fds_) {
      const int flags = ::fcntl(fd, F_GETFL);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
    g_wake_fd = fds_[1];
  }

  ~WakePipe() {
    // Unpublish, then wait out any handler that loaded the old fd.  Both
    // are sequentially consistent: a handler whose increment this load
    // misses runs its own load later and reads -1.  A handler that
    // interrupts this thread finishes before the loop resumes, so the
    // wait cannot deadlock.
    g_wake_fd = -1;
    while (g_handlers_in_flight != 0) {
      std::this_thread::yield();
    }
    for (const int fd : fds_) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }

  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  /// The read end every event loop polls (-1 when construction
  /// failed; poll ignores negative fds by contract).
  int read_fd() const { return fds_[0]; }

  /// Infinite when the pipe works (signals become poll events),
  /// 100 ms polling as a degraded fallback when it does not.
  int poll_timeout() const {
    return fds_[0] >= 0 ? kPollForever : kPollFallbackMs;
  }

  /// Consume every pending wakeup byte (non-blocking).
  void drain() const {
    char buffer[64];
    while (fds_[0] >= 0 && ::read(fds_[0], buffer, sizeof(buffer)) > 0) {
    }
  }

 private:
  int fds_[2];
};

/// Read fd until EOF/shutdown/signal, feeding `buffer` and dispatching
/// lines to `server`; the wake pipe makes signal response prompt even
/// while blocked in poll.  Returns false only on a fatal read error.
bool pump_fd(Server& server, int fd, const WakePipe& wake,
             LineBuffer& buffer, const std::shared_ptr<ResponseSink>& sink) {
  while (true) {
    if (g_signal != 0) {
      server.request_stop();
      return true;
    }
    if (server.stopping()) {
      return true;
    }
    struct pollfd pfds[2];
    pfds[0] = {wake.read_fd(), POLLIN, 0};
    pfds[1] = {fd, POLLIN, 0};
    const int ready = ::poll(pfds, 2, wake.poll_timeout());
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      log_warn(cat("serve: poll failed: ", std::strerror(errno)));
      return false;
    }
    if (ready == 0) {
      continue;
    }
    if ((pfds[0].revents & POLLIN) != 0) {
      wake.drain();
      continue;  // loop top re-checks g_signal
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      log_warn(cat("serve: read failed: ", std::strerror(errno)));
      return false;
    }
    if (n == 0) {
      // End of input: a final unterminated line is still a request.
      if (!buffer.pending().empty()) {
        server.handle_line(buffer.pending(), sink);
      }
      return true;
    }
    buffer.feed(
        chunk, static_cast<std::size_t>(n),
        [&](const std::string& line) {
          if (!line.empty()) {
            server.handle_line(line, sink);
          }
        },
        [&] { server.handle_oversized(sink); });
  }
}

int run_stdio(Server& server, const WakePipe& wake) {
  auto sink = std::make_shared<ResponseSink>(STDOUT_FILENO, false);
  LineBuffer buffer;
  const bool ok = pump_fd(server, STDIN_FILENO, wake, buffer, sink);
  server.drain();
  return ok ? 0 : 1;
}

/// One connected socket client: its buffered reader state plus the
/// shared sink in-flight responses hold onto.
struct Client {
  LineBuffer buffer;
  std::shared_ptr<ResponseSink> sink;
};

int run_socket(Server& server, const WakePipe& wake,
               const std::string& path) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    log_warn(cat("serve: socket failed: ", std::strerror(errno)));
    return 1;
  }
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    log_warn(cat("serve: socket path longer than ",
                    sizeof(addr.sun_path) - 1, " bytes: ", path));
    ::close(listen_fd);
    return 1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket from a dead daemon
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd, 8) < 0) {
    log_warn(cat("serve: cannot listen on ", path, ": ",
                    std::strerror(errno)));
    ::close(listen_fd);
    return 1;
  }
  log_info(cat("serve: listening on ", path));

  std::map<int, Client> clients;
  bool ok = true;
  while (!server.stopping()) {
    if (g_signal != 0) {
      server.request_stop();
      break;
    }
    std::vector<struct pollfd> pfds;
    pfds.push_back({wake.read_fd(), POLLIN, 0});
    pfds.push_back({listen_fd, POLLIN, 0});
    for (const auto& [fd, client] : clients) {
      pfds.push_back({fd, POLLIN, 0});
    }
    const int ready = ::poll(pfds.data(), pfds.size(), wake.poll_timeout());
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      log_warn(cat("serve: poll failed: ", std::strerror(errno)));
      ok = false;
      break;
    }
    if (ready == 0) {
      continue;
    }
    if ((pfds[0].revents & POLLIN) != 0) {
      wake.drain();
      continue;  // loop top re-checks g_signal
    }
    if ((pfds[1].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) {
        clients[fd].sink = std::make_shared<ResponseSink>(fd, true);
      }
    }
    for (std::size_t i = 2; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const int fd = pfds[i].fd;
      auto it = clients.find(fd);
      if (it == clients.end()) {
        continue;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n > 0) {
        it->second.buffer.feed(
            chunk, static_cast<std::size_t>(n),
            [&](const std::string& line) {
              if (!line.empty()) {
                server.handle_line(line, it->second.sink);
              }
            },
            [&] { server.handle_oversized(it->second.sink); });
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      // EOF or error: flush any unterminated last line, then drop our
      // reference -- the sink closes the descriptor once in-flight
      // responses for this client finish.
      if (n == 0 && !it->second.buffer.pending().empty()) {
        server.handle_line(it->second.buffer.pending(), it->second.sink);
      }
      clients.erase(it);
    }
  }
  server.drain();
  clients.clear();
  ::close(listen_fd);
  ::unlink(path.c_str());
  return ok ? 0 : 1;
}

}  // namespace

int run_server(const ServeOptions& options) {
  VWSDK_REQUIRE(options.max_inflight >= 1,
                cat("--max-inflight must be >= 1 (got ",
                    options.max_inflight, ")"));
  VWSDK_REQUIRE(options.max_queue >= 0,
                cat("--max-queue must be >= 0 (got ", options.max_queue,
                    ")"));

  // Order matters: the pipe must exist (g_wake_fd published) before a
  // handler that writes to it can fire.
  const WakePipe wake;
  g_signal = 0;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = handle_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon

  Server server(options);
  if (options.socket_path.empty()) {
    return run_stdio(server, wake);
  }
  return run_socket(server, wake, options.socket_path);
}

}  // namespace vwsdk
