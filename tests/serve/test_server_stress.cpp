/// Contention tests for the `vwsdk serve` daemon's multi-client socket
/// path: many clients hammering one daemon (admission rejections
/// interleaved with worker responses on the same sinks), and the
/// self-pipe signal path waking a poll() that would otherwise block
/// forever.  Suite names contain "Stress" so ctest runs these under the
/// `stress` label (tests/CMakeLists.txt).

#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"

namespace vwsdk {
namespace {

/// A blocking NDJSON client on the daemon's Unix socket.  Connection
/// retries until the daemon has bound the path; reads carry a timeout
/// so a daemon bug fails the test instead of hanging it.
class SocketClient {
 public:
  explicit SocketClient(const std::string& path) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) {
        break;
      }
      struct sockaddr_un addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
      if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        struct timeval timeout{30, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        return;
      }
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  ~SocketClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  void send_line(const std::string& line) {
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

  /// Read complete lines until `count` have arrived (or the receive
  /// timeout / EOF cuts the stream short).
  std::vector<std::string> read_lines(std::size_t count) {
    std::vector<std::string> lines;
    std::string buffer;
    char chunk[4096];
    while (lines.size() < count) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        break;  // timeout or EOF: return what we have, the test asserts
      }
      for (ssize_t i = 0; i < n; ++i) {
        if (chunk[i] == '\n') {
          lines.push_back(buffer);
          buffer.clear();
        } else {
          buffer += chunk[i];
        }
      }
    }
    return lines;
  }

 private:
  int fd_ = -1;
};

std::string unique_socket_path(const char* tag) {
  return cat("/tmp/vwsdk_stress_", tag, "_", ::getpid(), ".sock");
}

/// Eight clients firing 50 pings each against a daemon bounded well
/// below the offered load: every request must be answered exactly once
/// (pong or `overloaded`), with responses line-atomic despite the
/// admission rejections (reader thread) and completions (worker
/// threads) sharing each client's sink.
TEST(ServeDaemonStress, MultiClientStormAnswersEveryRequestExactlyOnce) {
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 50;
  const std::string path = unique_socket_path("storm");

  ServeOptions options;
  options.socket_path = path;
  options.max_inflight = 2;
  options.max_queue = 4;
  options.threads = 2;
  std::promise<int> exit_code;
  std::thread daemon(
      [&options, &exit_code] { exit_code.set_value(run_server(options)); });

  std::vector<std::thread> clients;
  std::vector<int> pongs(kClients, 0);
  std::vector<int> overloaded(kClients, 0);
  std::vector<int> answered(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([c, &path, &pongs, &overloaded, &answered] {
      SocketClient client(path);
      ASSERT_TRUE(client.connected());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        client.send_line(cat(R"({"v":1,"id":"c)", c, "-", i,
                             R"(","op":"ping"})"));
      }
      const std::vector<std::string> lines =
          client.read_lines(kRequestsPerClient);
      answered[static_cast<std::size_t>(c)] =
          static_cast<int>(lines.size());
      for (const std::string& line : lines) {
        // Line-atomicity check: every response is one complete JSON
        // object, never two interleaved halves.
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        if (line.find("\"pong\"") != std::string::npos) {
          ++pongs[static_cast<std::size_t>(c)];
        } else if (line.find("overloaded") != std::string::npos) {
          ++overloaded[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }

  int total_pongs = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(answered[static_cast<std::size_t>(c)], kRequestsPerClient)
        << "client " << c << " lost responses";
    EXPECT_EQ(pongs[static_cast<std::size_t>(c)] +
                  overloaded[static_cast<std::size_t>(c)],
              kRequestsPerClient)
        << "client " << c << " got a response that is neither pong nor "
        << "overloaded";
    total_pongs += pongs[static_cast<std::size_t>(c)];
  }
  EXPECT_GT(total_pongs, 0);  // the daemon did real work, not all refusals

  // A clean shutdown request drains the daemon and run_server returns 0.
  {
    SocketClient closer(path);
    ASSERT_TRUE(closer.connected());
    closer.send_line(R"({"v":1,"id":"bye","op":"shutdown"})");
    const std::vector<std::string> lines = closer.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"stopping\":true"), std::string::npos);
  }
  auto done = exit_code.get_future();
  ASSERT_EQ(done.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "daemon did not exit after a shutdown request";
  EXPECT_EQ(done.get(), 0);
  daemon.join();
}

/// SIGTERM while the daemon sits in an *infinite* poll: the self-pipe
/// must convert the signal into a poll event, with work accepted before
/// the signal still drained to completion.  Before the self-pipe this
/// only worked because poll timed out every 100 ms.
TEST(ServeDaemonStress, SignalWakesBlockedPollAndDrainsInflightWork) {
  const std::string path = unique_socket_path("signal");

  ServeOptions options;
  options.socket_path = path;
  options.max_inflight = 2;
  options.max_queue = 8;
  options.threads = 2;  // the pool runs the requests: two at once
  std::promise<int> exit_code;
  std::thread daemon(
      [&options, &exit_code] { exit_code.set_value(run_server(options)); });

  SocketClient client(path);
  ASSERT_TRUE(client.connected());

  // A slow in-flight request (100 ms ping) that the drain must finish.
  client.send_line(R"({"v":1,"id":"slow","op":"ping","delay_ms":100})");
  // A fast one to prove the daemon is fully up (handlers installed
  // before the listener starts accepting) before we raise the signal.
  client.send_line(R"({"v":1,"id":"fast","op":"ping"})");
  ASSERT_EQ(client.read_lines(1).size(), 1u);

  const auto raised_at = std::chrono::steady_clock::now();
  ASSERT_EQ(::raise(SIGTERM), 0);

  auto done = exit_code.get_future();
  ASSERT_EQ(done.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "SIGTERM did not wake the daemon's poll loop";
  EXPECT_EQ(done.get(), 0);
  const auto elapsed = std::chrono::steady_clock::now() - raised_at;
  // Generous bound: drain owes at most the 100 ms sleep plus scheduling
  // noise; anything near seconds would mean the wakeup path regressed
  // to timeout-polling.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            10'000);
  daemon.join();

  // The remaining response (slow ping) either arrived before the
  // daemon closed the connection or the descriptor is now at EOF --
  // but the daemon never dies mid-write.
  (void)client.read_lines(1);
}

}  // namespace
}  // namespace vwsdk
