// Load generator for the vwsdk serve benchmark.
//
// Connects to a running `vwsdk serve --socket` daemon and sends request
// lines from a file in closed loop over one connection: the next request
// goes out only when the previous reply arrived.  One request in flight
// leaves the host's other cores to the daemon's pools and to other
// tenants, so the figures time the daemon rather than the scheduler.  Optionally keeps a
// second, background stream busy on its own connections until the main
// stream is done; background requests still unanswered then are
// abandoned.  It gives up on the main stream when requests are
// outstanding and no reply has come for kStallLimit; those requests are
// written as unanswered.
//
// Every answered request becomes one tab-separated line on --out:
//   stream index due_ns sent_ns recv_ns response
// with stream "m" (main) or "b" (background) and times in nanoseconds
// from the start of the phase.  An unanswered main request is written
// with recv_ns = -1.  A request is due when its connection became free.
//
// Usage:
//   vwbench_drive --socket PATH --out FILE --requests FILE
//                 [--for SECONDS] [--background FILE --bg-conns K]

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

/// Longer than any request of the benchmark takes, a ResNet-18 verify
/// under contention included; a daemon this long silent has hung.
constexpr std::int64_t kStallLimitNs = 30'000'000'000;

std::int64_t now_ns(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// The id of a request or response line: both start {"v":1,"id":"...".
std::string line_id(const std::string& line) {
  static const std::string kPrefix = "{\"v\":1,\"id\":\"";
  if (line.compare(0, kPrefix.size(), kPrefix) != 0) {
    return "";
  }
  const std::size_t end = line.find('"', kPrefix.size());
  return end == std::string::npos
             ? ""
             : line.substr(kPrefix.size(), end - kPrefix.size());
}

int connect_to(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
  }
  return fd;
}

void write_all(int fd, const std::string& text) {
  const char* data = text.data();
  std::size_t left = text.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("write: ") + std::strerror(errno));
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
}

struct Record {
  std::int64_t due = 0;
  std::int64_t sent = -1;
  std::int64_t recv = -1;
  std::string response;
};

/// One request stream: its lines, their records, and where ids point.
struct Stream {
  std::vector<std::string> lines;
  std::vector<Record> records;
  std::map<std::string, std::size_t> index_of;
  std::size_t next = 0;        ///< next line to send
  std::size_t answered = 0;

  explicit Stream(std::vector<std::string> in) : lines(std::move(in)) {
    records.resize(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      index_of[line_id(lines[i])] = i;
    }
  }
};

struct Conn {
  int fd = -1;
  Stream* stream = nullptr;
  bool busy = false;           ///< a request is outstanding
  std::int64_t free_since = 0; ///< when it became free
  std::string buffer;
};

struct Args {
  std::string socket, out, requests, background;
  int bg_conns = 0;
  double for_s = 0.0;     ///< stop sending after this long
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::runtime_error("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--socket") args.socket = value;
    else if (flag == "--out") args.out = value;
    else if (flag == "--requests") args.requests = value;
    else if (flag == "--background") args.background = value;
    else if (flag == "--bg-conns") args.bg_conns = std::stoi(value);
    else if (flag == "--for") args.for_s = std::stod(value);
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (args.socket.empty() || args.out.empty() || args.requests.empty() ||
      args.bg_conns < 0) {
    throw std::runtime_error(
        "usage: vwbench_drive --socket PATH --out FILE --requests FILE "
        "[--for S] [--background FILE "
        "--bg-conns K]");
  }
  return args;
}

void send_request(Conn& conn, std::size_t index, std::int64_t due,
                  Clock::time_point start) {
  Stream& stream = *conn.stream;
  write_all(conn.fd, stream.lines[index] + "\n");
  stream.records[index].due = due;
  stream.records[index].sent = now_ns(start);
  conn.busy = true;
}

/// Consume complete response lines buffered on `conn`.
void take_responses(Conn& conn, Clock::time_point start) {
  std::size_t pos = 0;
  for (std::size_t nl; (nl = conn.buffer.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    std::string line = conn.buffer.substr(pos, nl - pos);
    const auto it = conn.stream->index_of.find(line_id(line));
    if (it == conn.stream->index_of.end()) {
      throw std::runtime_error("response with an unknown id: " + line);
    }
    Record& record = conn.stream->records[it->second];
    record.recv = now_ns(start);
    record.response = std::move(line);
    ++conn.stream->answered;
    conn.busy = false;
    conn.free_since = record.recv;
  }
  conn.buffer.erase(0, pos);
}

int run(const Args& args) {
  Stream main_stream(read_lines(args.requests));
  Stream background(args.background.empty() ? std::vector<std::string>{}
                                            : read_lines(args.background));

  std::vector<Conn> conns;
  for (int i = 0; i < args.bg_conns; ++i) {
    conns.push_back({connect_to(args.socket), &background, false, 0, ""});
  }
  conns.push_back({connect_to(args.socket), &main_stream, false, 0, ""});

  const Clock::time_point start = Clock::now();
  const std::int64_t stop_sending =
      args.for_s > 0 ? static_cast<std::int64_t>(args.for_s * 1e9) : -1;
  // When the main stream last made progress: a reply, or a send while
  // nothing of it was outstanding.
  std::int64_t last_progress = 0;
  std::vector<pollfd> pfds(conns.size());

  while (main_stream.answered < main_stream.next ||
         main_stream.next < main_stream.lines.size()) {
    std::int64_t now = now_ns(start);
    if (main_stream.answered < main_stream.next &&
        now - last_progress > kStallLimitNs) {
      std::cerr << "vwbench_drive: no reply for "
                << kStallLimitNs / 1'000'000'000 << " s; giving up with "
                << main_stream.next - main_stream.answered
                << " request(s) unanswered\n";
      break;
    }
    if (stop_sending >= 0 && now >= stop_sending &&
        main_stream.next < main_stream.lines.size()) {
      main_stream.lines.resize(main_stream.next);  // send nothing more
      main_stream.records.resize(main_stream.next);
      continue;
    }
    // Send the next request on every free connection.
    if (main_stream.answered == main_stream.next) {
      last_progress = now;
    }
    for (Conn& conn : conns) {
      if (!conn.busy && conn.stream->next < conn.stream->lines.size()) {
        send_request(conn, conn.stream->next++, conn.free_since, start);
      }
    }

    // Wait for replies; wake now and then to check for a stall.
    const timespec timeout{0, 50'000'000};
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = {conns[i].fd, POLLIN, 0};
    }
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }
    const std::size_t answered_before = main_stream.answered;
    for (std::size_t i = 0; ready > 0 && i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      char chunk[65536];
      const ssize_t n = ::read(conns[i].fd, chunk, sizeof(chunk));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) {
          continue;
        }
        throw std::runtime_error("the daemon closed a connection");
      }
      conns[i].buffer.append(chunk, static_cast<std::size_t>(n));
      take_responses(conns[i], start);
    }
    if (main_stream.answered > answered_before) {
      last_progress = now_ns(start);
    }
  }

  std::ofstream out(args.out);
  const auto dump = [&out](const char* name, const Stream& stream,
                           bool with_unanswered) {
    for (std::size_t i = 0; i < stream.next; ++i) {
      const Record& r = stream.records[i];
      if (r.recv < 0 && !with_unanswered) {
        continue;
      }
      out << name << '\t' << i << '\t' << r.due << '\t' << r.sent << '\t'
          << r.recv << '\t' << r.response << '\n';
    }
  };
  dump("m", main_stream, true);
  dump("b", background, false);
  out.close();
  for (const Conn& conn : conns) {
    ::close(conn.fd);
  }
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "vwbench_drive: " << e.what() << '\n';
    return 1;
  }
}
