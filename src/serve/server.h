#pragma once

/// @file server.h
/// The `vwsdk serve` daemon loop: read NDJSON requests
/// (serve/protocol.h) from stdin or a Unix domain socket, execute them
/// as bounded admitted tasks on the one ServiceApi's pool
/// (ThreadPool::try_submit), and write one response line per request.
///
/// Lifecycle: the loop runs until end-of-input, a `shutdown` request,
/// or SIGINT/SIGTERM; it then *drains* -- stops accepting, finishes
/// every in-flight request, flushes its responses, and returns 0.
/// Requests beyond the admission bounds are answered `overloaded`;
/// request lines already buffered when a shutdown arrives are answered
/// `shutting_down`.  Malformed input is always answered with an error
/// response, never with process death.

#include <string>

namespace vwsdk {

/// Configuration of one daemon run (the `vwsdk serve` flags).
struct ServeOptions {
  /// Unix domain socket path; "" serves stdin/stdout instead.  The path
  /// is created at startup (replacing a stale socket) and removed on
  /// exit.
  std::string socket_path;
  int max_inflight = 4;  ///< requests executing at once (>= 1), at most
                         ///< `threads` of them
  int max_queue = 16;    ///< accepted requests waiting beyond that (>= 0)
  int threads = 0;       ///< ServiceApi pool threads; <= 0 = auto
};

/// Run the daemon until end-of-input, `shutdown`, or a termination
/// signal; returns the process exit code (0 after a clean drain).
/// Installs SIGINT/SIGTERM handlers and ignores SIGPIPE for the
/// duration of the run.
int run_server(const ServeOptions& options);

}  // namespace vwsdk
