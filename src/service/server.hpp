// UNIX-domain socket transport for the flow service.
//
// SocketServer owns the listening socket of one FlowService and serves
// each accepted connection on its own thread, bounded by
// SocketServerOptions::max_connections. Per-connection threads exist for
// *isolation*, not throughput — every request except drain is
// sub-millisecond (job execution is async on the service's worker
// lanes), but a client that connects and then stalls mid-line used to
// wedge the old sequential accept loop for every other client. Now a
// stalled client costs one bounded slot:
//
//   - Over the max_connections bound, a new connection is refused with a
//     structured queue_full error line and closed — a parseable refusal,
//     never a silent hang behind a hung peer.
//   - With idle_timeout_ms set, a connection that sends nothing for that
//     long is answered with a structured deadline error line and closed
//     (the poll(2)-based timer arms between requests, so a slow *stream*
//     of requests is fine; only silence trips it).
//
// The loop exits after answering a drain/shutdown request (drain
// finishes the queue first, shutdown cancels it) and joins every
// in-flight connection before serve() returns. FlowService is itself
// thread-safe, so concurrent request handlers need no extra locking.
//
// The "service.accept" failpoint fires right after accept(): an injected
// error drops that connection (client sees EOF) and the loop continues —
// how CI proves a misbehaving client cannot take the daemon down.
//
// SocketClient is the matching blocking client (used by lsiq_flow's
// client mode and the tests): connect, send_line, read_line.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "service/service.hpp"

namespace lsiq::service {

/// The longest request line a connection may send — the same 1 MiB bound
/// the result-store journal is reloaded under. Real requests are a spec
/// path or an inline spec of a few kilobytes; a stream that runs past the
/// cap without a newline is answered with a structured parse error and
/// closed instead of growing the daemon's memory.
inline constexpr std::size_t kMaxRequestLine = flow::kMaxJsonlLine;

struct SocketServerOptions {
  /// Concurrent-connection bound; connection max_connections + 1 gets a
  /// structured queue_full refusal instead of queueing behind the rest.
  std::size_t max_connections = 8;

  /// Per-connection idle read timeout in milliseconds; 0 = wait forever.
  /// A connection idle past the bound is answered with a structured
  /// deadline error and closed, freeing its slot.
  std::size_t idle_timeout_ms = 0;
};

class SocketServer {
 public:
  /// Binds and listens on `socket_path` (unlinking a stale socket file
  /// first). Throws IoError when the socket cannot be created or bound.
  SocketServer(FlowService& service, std::string socket_path,
               SocketServerOptions options = {});

  /// Closes the listening socket and unlinks the socket file.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Accept-and-serve until a drain or shutdown request has been
  /// answered (or stop() is called), then join every in-flight
  /// connection. drain finishes the queue before the loop exits;
  /// shutdown cancels it.
  void serve();

  /// Unblock serve() from another thread. Async-signal-safe (atomic
  /// stores plus shutdown(2) calls — signal handlers route here): it
  /// shuts down the listening socket and every active connection, so
  /// blocked reads see EOF and their handler threads wind down.
  void stop();

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return path_;
  }

 private:
  /// Handler-thread body: serve the connection, release its slot, and
  /// trigger loop exit after a drain/shutdown answer.
  void run_connection(int fd, std::size_t slot);

  /// Serve one connection; returns false when the loop should exit.
  bool handle_connection(int fd);

  /// Answer one request line; appends response lines to `out` and
  /// returns false when the loop should exit after responding.
  bool handle_line(const std::string& line, std::string* out);

  FlowService& service_;
  std::string path_;
  SocketServerOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};

  /// One slot per admissible connection, holding its fd (-1 = free).
  /// Atomics so stop() can shut every active fd down from a signal
  /// handler without taking a lock.
  std::vector<std::atomic<int>> slots_;

  /// serve() waits for this to reach zero before returning, so no
  /// handler thread outlives the server object.
  std::size_t active_ = 0;
  std::mutex mutex_;
  std::condition_variable idle_cv_;
};

class SocketClient {
 public:
  /// Connects to a SocketServer; throws IoError when the socket is
  /// missing or refuses.
  explicit SocketClient(const std::string& socket_path);
  ~SocketClient();

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  /// Send one request line ('\n' appended). Throws IoError on failure.
  void send_line(const std::string& line);

  /// Read one response line. Throws IoError on EOF / failure — the
  /// server always answers a well-formed request, so EOF mid-exchange
  /// means the connection was dropped.
  std::string read_line();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace lsiq::service
