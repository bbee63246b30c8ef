// An lsiq_flowd process private to one benchmark run, and a blocking
// line-protocol client for it (src/service/protocol.hpp).
#pragma once

#include <sys/types.h>

#include <map>
#include <string>

#include "util/json.hpp"

namespace flowbench {

using JsonObject = std::map<std::string, lsiq::util::json::Value>;

/// One client connection. Throws std::runtime_error on any socket error.
class Connection {
 public:
  explicit Connection(const std::string& socket_path);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Send one request line, return the one-line response.
  std::string call(const std::string& request);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Parse a response line; throws std::runtime_error when it is not a flat
/// JSON object.
JsonObject parse_response(const std::string& line);
double number_field(const JsonObject& object, const std::string& key);
std::string string_field(const JsonObject& object, const std::string& key);
bool ok_field(const JsonObject& object);

/// A daemon started in its own directory `dir` (socket, journal store and
/// spool all live there) with resume off. The constructor returns once a
/// `ping` is answered; the destructor kills a daemon that was not drained.
class Daemon {
 public:
  Daemon(const std::string& flowd, const std::string& dir, std::size_t lanes,
         std::size_t max_connections);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket_path() const { return socket_; }

  /// User + system CPU of the daemon process so far, in ms.
  [[nodiscard]] double cpu_ms() const;
  /// VmHWM of the daemon process, in MB.
  [[nodiscard]] double peak_rss_mb() const;

  /// Request `drain`, wait for the process to exit and return its exit
  /// code (-1 when it did not exit cleanly within the time limit).
  int drain();

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// VmHWM in MB of a process ("self" or a pid).
double peak_rss_mb(const std::string& proc);

}  // namespace flowbench
