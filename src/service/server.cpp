#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "service/protocol.hpp"
#include "util/failpoint.hpp"

namespace lsiq::service {

namespace {

void write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a client that hung up mid-response must not SIGPIPE
    // the daemon; the failed send just ends this connection.
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("socket write failed: ") +
                    std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof address.sun_path) {
    throw IoError("socket path too long: " + path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

}  // namespace

// ---- SocketServer ----

SocketServer::SocketServer(FlowService& service, std::string socket_path,
                           SocketServerOptions options)
    : service_(service),
      path_(std::move(socket_path)),
      options_(options),
      slots_(std::max<std::size_t>(options.max_connections, 1)) {
  for (std::atomic<int>& slot : slots_) slot.store(-1);
  const sockaddr_un address = make_address(path_);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw IoError(std::string("cannot create socket: ") +
                  std::strerror(errno));
  }
  ::unlink(path_.c_str());  // a stale socket file from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("cannot listen on " + path_ + ": " + detail);
  }
}

SocketServer::~SocketServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(path_.c_str());
}

void SocketServer::stop() {
  stop_.store(true);
  // shutdown() unblocks a blocked accept(); close alone does not,
  // reliably, on all kernels. Connection shutdowns make every blocked
  // handler read see EOF. All of it is atomic loads/stores plus
  // shutdown(2), so a signal handler can call this safely.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (std::atomic<int>& slot : slots_) {
    const int fd = slot.load();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

void SocketServer::serve() {
  while (!stop_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stop_.load()) break;
      std::unique_lock<std::mutex> lock(mutex_);
      idle_cv_.wait(lock, [this] { return active_ == 0; });
      throw IoError(std::string("accept failed: ") + std::strerror(errno));
    }
    try {
      LSIQ_FAILPOINT("service.accept");
    } catch (const std::exception&) {
      // An injected accept failure drops THIS client; the daemon keeps
      // serving.
      ::close(fd);
      continue;
    }

    // Claim a connection slot. No free slot means max_connections
    // handlers are in flight — refuse with a structured, parseable
    // error line instead of making this client queue behind (possibly
    // hung) peers.
    std::size_t slot = slots_.size();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].load() < 0) {
          slot = i;
          slots_[i].store(fd);
          ++active_;
          break;
        }
      }
    }
    if (slot == slots_.size()) {
      try {
        write_all(fd,
                  error_response(
                      ErrorCode::kQueueFull,
                      "connection limit reached (" +
                          std::to_string(slots_.size()) +
                          " active); retry shortly") +
                      "\n");
      } catch (const std::exception&) {
        // The refused client hung up first; nothing to tell it.
      }
      ::close(fd);
      continue;
    }
    std::thread(&SocketServer::run_connection, this, fd, slot).detach();
  }
  // Join in spirit: handlers are detached, so wait for every one to
  // release its slot before returning — after this the server object
  // can be destroyed safely.
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return active_ == 0; });
}

void SocketServer::run_connection(int fd, std::size_t slot) {
  bool keep_serving = true;
  try {
    keep_serving = handle_connection(fd);
  } catch (const std::exception&) {
    // A torn connection drops THIS client; the daemon keeps serving.
  }
  if (!keep_serving) stop();  // before the slot release: see below
  slots_[slot].store(-1);
  ::close(fd);
  // Last touch of the object: once active_ hits zero under the lock,
  // serve() may return and the server be destroyed, so the decrement
  // and notify must be the final statements of this thread.
  std::lock_guard<std::mutex> lock(mutex_);
  --active_;
  idle_cv_.notify_all();
}

bool SocketServer::handle_connection(int fd) {
  std::string buffer;
  std::size_t scanned = 0;  // buffer[0, scanned) holds no newline
  char chunk[4096];
  while (true) {
    if (options_.idle_timeout_ms > 0) {
      // The idle timer arms between reads, so a slow request stream is
      // fine; only silence past the bound trips it.
      pollfd poll_fd{};
      poll_fd.fd = fd;
      poll_fd.events = POLLIN;
      int ready;
      do {
        ready = ::poll(&poll_fd, 1,
                       static_cast<int>(options_.idle_timeout_ms));
      } while (ready < 0 && errno == EINTR);
      if (ready == 0) {
        // Structured refusal, not a hang: tell the idle client why it
        // is being cut off, then free the slot.
        write_all(fd, error_response(
                          ErrorCode::kDeadline,
                          "idle for over " +
                              std::to_string(options_.idle_timeout_ms) +
                              " ms; reconnect to continue") +
                          "\n");
        return true;
      }
      if (ready < 0) return true;  // torn connection: drop it
    }
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return true;  // torn connection: drop it, keep serving
    }
    if (n == 0) return true;  // client done
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((newline = buffer.find('\n', scanned)) != std::string::npos &&
           newline <= kMaxRequestLine) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      scanned = 0;
      if (line.empty()) continue;
      std::string response;
      const bool keep_serving = handle_line(line, &response);
      write_all(fd, response);
      if (!keep_serving) return false;
    }
    if (std::min(newline, buffer.size()) > kMaxRequestLine) {
      write_all(fd, error_response(
                        ErrorCode::kParse,
                        "request line longer than " +
                            std::to_string(kMaxRequestLine) +
                            " bytes; connection closed") +
                        "\n");
      return true;
    }
    scanned = buffer.size();
  }
}

bool SocketServer::handle_line(const std::string& line, std::string* out) {
  const std::optional<Request> request = parse_request(line);
  if (!request.has_value()) {
    *out += error_response(ErrorCode::kParse, "malformed request line");
    *out += '\n';
    return true;
  }
  try {
    if (request->op == "submit") {
      std::uint64_t id = 0;
      if (!request->spec.empty()) {
        id = service_.submit(request->spec, request->priority,
                             request->deadline_ms);
      } else if (!request->spec_text.empty()) {
        id = service_.submit_inline(request->spec_text, request->priority,
                                    request->deadline_ms);
      } else {
        *out += error_response(ErrorCode::kInvalidSpec,
                               "submit needs spec or spec_text");
        *out += '\n';
        return true;
      }
      // A resumed job is done before submit() returns, so report the
      // job's actual state, not an assumed "queued".
      const std::optional<JobInfo> info = service_.status(id);
      *out += submit_response(id, info.has_value() ? info->state
                                                   : JobState::kQueued);
      *out += '\n';
      return true;
    }
    if (request->op == "status" || request->op == "result" ||
        request->op == "cancel") {
      if (!request->has_job) {
        *out += error_response(ErrorCode::kParse,
                               request->op + " needs a job id");
        *out += '\n';
        return true;
      }
      const std::optional<JobInfo> info = service_.status(request->job);
      if (!info.has_value()) {
        *out += error_response(ErrorCode::kNotFound,
                               "no job with id " +
                                   std::to_string(request->job));
        *out += '\n';
        return true;
      }
      if (request->op == "status") {
        *out += job_response(*info);
      } else if (request->op == "result") {
        if (info->state != JobState::kDone) {
          *out += error_response(
              ErrorCode::kNotFound,
              "job " + std::to_string(request->job) + " is " +
                  job_state_name(info->state) + ", not finished");
        } else {
          *out += result_response(*info);
        }
      } else {
        *out += cancel_response(request->job, service_.cancel(request->job));
      }
      *out += '\n';
      return true;
    }
    if (request->op == "list") {
      const std::vector<JobInfo> jobs = service_.list();
      *out += list_header_response(jobs.size());
      *out += '\n';
      for (const JobInfo& info : jobs) {
        *out += job_response(info);
        *out += '\n';
      }
      return true;
    }
    if (request->op == "stats") {
      *out += stats_response(service_.stats());
      *out += '\n';
      return true;
    }
    if (request->op == "ping") {
      *out += ping_response();
      *out += '\n';
      return true;
    }
    if (request->op == "drain") {
      service_.drain();  // blocks until every admitted job is done
      *out += ok_response();
      *out += '\n';
      return false;
    }
    if (request->op == "shutdown") {
      service_.shutdown();
      *out += ok_response();
      *out += '\n';
      return false;
    }
    *out += error_response(ErrorCode::kParse, "unknown op: " + request->op);
    *out += '\n';
    return true;
  } catch (const Error& e) {
    *out += error_response(e.code(), e.what());
    *out += '\n';
    return true;
  } catch (const std::exception& e) {
    *out += error_response(ErrorCode::kUnknown, e.what());
    *out += '\n';
    return true;
  }
}

// ---- SocketClient ----

SocketClient::SocketClient(const std::string& socket_path) {
  const sockaddr_un address = make_address(socket_path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw IoError(std::string("cannot create socket: ") +
                  std::strerror(errno));
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw IoError("cannot connect to " + socket_path + ": " + detail);
  }
}

SocketClient::~SocketClient() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketClient::send_line(const std::string& line) {
  write_all(fd_, line + "\n");
}

std::string SocketClient::read_line() {
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("socket read failed: ") +
                    std::strerror(errno));
    }
    if (n == 0) {
      throw IoError("connection closed by server");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace lsiq::service
