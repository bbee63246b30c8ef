#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/protocol.hpp"

namespace flowbench {

namespace {

using namespace std::chrono_literals;

std::runtime_error sys_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

/// Wait up to `limit` for `pid` to exit; its exit code, or -1.
int wait_exit(pid_t pid, std::chrono::milliseconds limit) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (true) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (done < 0) return -1;
    if (std::chrono::steady_clock::now() >= until) return -1;
    std::this_thread::sleep_for(2ms);
  }
}

std::string request_line(const char* op) {
  lsiq::service::Request request;
  request.op = op;
  return lsiq::service::format_request(request);
}

}  // namespace

Connection::Connection(const std::string& socket_path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof address.sun_path) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw sys_error("socket");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof address) != 0) {
    const std::runtime_error error = sys_error("connect " + socket_path);
    ::close(fd_);
    throw error;
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Connection::call(const std::string& request) {
  const std::string line = request + "\n";
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw sys_error("send");
    sent += static_cast<std::size_t>(n);
  }
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return response;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw sys_error("recv");
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

JsonObject parse_response(const std::string& line) {
  JsonObject object;
  if (!lsiq::util::json::parse_flat_object(line, &object)) {
    throw std::runtime_error("unparsable daemon response: " + line);
  }
  return object;
}

double number_field(const JsonObject& object, const std::string& key) {
  const auto* value = lsiq::util::json::find(
      object, key, lsiq::util::json::Value::Kind::kNumber);
  if (value == nullptr) throw std::runtime_error("response lacks " + key);
  return value->number;
}

std::string string_field(const JsonObject& object, const std::string& key) {
  const auto* value = lsiq::util::json::find(
      object, key, lsiq::util::json::Value::Kind::kString);
  return value == nullptr ? std::string() : value->text;
}

bool ok_field(const JsonObject& object) {
  const auto* value = lsiq::util::json::find(
      object, "ok", lsiq::util::json::Value::Kind::kBool);
  return value != nullptr && value->boolean;
}

Daemon::Daemon(const std::string& flowd, const std::string& dir,
               std::size_t lanes, std::size_t max_connections)
    : socket_(dir + "/flowd.sock") {
  char resolved[PATH_MAX];
  if (::realpath(flowd.c_str(), resolved) == nullptr) {
    throw sys_error("lsiq_flowd binary " + flowd);
  }
  const std::string binary = resolved;
  std::vector<std::string> args = {binary,      "--server",  "flowd.sock",
                                   "--store",   "store.jsonl", "--spool",
                                   "spool",     "--no-resume", "--jobs",
                                   std::to_string(lanes),       "--max-conns",
                                   std::to_string(max_connections)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw sys_error("fork");
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    if (::chdir(dir.c_str()) != 0) ::_exit(127);
    const int log = ::open("flowd.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }

  const auto until = std::chrono::steady_clock::now() + 10s;
  while (true) {
    try {
      Connection connection(socket_);
      if (ok_field(parse_response(connection.call(request_line("ping"))))) {
        return;
      }
    } catch (const std::runtime_error&) {
      // not listening yet
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("lsiq_flowd exited during start-up (see " +
                               dir + "/flowd.log)");
    }
    if (std::chrono::steady_clock::now() >= until) {
      throw std::runtime_error("lsiq_flowd did not answer ping");
    }
    std::this_thread::sleep_for(1ms);
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

double Daemon::cpu_ms() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 12th and 13th of them.
  std::istringstream fields(text.substr(text.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const {
  return flowbench::peak_rss_mb(std::to_string(pid_));
}

int Daemon::drain() {
  {
    Connection connection(socket_);
    if (!ok_field(parse_response(connection.call(request_line("drain"))))) {
      return -1;
    }
  }
  const int code = wait_exit(pid_, 60s);
  if (code != -1) pid_ = -1;
  return code;
}

double peak_rss_mb(const std::string& proc) {
  std::ifstream in("/proc/" + proc + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace flowbench
