#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

#include "cpp/bench.h"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kStartTimeoutMs = 150000;

Status Errno(const std::string& what) {
  return Status::IOError("perfbench: " + what + ": " + std::strerror(errno));
}

/// Waits up to `timeout_ms` for `pid` to exit; true once reaped.
bool ReapWithin(pid_t pid, int timeout_ms) {
  Clock::time_point start = Clock::now();
  while (true) {
    int status = 0;
    pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid || (done < 0 && errno == ECHILD)) return true;
    if (MsSince(start) > timeout_ms) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& bdi, const std::vector<std::string>& args,
    size_t threads, const std::string& log_path) {
  // Everything the child needs is built before fork(): only
  // async-signal-safe calls are allowed between fork and exec.
  std::vector<std::string> argv_strings = {bdi, "serve"};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_strings) argv.push_back(arg.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BDI_NUM_THREADS=", 16) != 0) env_strings.push_back(*e);
  }
  env_strings.push_back("BDI_NUM_THREADS=" + std::to_string(threads));
  std::vector<char*> envp;
  for (std::string& var : env_strings) envp.push_back(var.data());
  envp.push_back(nullptr);

  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) return Errno("open " + log_path);
  int out[2];
  if (::pipe(out) != 0) {
    ::close(log_fd);
    return Errno("pipe");
  }
  auto process = std::unique_ptr<ServerProcess>(new ServerProcess());
  process->started_ = Clock::now();
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    ::close(out[0]);
    ::close(out[1]);
    return Errno("fork");
  }
  if (pid == 0) {
    // The server must not outlive the runner, even when the runner dies.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::close(log_fd);
    ::execve(bdi.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(out[1]);
  ::close(log_fd);
  process->pid_ = pid;

  // The server prints "listening on <port>" once its bootstrap finished.
  std::string text;
  const std::string banner = "listening on ";
  auto banner_complete = [&]() {
    size_t at = text.find(banner);
    return at != std::string::npos && text.find('\n', at) != std::string::npos;
  };
  while (!banner_complete()) {
    pollfd pfd{out[0], POLLIN, 0};
    int remaining = kStartTimeoutMs - static_cast<int>(MsSince(process->started_));
    if (remaining <= 0 || ::poll(&pfd, 1, remaining) <= 0) {
      ::close(out[0]);
      return Status::IOError("perfbench: bdi serve did not start; see " +
                             log_path);
    }
    char chunk[256];
    ssize_t n = ::read(out[0], chunk, sizeof(chunk));
    if (n <= 0) {
      ::close(out[0]);
      return Status::IOError("perfbench: bdi serve exited at start; see " +
                             log_path);
    }
    text.append(chunk, static_cast<size_t>(n));
  }
  ::close(out[0]);
  process->port_ = std::stoi(text.substr(text.find(banner) + banner.size()));
  return process;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ReapWithin(pid_, 10000);
  }
}

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

Status ServerProcess::Shutdown() {
  if (pid_ <= 0) return Status::OK();
  {
    BDI_ASSIGN_OR_RETURN(std::unique_ptr<Connection> connection,
                         Connection::Open(port_));
    BDI_ASSIGN_OR_RETURN(std::string bye,
                         connection->Call("{\"op\":\"shutdown\"}"));
    if (bye.find("\"bye\":true") == std::string::npos) {
      return Status::Internal("perfbench: unexpected shutdown answer " + bye);
    }
  }
  bool reaped = ReapWithin(pid_, 30000);
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ReapWithin(pid_, 10000);
  }
  pid_ = -1;
  return reaped ? Status::OK()
                : Status::Internal("perfbench: bdi serve did not exit");
}

Result<std::unique_ptr<Connection>> Connection::Open(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  auto connection = std::unique_ptr<Connection>(new Connection(fd));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("connect to port " + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return connection;
}

Connection::~Connection() { ::close(fd_); }

Status Connection::Send(const std::string& line) {
  std::string data = line + "\n";
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<bool> Connection::Receive(int flags) {
  char chunk[65536];
  ssize_t n = ::recv(fd_, chunk, sizeof(chunk), flags);
  if (n == 0) return Status::IOError("perfbench: server closed the connection");
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return false;
    return Errno("recv");
  }
  buffer_.append(chunk, static_cast<size_t>(n));
  return true;
}

Result<bool> Connection::WaitReadable(std::chrono::nanoseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (buffer_.find('\n') == std::string::npos) {
    if (busy_poll_) {
      BDI_RETURN_IF_ERROR(Receive(MSG_DONTWAIT).status());
      if (Clock::now() >= deadline) break;
      continue;
    }
    // ppoll: the open-loop reader sleeps until a due time with sub-ms
    // precision, which poll's millisecond timeout cannot express.
    const int64_t ns = std::max<int64_t>(
        0, std::chrono::nanoseconds(deadline - Clock::now()).count());
    const timespec wait{static_cast<time_t>(ns / 1000000000),
                        static_cast<long>(ns % 1000000000)};
    pollfd pfd{fd_, POLLIN, 0};
    int ready = ::ppoll(&pfd, 1, &wait, nullptr);
    if (ready < 0 && errno != EINTR) return Errno("poll");
    if (ready <= 0) break;
    BDI_RETURN_IF_ERROR(Receive(0).status());
  }
  return buffer_.find('\n') != std::string::npos;
}

Result<std::string> Connection::ReadLine(int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (buffer_.find('\n') == std::string::npos) {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) {
      return Status::Unavailable("perfbench: response timed out");
    }
    BDI_ASSIGN_OR_RETURN(bool complete, WaitReadable(deadline - now));
    (void)complete;
  }
  size_t newline = buffer_.find('\n');
  std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  return line;
}

Result<std::string> Connection::Call(const std::string& line, int timeout_ms) {
  BDI_RETURN_IF_ERROR(Send(line));
  return ReadLine(timeout_ms);
}

Result<std::string> WaitForStats(Connection* connection) {
  return connection->Call("{\"op\":\"stats\"}");
}

}  // namespace perfbench
