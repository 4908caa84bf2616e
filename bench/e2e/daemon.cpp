#include "daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace proteus::bench_e2e {

namespace {

constexpr int kIoTimeoutMs = 30000;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl");
  }
}

/// Waits until `fd` is ready for `events`; throws after kIoTimeoutMs.
void wait_ready(int fd, short events) {
  pollfd p{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&p, 1, kIoTimeoutMs);
    if (rc > 0) return;
    if (rc == 0) throw std::runtime_error("proteusd: no progress for 30 s");
    if (errno != EINTR) fail("poll");
  }
}

/// Writes as much of data[*off..] as the socket takes without blocking.
void write_some(int fd, std::string_view data, std::size_t* off) {
  while (*off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + *off, data.size() - *off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      *off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      fail("proteusd: send");
    }
  }
}

/// One read of what the socket holds, appended to `in`. Returns false
/// when nothing was available; throws on EOF or error.
bool read_some(int fd, std::string* in) {
  constexpr std::size_t kChunk = 1 << 18;
  const std::size_t old = in->size();
  in->resize(old + kChunk);
  for (;;) {
    const ssize_t n = ::read(fd, in->data() + old, kChunk);
    if (n > 0) {
      in->resize(old + static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) throw std::runtime_error("proteusd closed the connection");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      in->resize(old);
      return false;
    }
    if (errno != EINTR) fail("proteusd: read");
  }
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    fail("connect to proteusd");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  set_nonblocking(fd);
  return fd;
}

}  // namespace

Daemon::Daemon(const std::string& binary) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) fail("pipe2");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  std::string port_arg = "0";
  std::string workers_arg = std::to_string(kConnections);
  std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                             const_cast<char*>("--port"), port_arg.data(),
                             const_cast<char*>("--workers"),
                             workers_arg.data(), nullptr};
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipefd[1]);
  announce_fd_ = pipefd[0];
  if (rc != 0) {
    pid_ = -1;
    reap();
    errno = rc;
    fail("spawn " + binary);
  }

  try {
    // "proteusd listening on <port>\n" on stdout.
    std::string announce;
    while (announce.find('\n') == std::string::npos) {
      wait_ready(announce_fd_, POLLIN);
      char buf[256];
      const ssize_t n = ::read(announce_fd_, buf, sizeof buf);
      if (n == 0) throw std::runtime_error("proteusd exited before listening");
      if (n < 0 && errno != EINTR) fail("read proteusd announce");
      if (n > 0) announce.append(buf, static_cast<std::size_t>(n));
    }
    const std::string prefix = "proteusd listening on ";
    if (announce.rfind(prefix, 0) != 0) {
      throw std::runtime_error("unexpected proteusd announce: " + announce);
    }
    const int port = std::stoi(announce.substr(prefix.size()));
    for (int& fd : fds_) fd = connect_loopback(port);
  } catch (...) {
    reap();
    throw;
  }
}

Daemon::~Daemon() {
  try {
    stop();
  } catch (...) {
    // reap() below kills a daemon that did not take the shutdown.
  }
  reap();
}

std::string Daemon::call(int c, const std::string& line) {
  const int fd = fds_[c];
  std::size_t off = 0;
  write_some(fd, line, &off);
  while (off < line.size()) {
    wait_ready(fd, POLLOUT);
    write_some(fd, line, &off);
  }
  std::string in;
  std::size_t scanned = 0;
  for (;;) {
    wait_ready(fd, POLLIN);
    if (!read_some(fd, &in)) continue;
    const std::size_t nl = in.find('\n', scanned);
    if (nl != std::string::npos) {
      in.resize(nl);
      return in;
    }
    scanned = in.size();
  }
}

ProcSample Daemon::sample() const {
  ProcSample s;
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) {
    throw std::runtime_error("cannot read /proc stat of proteusd");
  }
  // Fields after "(comm)": state is field 3, utime 14, stime 15.
  std::istringstream fields(text.substr(paren + 1));
  std::string field;
  double ticks = 0;
  for (int f = 3; f <= 15 && fields >> field; ++f) {
    if (f >= 14) ticks += std::stod(field);
  }
  s.cpu_ms = ticks * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));

  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      s.hwm_mb = std::stod(line.substr(6)) / 1024.0;
    }
  }
  return s;
}

void Daemon::stop() {
  if (fds_[0] < 0) return;
  const std::string reply = call(0, "{\"op\":\"shutdown\"}\n");
  if (reply.find("\"stopping\":true") == std::string::npos) {
    throw std::runtime_error("proteusd refused shutdown: " + reply);
  }
  for (int& fd : fds_) {
    ::close(fd);
    fd = -1;
  }
}

void Daemon::reap() {
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (pid_ > 0) {
    // Up to 5 s for a clean exit, then SIGKILL; always waited for.
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 500 && !exited; ++i) {
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
  }
  if (announce_fd_ >= 0) ::close(announce_fd_);
  announce_fd_ = -1;
}

LoopStats closed_loop(Daemon& daemon, const Workload& workload,
                      std::uint64_t first, std::uint64_t count,
                      Clock::time_point deadline, const ReplyCheck& check,
                      std::uint64_t window) {
  struct Slot {
    int fd = -1;
    std::uint64_t next = 0;  ///< next request index for this connection
    bool busy = false;
    std::uint64_t req = 0;
    std::string_view out;
    std::size_t off = 0;
    std::string in;
    std::size_t scanned = 0;
    Clock::time_point t0;
  };
  const std::uint64_t end = first + count;
  Slot slots[kConnections];
  for (int c = 0; c < kConnections; ++c) {
    slots[c].fd = daemon.fd(c);
    const auto cc = static_cast<std::uint64_t>(c);
    slots[c].next =
        first + (cc + kConnections - first % kConnections) % kConnections;
  }

  LoopStats stats;
  double window_cpu_ms = window > 0 ? daemon.sample().cpu_ms : 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  Clock::time_point window_start = start;
  for (;;) {
    const Clock::time_point now = Clock::now();
    int busy = 0;
    for (Slot& s : slots) {
      if (!s.busy && s.next < end && now < deadline) {
        s.req = s.next;
        s.next += kConnections;
        s.out = workload.line(s.req);
        s.off = 0;
        s.t0 = Clock::now();
        s.busy = true;
        ++stats.sent;
        write_some(s.fd, s.out, &s.off);
      }
      busy += s.busy ? 1 : 0;
    }
    if (busy == 0) break;

    pollfd pfds[kConnections];
    Slot* polled[kConnections];
    nfds_t n = 0;
    for (Slot& s : slots) {
      if (!s.busy) continue;
      const short events =
          static_cast<short>(POLLIN | (s.off < s.out.size() ? POLLOUT : 0));
      pfds[n] = pollfd{s.fd, events, 0};
      polled[n++] = &s;
    }
    const int rc = ::poll(pfds, n, kIoTimeoutMs);
    if (rc == 0) throw std::runtime_error("proteusd: no reply for 30 s");
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    for (nfds_t k = 0; k < n; ++k) {
      Slot& s = *polled[k];
      if ((pfds[k].revents & POLLOUT) != 0) write_some(s.fd, s.out, &s.off);
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0 ||
          !read_some(s.fd, &s.in)) {
        continue;
      }
      const std::size_t nl = s.in.find('\n', s.scanned);
      if (nl == std::string::npos) {
        s.scanned = s.in.size();
        continue;
      }
      last = Clock::now();
      stats.latency_us.push_back(
          std::chrono::duration<double, std::micro>(last - s.t0).count());
      stats.request.push_back(s.req);
      if (!check(s.req, std::string_view(s.in.data(), nl))) ++stats.failed;
      s.in.erase(0, nl + 1);
      s.scanned = 0;
      s.busy = false;
      if (window > 0 && stats.latency_us.size() % window == 0) {
        const double cpu_ms = daemon.sample().cpu_ms;
        stats.windows.push_back(
            {std::chrono::duration<double>(last - window_start).count(),
             cpu_ms - window_cpu_ms});
        window_start = last;
        window_cpu_ms = cpu_ms;
      }
    }
  }
  stats.elapsed_s = std::chrono::duration<double>(last - start).count();
  return stats;
}

}  // namespace proteus::bench_e2e
