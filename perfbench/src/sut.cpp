// ForkedSut: serves a deployed chain from a child process.
//
// Protocol over two pipes. Child -> parent once at start:
//   u32 status (0 = ok), u32 shards, u32 n_ports, u16 ports[n],
//   u32 n_accounts, then per account u32 length + bytes.
// Parent -> child afterwards: one byte 'u' asks for usage, answered with
// two i64 (CPU microseconds, peak RSS KiB). EOF on the command pipe makes
// the child exit.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "util/clock.hpp"
#include "util/errors.hpp"

namespace perfbench {

namespace {

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    ssize_t r = ::read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

template <typename T>
bool put(int fd, T v) {
  return write_all(fd, &v, sizeof(v));
}

template <typename T>
T get(int fd) {
  T v{};
  if (!read_all(fd, &v, sizeof(v))) throw hammer::TransportError("forked SUT pipe closed");
  return v;
}

[[noreturn]] void serve_child(const json::Value& plan, int cmd_fd, int reply_fd) {
  std::uint32_t status = 1;
  try {
    core::Deployment deployment =
        core::Deployment::deploy(plan, util::SteadyClock::shared());
    core::DeployedChain& sut = deployment.at("sut");
    const std::vector<std::uint16_t> ports = sut.tcp_ports();
    status = 0;
    bool ok = put<std::uint32_t>(reply_fd, status) &&
              put<std::uint32_t>(reply_fd, sut.chain->num_shards()) &&
              put<std::uint32_t>(reply_fd, static_cast<std::uint32_t>(ports.size()));
    for (std::uint16_t port : ports) ok = ok && put<std::uint16_t>(reply_fd, port);
    ok = ok && put<std::uint32_t>(reply_fd,
                                  static_cast<std::uint32_t>(sut.smallbank_accounts.size()));
    for (const std::string& a : sut.smallbank_accounts) {
      ok = ok && put<std::uint32_t>(reply_fd, static_cast<std::uint32_t>(a.size())) &&
           write_all(reply_fd, a.data(), a.size());
    }
    char cmd = 0;
    while (ok && ::read(cmd_fd, &cmd, 1) == 1) {
      struct rusage usage {};
      ::getrusage(RUSAGE_SELF, &usage);
      std::int64_t reply[2] = {
          static_cast<std::int64_t>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1'000'000 +
              usage.ru_utime.tv_usec + usage.ru_stime.tv_usec,
          static_cast<std::int64_t>(usage.ru_maxrss)};
      ok = write_all(reply_fd, reply, sizeof(reply));
    }
  } catch (...) {
    if (status != 0) put<std::uint32_t>(reply_fd, status);
    ::_exit(3);
  }
  // The parent has gone or asked us to stop; skip destructors (the OS
  // reclaims sockets and threads) so teardown cannot hang the exit.
  ::_exit(0);
}

}  // namespace

ForkedSut::ForkedSut(const json::Value& plan) {
  int cmd[2];
  int reply[2];
  HAMMER_CHECK_MSG(::pipe(cmd) == 0 && ::pipe(reply) == 0, "pipe() failed");
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = ::fork();
  HAMMER_CHECK_MSG(pid >= 0, "fork() failed");
  if (pid == 0) {
    ::close(cmd[1]);
    ::close(reply[0]);
    serve_child(plan, cmd[0], reply[1]);
  }
  pid_ = pid;
  ::close(cmd[0]);
  ::close(reply[1]);
  cmd_fd_ = cmd[1];
  reply_fd_ = reply[0];
  // A throw from a constructor skips the destructor, so reap the child here.
  try {
    HAMMER_CHECK_MSG(get<std::uint32_t>(reply_fd_) == 0, "forked SUT failed to deploy");
    shards_ = get<std::uint32_t>(reply_fd_);
    const auto n_ports = get<std::uint32_t>(reply_fd_);
    for (std::uint32_t i = 0; i < n_ports; ++i) ports_.push_back(get<std::uint16_t>(reply_fd_));
    const auto n_accounts = get<std::uint32_t>(reply_fd_);
    accounts_.reserve(n_accounts);
    for (std::uint32_t i = 0; i < n_accounts; ++i) {
      std::string name(get<std::uint32_t>(reply_fd_), '\0');
      if (!read_all(reply_fd_, name.data(), name.size())) {
        throw hammer::TransportError("forked SUT pipe closed");
      }
      accounts_.push_back(std::move(name));
    }
  } catch (...) {
    shutdown();
    throw;
  }
}

ForkedSut::~ForkedSut() { shutdown(); }

void ForkedSut::shutdown() {
  if (cmd_fd_ >= 0) ::close(cmd_fd_);
  if (reply_fd_ >= 0) ::close(reply_fd_);
  cmd_fd_ = reply_fd_ = -1;
  if (pid_ <= 0) return;
  // The child exits on EOF; give it a moment, then make sure.
  for (int i = 0; i < 200; ++i) {
    if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

void ForkedSut::query(std::int64_t out[2]) const {
  HAMMER_CHECK_MSG(put<char>(cmd_fd_, 'u'), "forked SUT command pipe closed");
  out[0] = get<std::int64_t>(reply_fd_);
  out[1] = get<std::int64_t>(reply_fd_);
}

double ForkedSut::cpu_s() const {
  std::int64_t usage[2];
  query(usage);
  return static_cast<double>(usage[0]) / 1e6;
}

double ForkedSut::peak_rss_mb() const {
  std::int64_t usage[2];
  query(usage);
  return static_cast<double>(usage[1]) / 1024.0;
}

}  // namespace perfbench
