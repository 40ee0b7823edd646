#include "rpc/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "util/clock.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"

namespace hammer::rpc {

namespace {

// Span/handshake timestamps share the process steady-clock base every other
// subsystem stamps with (driver stages, chain seal times).
std::int64_t steady_now_us() { return util::SteadyClock::shared()->now_us(); }

// Transport telemetry on the process-global registry. References are
// resolved once; the per-event cost is one relaxed shard-local add.
struct RpcMetrics {
  telemetry::Counter& client_frames_sent;
  telemetry::Counter& client_frames_recv;
  telemetry::Counter& client_bytes_sent;
  telemetry::Counter& client_bytes_recv;
  telemetry::Counter& calls_single;
  telemetry::Counter& calls_async;
  telemetry::Counter& calls_batch;
  telemetry::StageHistogram& batch_size;
  telemetry::Gauge& inflight;
  telemetry::Counter& client_reconnects;
  telemetry::Counter& server_conns_total;
  telemetry::Gauge& server_conns;
  telemetry::Counter& server_dropped;
  telemetry::Counter& server_requests;
  telemetry::Counter& server_bytes_recv;
  telemetry::Counter& server_bytes_sent;

  static RpcMetrics& get() {
    static RpcMetrics metrics;
    return metrics;
  }

 private:
  RpcMetrics()
      : client_frames_sent(reg().counter("hammer_rpc_client_frames_total",
                                         "Frames on client channels", "dir=\"sent\"")),
        client_frames_recv(reg().counter("hammer_rpc_client_frames_total",
                                         "Frames on client channels", "dir=\"recv\"")),
        client_bytes_sent(reg().counter("hammer_rpc_client_bytes_total",
                                        "Wire bytes on client channels", "dir=\"sent\"")),
        client_bytes_recv(reg().counter("hammer_rpc_client_bytes_total",
                                        "Wire bytes on client channels", "dir=\"recv\"")),
        calls_single(reg().counter("hammer_rpc_client_calls_total",
                                   "RPC calls by submission shape", "shape=\"single\"")),
        calls_async(reg().counter("hammer_rpc_client_calls_total",
                                  "RPC calls by submission shape", "shape=\"async\"")),
        calls_batch(reg().counter("hammer_rpc_client_calls_total",
                                  "RPC calls by submission shape", "shape=\"batch\"")),
        batch_size(reg().histogram("hammer_rpc_client_batch_size",
                                   "Calls coalesced per batch frame", "",
                                   {1, 2, 4, 8, 16, 32, 64, 128, 256})),
        inflight(reg().gauge("hammer_rpc_client_inflight",
                             "Requests awaiting a response across all channels")),
        client_reconnects(reg().counter("hammer_rpc_client_reconnects_total",
                                        "Successful channel reconnects after a broken "
                                        "connection")),
        server_conns_total(reg().counter("hammer_rpc_server_connections_total",
                                         "Connections ever accepted")),
        server_conns(reg().gauge("hammer_rpc_server_connections", "Open server connections")),
        server_dropped(reg().counter("hammer_rpc_server_dropped_total",
                                     "Connections dropped (EOF, error, oversize frame)")),
        server_requests(reg().counter("hammer_rpc_server_requests_total",
                                      "Request frames dispatched to workers")),
        server_bytes_recv(reg().counter("hammer_rpc_server_bytes_total",
                                        "Wire bytes on the server", "dir=\"recv\"")),
        server_bytes_sent(reg().counter("hammer_rpc_server_bytes_total",
                                        "Wire bytes on the server", "dir=\"sent\"")) {}

  static telemetry::MetricRegistry& reg() { return telemetry::MetricRegistry::global(); }
};

// Wire-codec telemetry (DESIGN.md §11): negotiation outcomes and the
// oversize-frame taxonomy counter, labeled by where the violation surfaced.
struct WireMetrics {
  telemetry::Counter& oversize_client_send;
  telemetry::Counter& oversize_client_recv;
  telemetry::Counter& oversize_server_recv;
  telemetry::Counter& negotiated_binary;
  telemetry::Counter& negotiated_json;

  static WireMetrics& get() {
    static WireMetrics metrics;
    return metrics;
  }

 private:
  WireMetrics()
      : oversize_client_send(reg().counter(
            "hammer_wire_oversize_frames_total",
            "Frames refused for exceeding kMaxFrameBytes", "site=\"client_send\"")),
        oversize_client_recv(reg().counter(
            "hammer_wire_oversize_frames_total",
            "Frames refused for exceeding kMaxFrameBytes", "site=\"client_recv\"")),
        oversize_server_recv(reg().counter(
            "hammer_wire_oversize_frames_total",
            "Frames refused for exceeding kMaxFrameBytes", "site=\"server_recv\"")),
        negotiated_binary(reg().counter("hammer_wire_codec_negotiations_total",
                                        "Codec negotiation outcomes on client channels",
                                        "codec=\"binary\"")),
        negotiated_json(reg().counter("hammer_wire_codec_negotiations_total",
                                      "Codec negotiation outcomes on client channels",
                                      "codec=\"json\"")) {}

  static telemetry::MetricRegistry& reg() { return telemetry::MetricRegistry::global(); }
};

// Gathered write of every iovec, handling partial writes and EINTR.
// sendmsg instead of writev for MSG_NOSIGNAL (a dead peer must surface as
// EPIPE, not kill the process).
void write_gather(int fd, struct iovec* iov, std::size_t count) {
  std::size_t idx = 0;
  while (idx < count) {
    msghdr msg{};
    msg.msg_iov = iov + idx;
    msg.msg_iovlen = count - idx;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TransportError(std::string("sendmsg: ") + std::strerror(errno));
    }
    auto left = static_cast<std::size_t>(n);
    while (idx < count && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < count) {
      iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
  }
}

// Returns false on clean EOF at a frame boundary.
bool read_all(int fd, void* data, std::size_t len, bool eof_ok) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n == 0) {
      if (eof_ok && got == 0) return false;
      throw TransportError("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) throw TimeoutError("recv");
      throw TransportError(std::string("recv: ") + std::strerror(errno));
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

// One scatter-gather syscall per frame: [u32-be length][payload].
void send_frame(int fd, std::string_view payload) {
  std::uint32_t len_be = htonl(static_cast<std::uint32_t>(payload.size()));
  struct iovec iov[2];
  iov[0].iov_base = &len_be;
  iov[0].iov_len = sizeof(len_be);
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  write_gather(fd, iov, payload.empty() ? 1 : 2);
}

bool recv_frame(int fd, std::string& payload, bool eof_ok) {
  std::uint32_t len_be = 0;
  if (!read_all(fd, &len_be, sizeof(len_be), eof_ok)) return false;
  std::uint32_t len = ntohl(len_be);
  if (len > kMaxFrameBytes) {
    WireMetrics::get().oversize_client_recv.add(1);
    throw FrameTooLargeError("peer announced a " + std::to_string(len) + " byte frame (max " +
                             std::to_string(kMaxFrameBytes) + ")");
  }
  payload.resize(len);  // capacity persists: callers reuse one string across frames
  if (len > 0) read_all(fd, payload.data(), len, false);
  return true;
}

// Arena-buffer variant for the reader loop: the frame lands in a pooled
// buffer so a Slice of it can be handed to a waiting batch caller without
// copying; capacity recycles through the arena instead of one reused string.
bool recv_frame_pooled(int fd, wire::BufferPtr& out, bool eof_ok) {
  std::uint32_t len_be = 0;
  if (!read_all(fd, &len_be, sizeof(len_be), eof_ok)) return false;
  std::uint32_t len = ntohl(len_be);
  if (len > kMaxFrameBytes) {
    WireMetrics::get().oversize_client_recv.add(1);
    throw FrameTooLargeError("peer announced a " + std::to_string(len) + " byte frame (max " +
                             std::to_string(kMaxFrameBytes) + ")");
  }
  out = wire::BufferArena::global().acquire(len);
  out->resize(len);
  if (len > 0) read_all(fd, out->data(), len, false);
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_send_timeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// timeout 0 clears the receive deadline (the reader thread blocks forever;
// negotiation sets a temporary deadline so a mute peer cannot hang connect).
void set_recv_timeout(int fd, std::chrono::milliseconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

// Opens a connected client socket or throws TransportError.
int open_socket(const std::string& host, std::uint16_t port,
                std::chrono::milliseconds send_timeout) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError(std::string("socket: ") + std::strerror(errno));
  // Note: no steady-state receive timeout — the reader thread blocks until a
  // frame or shutdown; per-call deadlines are enforced on the futures.
  set_send_timeout(fd, send_timeout);
  set_nodelay(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("invalid host address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd);
    throw TransportError("connect " + host + ":" + std::to_string(port) + ": " +
                         std::strerror(err));
  }
  return fd;
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpServer
// ---------------------------------------------------------------------------

TcpServer::Connection::~Connection() { ::close(fd); }

TcpServer::TcpServer(std::shared_ptr<const Dispatcher> dispatcher, std::uint16_t port,
                     std::size_t worker_threads)
    : dispatcher_(std::move(dispatcher)) {
  HAMMER_CHECK(dispatcher_ != nullptr);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw TransportError(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    throw TransportError(std::string("bind: ") + std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 256) != 0) {
    ::close(listen_fd_);
    throw TransportError(std::string("listen: ") + std::strerror(errno));
  }

  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    throw TransportError(std::string("epoll setup: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  if (worker_threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    worker_threads = std::clamp<std::size_t>(hw == 0 ? 2 : hw, 2, 8);
  }
  workers_.reserve(worker_threads);
  for (std::size_t i = 0; i < worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  event_thread_ = std::thread([this] { event_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (event_thread_.joinable()) event_thread_.join();

  // Unblock workers stuck writing to stalled peers, then let them drain the
  // queued requests (their sends fail fast on the shut-down sockets).
  {
    std::scoped_lock lock(connections_mu_);
    for (auto& [fd, conn] : connections_) {
      conn->dead.store(true);
      ::shutdown(fd, SHUT_RDWR);
    }
    RpcMetrics::get().server_conns.sub(static_cast<std::int64_t>(connections_.size()));
    connections_.clear();  // sockets close when the last Work reference drops
  }
  work_queue_.close();
  for (auto& w : workers_) w.join();

  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
}

void TcpServer::event_loop() {
  std::vector<epoll_event> events(64);
  while (!stopping_.load()) {
    int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      HLOG_WARN("tcp") << "epoll_wait failed: " << std::strerror(errno);
      return;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) continue;  // stop() raised the flag; loop condition exits
      if (fd == listen_fd_) {
        accept_new();
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::scoped_lock lock(connections_mu_);
        auto it = connections_.find(fd);
        if (it == connections_.end()) continue;
        conn = it->second;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        drop_connection(fd);
        continue;
      }
      drain_readable(conn);
    }
  }
}

void TcpServer::accept_new() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK && !stopping_.load()) {
        HLOG_WARN("tcp") << "accept failed: " << std::strerror(errno);
      }
      return;
    }
    set_nodelay(fd);
    set_send_timeout(fd, std::chrono::milliseconds(10000));
    RpcMetrics::get().server_conns_total.add(1);
    RpcMetrics::get().server_conns.add(1);
    auto conn = std::make_shared<Connection>(fd);
    {
      std::scoped_lock lock(connections_mu_);
      connections_.emplace(fd, std::move(conn));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void TcpServer::drain_readable(const std::shared_ptr<Connection>& conn) {
  constexpr std::size_t kReadChunk = 64 * 1024;
  if (!conn->rdbuf) {
    conn->rdbuf = wire::BufferArena::global().acquire(kReadChunk);
    conn->rd_off = 0;
  }
  // Append readable bytes directly onto the arena buffer's tail. Growing the
  // buffer here is safe: any Slice handed out of it caused the buffer to be
  // retired at the end of the previous drain, so no view can dangle.
  for (;;) {
    std::size_t old_size = conn->rdbuf->size();
    conn->rdbuf->resize(old_size + kReadChunk);
    ssize_t n = ::recv(conn->fd, conn->rdbuf->data() + old_size, kReadChunk, MSG_DONTWAIT);
    if (n > 0) {
      conn->rdbuf->resize(old_size + static_cast<std::size_t>(n));
      RpcMetrics::get().server_bytes_recv.add(static_cast<std::uint64_t>(n));
      continue;
    }
    conn->rdbuf->resize(old_size);
    if (n == 0) {  // peer closed
      drop_connection(conn->fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    drop_connection(conn->fd);
    return;
  }

  // Slice complete frames off the buffer zero-copy; partial tails wait for
  // more bytes. Workers receive Slices that share the buffer's ownership.
  bool sliced = false;
  const wire::Buffer& buf = *conn->rdbuf;
  while (buf.size() - conn->rd_off >= sizeof(std::uint32_t)) {
    std::uint32_t len_be;
    std::memcpy(&len_be, buf.data() + conn->rd_off, sizeof(len_be));
    std::uint32_t len = ntohl(len_be);
    if (len > kMaxFrameBytes) {
      // Satellite of the codec redesign: announce the violation (a kError
      // control frame the client maps onto FrameTooLargeError / kProtocol)
      // instead of vanishing with a silent close that reads as a timeout.
      WireMetrics::get().oversize_server_recv.add(1);
      HLOG_WARN("tcp") << "dropping connection: frame length " << len << " exceeds max";
      send_control(conn, wire::FrameKind::kError,
                   wire::make_error_body(wire::kErrFrameTooLarge,
                                         "frame of " + std::to_string(len) +
                                             " bytes exceeds max " +
                                             std::to_string(kMaxFrameBytes)));
      drop_connection(conn->fd);
      return;
    }
    if (buf.size() - conn->rd_off < sizeof(len_be) + len) break;
    std::size_t payload_off = conn->rd_off + sizeof(len_be);
    conn->rd_off = payload_off + len;
    std::string_view payload(buf.data() + payload_off, len);
    if (wire::is_versioned(payload)) {
      wire::ParsedFrame frame;
      try {
        frame = wire::parse_versioned(payload);
      } catch (const ParseError& e) {
        HLOG_WARN("tcp") << "dropping connection: " << e.what();
        send_control(conn, wire::FrameKind::kError,
                     wire::make_error_body(wire::kErrUnsupportedVersion, e.what()));
        drop_connection(conn->fd);
        return;
      }
      switch (frame.kind) {
        case wire::FrameKind::kHello:
          // Codec negotiation: the client blocks on this reply before its
          // reader starts, so answering from the event thread is ordered
          // ahead of any response frame for this connection. The reply's
          // steady-clock stamp is the server half of the clock-offset
          // handshake.
          send_control(conn, wire::FrameKind::kHelloOk,
                       wire::make_hello_ok_body(steady_now_us()));
          break;
        case wire::FrameKind::kBinaryRequest: {
          Work work{conn,
                    wire::Slice(conn->rdbuf, payload_off + wire::kHeaderBytes,
                                len - wire::kHeaderBytes),
                    wire::WireCodec::kBinary};
          work.recv_us = steady_now_us();
          sliced = true;
          RpcMetrics::get().server_requests.add(1);
          if (!work_queue_.push(std::move(work))) return;  // queue closed: stopping
          break;
        }
        case wire::FrameKind::kTracedRequest: {
          // A binary request carrying a trace context prefix. The two
          // varints decode here on the event thread (cheap, and only traced
          // frames pay it); the body slice starts past them.
          std::string_view body = payload.substr(wire::kHeaderBytes);
          wire::TracePrefix prefix;
          try {
            prefix = wire::parse_trace_prefix(body);
          } catch (const ParseError& e) {
            HLOG_WARN("tcp") << "dropping connection: bad trace prefix: " << e.what();
            send_control(conn, wire::FrameKind::kError,
                         wire::make_error_body(kParseError, e.what()));
            drop_connection(conn->fd);
            return;
          }
          std::size_t prefix_bytes = body.size() - prefix.rest.size();
          Work work{conn,
                    wire::Slice(conn->rdbuf, payload_off + wire::kHeaderBytes + prefix_bytes,
                                len - wire::kHeaderBytes - prefix_bytes),
                    wire::WireCodec::kBinary};
          work.trace = telemetry::TraceContext{prefix.trace_id, prefix.span_id};
          work.recv_us = steady_now_us();
          sliced = true;
          RpcMetrics::get().server_requests.add(1);
          if (!work_queue_.push(std::move(work))) return;  // queue closed: stopping
          break;
        }
        default:
          HLOG_DEBUG("tcp") << "ignoring unexpected frame kind "
                            << static_cast<int>(frame.kind);
          break;
      }
    } else {
      Work work{conn, wire::Slice(conn->rdbuf, payload_off, len), wire::WireCodec::kJson};
      work.recv_us = steady_now_us();
      sliced = true;
      RpcMetrics::get().server_requests.add(1);
      if (!work_queue_.push(std::move(work))) return;  // queue closed: stopping
    }
  }

  if (sliced) {
    // Outstanding Slices pin the old buffer; retire it to them and carry the
    // partial tail (if any) into a fresh buffer we are free to grow.
    std::size_t tail = conn->rdbuf->size() - conn->rd_off;
    wire::BufferPtr fresh = wire::BufferArena::global().acquire(std::max(tail, kReadChunk));
    fresh->append(conn->rdbuf->data() + conn->rd_off, tail);
    conn->rdbuf = std::move(fresh);
    conn->rd_off = 0;
  } else if (conn->rd_off > 0) {
    // Only control frames consumed: no views exist, compact in place.
    conn->rdbuf->erase(0, conn->rd_off);
    conn->rd_off = 0;
  }
}

void TcpServer::drop_connection(int fd) {
  std::shared_ptr<Connection> conn;
  {
    std::scoped_lock lock(connections_mu_);
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    conn = std::move(it->second);
    connections_.erase(it);
  }
  RpcMetrics::get().server_conns.sub(1);
  RpcMetrics::get().server_dropped.add(1);
  conn->dead.store(true);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // The fd closes in ~Connection once in-flight workers release their
  // references; shutdown here so their writes fail instead of blocking.
  ::shutdown(fd, SHUT_RDWR);
}

void TcpServer::send_control(const std::shared_ptr<Connection>& conn, wire::FrameKind kind,
                             const std::string& body) {
  std::string payload;
  payload.reserve(wire::kHeaderBytes + body.size());
  wire::put_header(payload, kind);
  payload += body;
  std::scoped_lock lock(conn->write_mu);
  if (conn->dead.load()) return;
  try {
    send_frame(conn->fd, payload);
    RpcMetrics::get().server_bytes_sent.add(sizeof(std::uint32_t) + payload.size());
  } catch (const TransportError& e) {
    conn->dead.store(true);
    if (!stopping_.load()) HLOG_DEBUG("tcp") << "control write failed: " << e.what();
  }
}

void TcpServer::install_fault_injector(std::shared_ptr<fault::FaultInjector> faults) {
  std::scoped_lock lock(faults_mu_);
  faults_ = std::move(faults);
}

std::shared_ptr<fault::FaultInjector> TcpServer::fault_injector() const {
  std::scoped_lock lock(faults_mu_);
  return faults_;
}

void TcpServer::install_ingress_throttle(std::shared_ptr<fault::IngressThrottle> throttle) {
  std::scoped_lock lock(faults_mu_);
  throttle_ = std::move(throttle);
}

std::shared_ptr<fault::IngressThrottle> TcpServer::ingress_throttle() const {
  std::scoped_lock lock(faults_mu_);
  return throttle_;
}

void TcpServer::worker_loop() {
  while (auto work = work_queue_.pop()) {
    // Admission gate: under an ingress throttle every request frame —
    // whatever its codec — waits for a token before dispatch, like
    // slow_loris blocking a worker thread (the event loop keeps draining
    // sockets; only dispatch capacity collapses).
    if (std::shared_ptr<fault::IngressThrottle> throttle = ingress_throttle()) {
      if (stopping_.load()) continue;
      throttle->admit();
    }
    if (work->codec == wire::WireCodec::kBinary) {
      reply_binary(*work);
    } else {
      reply_json(*work);
    }
  }
}

void TcpServer::reply_json(const Work& work) {
  // JSON frames carry any trace context inside params (`_trace`), so
  // whether this frame is traced is only known after parsing; publish the
  // receive/dequeue stamps and let the dispatcher emit the queue-wait span
  // for the first traced call it meets.
  telemetry::set_server_rx(work.recv_us, steady_now_us());
  // Pooled response buffer: dispatch serializes straight into it, and its
  // capacity survives for the next response this worker produces.
  wire::BufferPtr out = wire::BufferArena::global().acquire(work.request.size() + 256);
  dispatcher_->dispatch_text_into(work.request.view(), *out);
  telemetry::clear_server_rx();
  if (std::shared_ptr<fault::FaultInjector> faults = fault_injector()) {
    // Dropped response: the request DID execute — the client sees a timeout
    // on an operation the SUT may have applied, the in-doubt case idempotent
    // resubmission exists for.
    if (faults->should(fault::FaultKind::kDropResponse)) return;
    if (faults->should(fault::FaultKind::kSlowLoris)) {
      std::this_thread::sleep_for(std::chrono::microseconds(faults->plan().slow_loris_us));
    }
  }
  std::scoped_lock lock(work.conn->write_mu);
  if (work.conn->dead.load()) return;
  try {
    send_frame(work.conn->fd, *out);
    RpcMetrics::get().server_bytes_sent.add(sizeof(std::uint32_t) + out->size());
  } catch (const TransportError& e) {
    work.conn->dead.store(true);
    if (!stopping_.load()) HLOG_DEBUG("tcp") << "response write failed: " << e.what();
  }
}

void TcpServer::reply_binary(const Work& work) {
  // Traced frame: install the context for this worker so the decode span
  // below, the dispatcher's queue-wait/handler spans and any chain-level
  // spans all record under it. Untraced frames skip all of it.
  std::optional<telemetry::ScopedTrace> trace_scope;
  if (work.trace.sampled()) {
    telemetry::set_server_rx(work.recv_us, steady_now_us());
    trace_scope.emplace(work.trace);
  }
  std::vector<wire::DecodedCall> calls;
  try {
    telemetry::ScopedSpan decode_span(telemetry::SpanKind::kFrameDecode);
    calls = wire::decode_request_body(work.request.view());
  } catch (const ParseError& e) {
    HLOG_WARN("tcp") << "malformed binary request: " << e.what();
    send_control(work.conn, wire::FrameKind::kError,
                 wire::make_error_body(kParseError, e.what()));
    work.conn->dead.store(true);
    ::shutdown(work.conn->fd, SHUT_RDWR);  // event thread reaps it via EPOLLHUP
    return;
  }
  wire::BufferPtr out = wire::BufferArena::global().acquire(work.request.size() + 256);
  wire::put_header(*out, wire::FrameKind::kBinaryResponse);
  wire::put_varint(*out, calls.size());
  for (wire::DecodedCall& call : calls) {
    // Same method tables and exception→code mapping as the JSON-RPC path
    // (Dispatcher::invoke), minus the envelope.
    CallOutcome outcome = dispatcher_->invoke(call.method, call.params);
    wire::ResponseEntry entry;
    entry.id = call.id;
    entry.error_code = outcome.error_code;
    entry.error_message = std::move(outcome.error_message);
    entry.result = std::move(outcome.result);
    wire::encode_response_entry(*out, entry);
  }
  if (trace_scope) telemetry::clear_server_rx();
  if (std::shared_ptr<fault::FaultInjector> faults = fault_injector()) {
    if (faults->should(fault::FaultKind::kDropResponse)) return;
    if (faults->should(fault::FaultKind::kSlowLoris)) {
      std::this_thread::sleep_for(std::chrono::microseconds(faults->plan().slow_loris_us));
    }
  }
  std::scoped_lock lock(work.conn->write_mu);
  if (work.conn->dead.load()) return;
  try {
    send_frame(work.conn->fd, *out);
    RpcMetrics::get().server_bytes_sent.add(sizeof(std::uint32_t) + out->size());
  } catch (const TransportError& e) {
    work.conn->dead.store(true);
    if (!stopping_.load()) HLOG_DEBUG("tcp") << "response write failed: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// TcpChannel
// ---------------------------------------------------------------------------

TcpChannel::TcpChannel(const std::string& host, std::uint16_t port, const ClientConfig& config)
    : host_(host), port_(port), timeout_(config.timeout), preference_(config.codec) {
  fd_ = open_socket(host_, port_, timeout_);
  try {
    negotiate(fd_);
  } catch (...) {
    ::close(fd_);
    throw;
  }
  reader_ = std::thread([this, fd = fd_] { reader_loop(fd); });
}

void TcpChannel::install_fault_injector(std::shared_ptr<fault::FaultInjector> faults) {
  faults_ = std::move(faults);
}

void TcpChannel::negotiate(int fd) {
  peer_traces_.store(false, std::memory_order_relaxed);
  peer_api_.store(-1, std::memory_order_relaxed);
  clock_offset_us_.store(0, std::memory_order_relaxed);
  if (preference_ == CodecPreference::kJsonOnly) {
    codec_.store(wire::WireCodec::kJson, std::memory_order_relaxed);
    WireMetrics::get().negotiated_json.add(1);
    return;
  }
  // Offer binary with one blocking round trip before the reader thread
  // exists, so the reply cannot race with response frames. Deliberately not
  // routed through inject_send_faults: negotiation is connection plumbing,
  // and burning seeded fault draws on it would make the draw sequence
  // depend on reconnect count.
  std::string hello;
  wire::put_header(hello, wire::FrameKind::kHello);
  hello += wire::make_hello_body(steady_now_us());
  wire::WireCodec outcome = wire::WireCodec::kJson;
  try {
    std::int64_t send_us = steady_now_us();
    send_frame(fd, hello);
    set_recv_timeout(fd, timeout_);
    std::string reply;
    recv_frame(fd, reply, /*eof_ok=*/false);
    std::int64_t recv_us = steady_now_us();
    if (wire::is_versioned(reply)) {
      wire::ParsedFrame frame = wire::parse_versioned(reply);
      if (frame.kind == wire::FrameKind::kHelloOk) {
        if (wire::offers_binary(frame.body)) outcome = wire::WireCodec::kBinary;
        // Trace feature + clock offset ride the same round trip: the server
        // stamp is assumed to sit at the RTT midpoint (NTP-style). A peer
        // predating the handshake simply omits both keys.
        peer_traces_.store(wire::offers_trace(frame.body), std::memory_order_relaxed);
        peer_api_.store(wire::hello_api_version(frame.body), std::memory_order_relaxed);
        std::int64_t server_now = wire::hello_now_us(frame.body);
        if (server_now >= 0) {
          clock_offset_us_.store(
              telemetry::ClockOffset::estimate(send_us, server_now, recv_us)
                  .remote_minus_local_us,
              std::memory_order_relaxed);
        }
      }
    }
    // A non-versioned reply is a legacy server JSON-parsing our hello and
    // answering with a parse-error response: fall back to JSON.
  } catch (const TimeoutError&) {
    // The peer ignored the hello entirely (pre-framing server): JSON.
  } catch (const ParseError&) {
    // Versioned-looking reply we cannot parse: JSON.
  }
  // Other TransportErrors propagate — the connection itself is unusable.
  set_recv_timeout(fd, std::chrono::milliseconds(0));
  codec_.store(outcome, std::memory_order_relaxed);
  if (outcome == wire::WireCodec::kBinary) {
    WireMetrics::get().negotiated_binary.add(1);
  } else {
    WireMetrics::get().negotiated_json.add(1);
  }
  HLOG_DEBUG("tcp") << "negotiated " << wire::to_string(outcome) << " codec with " << host_
                    << ":" << port_;
}

void TcpChannel::ensure_connected() {
  std::scoped_lock conn_lock(write_mu_);
  {
    std::scoped_lock lock(pending_mu_);
    if (!broken_) return;
  }
  // The reader exits after fail_all set broken_, so the join is brief; any
  // calls arriving while we hold write_mu_ wait for the fresh socket.
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
  fd_ = open_socket(host_, port_, timeout_);  // throws if the server stays down
  try {
    negotiate(fd_);  // the replacement server may speak a different codec
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  {
    std::scoped_lock lock(pending_mu_);
    broken_ = false;
    break_reason_ = nullptr;
  }
  reader_ = std::thread([this, fd = fd_] { reader_loop(fd); });
  RpcMetrics::get().client_reconnects.add(1);
  HLOG_DEBUG("tcp") << "reconnected to " << host_ << ":" << port_;
}

void TcpChannel::inject_send_faults() {
  if (!faults_) return;
  if (faults_->should(fault::FaultKind::kClientLatency)) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(faults_->plan().client_latency_us));
  }
  if (faults_->should(fault::FaultKind::kConnReset)) {
    // Kill the real socket so the reader observes the break exactly like a
    // peer reset, then fail this call before its frame ever leaves. Mark the
    // channel broken here rather than waiting for the reader to notice EOF:
    // a retry must always take the reconnect path, never race the reader and
    // burn a fault draw on a send into the dead socket (that would make the
    // seeded draw sequence scheduling-dependent).
    std::scoped_lock lock(write_mu_);
    ::shutdown(fd_, SHUT_RDWR);
    {
      std::scoped_lock plock(pending_mu_);
      broken_ = true;
      if (!break_reason_) {
        break_reason_ = std::make_exception_ptr(TransportError("injected connection reset"));
      }
    }
    throw TransportError("injected connection reset");
  }
}

TcpChannel::~TcpChannel() {
  {
    std::scoped_lock lock(pending_mu_);
    broken_ = true;
    if (!break_reason_) {
      break_reason_ = std::make_exception_ptr(TransportError("channel closed"));
    }
  }
  ::shutdown(fd_, SHUT_RDWR);  // wakes the reader, which fails any pending calls
  if (reader_.joinable()) reader_.join();
  ::close(fd_);
}

std::future<json::Value> TcpChannel::send_request(const std::string& method, json::Value params,
                                                  std::uint64_t& id_out,
                                                  const telemetry::TraceContext& trace) {
  std::future<json::Value> future;
  {
    std::scoped_lock lock(pending_mu_);
    if (broken_) std::rethrow_exception(break_reason_);
    id_out = next_id_++;
    future = pending_[id_out].promise.get_future();
    // Inside the lock so fail_all/complete can never decrement first.
    RpcMetrics::get().inflight.add(1);
  }
  const bool traced = trace.sampled() && peer_traces();
  const wire::WireCodec codec = codec_.load(std::memory_order_relaxed);
  wire::BufferPtr frame = wire::BufferArena::global().acquire(256);
  if (codec == wire::WireCodec::kBinary) {
    if (traced) {
      wire::put_header(*frame, wire::FrameKind::kTracedRequest);
      wire::put_trace_prefix(*frame, trace.trace_id, trace.span_id);
    } else {
      wire::put_header(*frame, wire::FrameKind::kBinaryRequest);
    }
    wire::put_varint(*frame, 1);  // a single call is a batch of one
    wire::encode_call(*frame, id_out, method, params);
  } else {
    if (traced && params.is_object()) {
      params["_trace"] = json::object({{"t", static_cast<std::int64_t>(trace.trace_id)},
                                       {"s", static_cast<std::int64_t>(trace.span_id)}});
    }
    make_request(id_out, method, std::move(params)).dump_into(*frame);
  }
  if (frame->size() > kMaxFrameBytes) {
    forget(id_out);
    WireMetrics::get().oversize_client_send.add(1);
    throw FrameTooLargeError("request frame of " + std::to_string(frame->size()) +
                             " bytes (max " + std::to_string(kMaxFrameBytes) +
                             "); the channel remains usable");
  }
  try {
    inject_send_faults();
    std::scoped_lock lock(write_mu_);
    send_frame(fd_, *frame);
  } catch (...) {
    forget(id_out);
    throw;
  }
  RpcMetrics::get().client_frames_sent.add(1);
  RpcMetrics::get().client_bytes_sent.add(sizeof(std::uint32_t) + frame->size());
  return future;
}

json::Value TcpChannel::call(const std::string& method, json::Value params,
                             const CallOptions& opts) {
  ensure_connected();
  RpcMetrics::get().calls_single.add(1);
  std::uint64_t id = 0;
  std::future<json::Value> future = send_request(method, std::move(params), id, opts.trace);
  if (future.wait_for(effective_deadline(opts)) == std::future_status::timeout) {
    forget(id);  // a late response for this id is silently dropped
    throw TimeoutError("call " + method);
  }
  return future.get();
}

std::future<json::Value> TcpChannel::call_async(const std::string& method, json::Value params,
                                                const CallOptions& opts) {
  ensure_connected();
  RpcMetrics::get().calls_async.add(1);
  std::uint64_t id = 0;
  return send_request(method, std::move(params), id, opts.trace);
}

namespace {

// Moves one binary response entry into a caller's reply slot. Error entries
// never construct an exception; the message carries the exact string the
// JSON path's RpcError::what() would, so BatchReply consumers are
// codec-blind.
void fill_reply(BatchReply& reply, wire::ResponseEntry& entry) {
  if (entry.ok()) {
    reply.result = std::move(entry.result);
  } else {
    reply.error_code = entry.error_code;
    reply.error_message =
        "rpc error " + std::to_string(entry.error_code) + ": " + entry.error_message;
  }
}

// Decodes a direct-handoff binary response frame straight into the caller's
// reply vector — ids map to slots by offset from first_id, so there is no
// table lookup, no ResponseEntry staging and no cross-thread tree at all.
// Returns false (leaving `out` unusable) if the frame is not a well-formed
// response covering exactly [first_id, first_id + n): the caller then keeps
// waiting, which matches the legacy drop-malformed-frame behavior.
bool decode_direct(std::string_view body, std::uint64_t first_id, std::size_t n,
                   std::vector<BatchReply>& out) {
  try {
    const char* p = body.data();
    const char* end = p + body.size();
    if (wire::get_varint(p, end) != n) return false;
    out.clear();
    out.resize(n);
    std::vector<bool> seen(n, false);
    for (std::size_t k = 0; k < n; ++k) {
      std::uint64_t idx = wire::get_varint(p, end) - first_id;
      if (idx >= n || seen[idx]) return false;
      seen[idx] = true;
      if (p >= end) return false;
      unsigned char status = static_cast<unsigned char>(*p++);
      BatchReply& reply = out[idx];
      if (status == 0) {
        reply.result = wire::decode_value(p, end);
      } else if (status == 1) {
        reply.error_code = static_cast<int>(wire::get_zigzag(p, end));
        std::uint64_t len = wire::get_varint(p, end);
        if (len > static_cast<std::uint64_t>(end - p)) return false;
        // Same text RpcError::what() would produce on the JSON path.
        reply.error_message = "rpc error " + std::to_string(reply.error_code) + ": ";
        reply.error_message.append(p, static_cast<std::size_t>(len));
        p += len;
      } else {
        return false;
      }
    }
    return p == end;
  } catch (const ParseError&) {
    return false;
  }
}

}  // namespace

std::vector<BatchReply> TcpChannel::call_batch(const std::vector<BatchCall>& calls,
                                               const CallOptions& opts) {
  if (calls.empty()) return {};
  ensure_connected();
  RpcMetrics::get().calls_batch.add(calls.size());
  RpcMetrics::get().batch_size.record(static_cast<std::int64_t>(calls.size()));
  // One shared completion group for the whole batch: the reader writes
  // straight into its reply slots, so a 64-call batch costs one mutex and
  // one condvar instead of 64 promise/future shared states. The batch's
  // consecutive ids register as a single range entry — one map node per
  // batch, not one hash-table node per call.
  auto group = std::make_shared<BatchGroup>();
  group->remaining = calls.size();
  group->replies.resize(calls.size());
  group->filled.assign(calls.size(), false);
  std::uint64_t first_id = 0;
  {
    std::scoped_lock lock(pending_mu_);
    if (broken_) std::rethrow_exception(break_reason_);
    first_id = next_id_;
    next_id_ += calls.size();
    batch_ranges_.emplace(first_id,
                          BatchRange{static_cast<std::uint32_t>(calls.size()), group});
    RpcMetrics::get().inflight.add(static_cast<std::int64_t>(calls.size()));
  }
  const bool traced = opts.trace.sampled() && peer_traces();
  const wire::WireCodec codec = codec_.load(std::memory_order_relaxed);
  wire::BufferPtr frame = wire::BufferArena::global().acquire(64 * calls.size());
  if (codec == wire::WireCodec::kBinary) {
    // One frame, one writev: [hdr][varint n][call entries...] — no JSON-RPC
    // envelope objects materialize at all. A traced frame prepends the
    // context before the call count; the whole batch shares one trace.
    if (traced) {
      wire::put_header(*frame, wire::FrameKind::kTracedRequest);
      wire::put_trace_prefix(*frame, opts.trace.trace_id, opts.trace.span_id);
    } else {
      wire::put_header(*frame, wire::FrameKind::kBinaryRequest);
    }
    wire::put_varint(*frame, calls.size());
    for (std::size_t i = 0; i < calls.size(); ++i) {
      wire::encode_call(*frame, first_id + i, calls[i].method, calls[i].params);
    }
  } else if (!traced) {
    write_batch_request(*frame, first_id, calls);
  } else {
    json::Array entries;
    entries.reserve(calls.size());
    for (std::size_t i = 0; i < calls.size(); ++i) {
      json::Value params = calls[i].params;
      if (params.is_object()) {
        params["_trace"] =
            json::object({{"t", static_cast<std::int64_t>(opts.trace.trace_id)},
                          {"s", static_cast<std::int64_t>(opts.trace.span_id)}});
      }
      entries.push_back(make_request(first_id + i, calls[i].method, std::move(params)));
    }
    json::Value(std::move(entries)).dump_into(*frame);
  }
  if (frame->size() > kMaxFrameBytes) {
    forget_range(first_id, group);
    WireMetrics::get().oversize_client_send.add(1);
    throw FrameTooLargeError("batch frame of " + std::to_string(frame->size()) +
                             " bytes (max " + std::to_string(kMaxFrameBytes) +
                             "); split the batch");
  }
  try {
    inject_send_faults();
    std::scoped_lock lock(write_mu_);
    send_frame(fd_, *frame);
  } catch (...) {
    forget_range(first_id, group);
    throw;
  }
  RpcMetrics::get().client_frames_sent.add(1);
  RpcMetrics::get().client_bytes_sent.add(sizeof(std::uint32_t) + frame->size());

  // One deadline for the whole batch: it is a single logical round trip.
  auto deadline = std::chrono::steady_clock::now() + effective_deadline(opts);
  {
    std::unique_lock glock(group->mu);
    for (;;) {
      bool done = group->cv.wait_until(glock, deadline, [&group] {
        return group->remaining == 0 || group->failure != nullptr || group->frame_ready;
      });
      if (group->frame_ready) {
        // Direct frame handoff: the reader parked the raw response frame
        // here; decode on THIS thread, straight into the reply vector —
        // every tree node is allocated, read and freed on the consuming
        // core, and nothing funnels through the per-slot fill path.
        wire::Slice raw = std::exchange(group->frame, wire::Slice{});
        group->frame_ready = false;
        glock.unlock();
        std::vector<BatchReply> replies;
        if (decode_direct(raw.view(), first_id, calls.size(), replies)) {
          forget_range(first_id, group);
          return replies;
        }
        // Malformed frame: drop it (matching the JSON path's drop-bad-frame
        // semantics) and keep waiting — the batch times out unless a valid
        // frame still arrives.
        HLOG_WARN("tcp") << "dropping malformed direct-handoff frame for batch at id "
                         << first_id;
        glock.lock();
        continue;
      }
      if (group->failure) {
        // The connection died mid-batch: the whole batch failed, exactly like a
        // single call. Late stragglers for these ids are silently dropped.
        std::exception_ptr failure = group->failure;
        glock.unlock();
        forget_range(first_id, group);
        std::rethrow_exception(failure);
      }
      if (!done) {
        glock.unlock();
        forget_range(first_id, group);
        throw TimeoutError("batch of " + std::to_string(calls.size()) + " calls");
      }
      break;  // remaining == 0: every slot filled by the reader
    }
  }
  forget_range(first_id, group);  // all slots filled: just drops the map entry
  return std::move(group->replies);
}

void TcpChannel::forget(std::uint64_t id) {
  std::size_t erased;
  {
    std::scoped_lock lock(pending_mu_);
    erased = pending_.erase(id);
  }
  if (erased) RpcMetrics::get().inflight.sub(1);
}

TcpChannel::BatchRange* TcpChannel::find_range(std::uint64_t id, std::uint32_t& slot_out) {
  auto it = batch_ranges_.upper_bound(id);
  if (it == batch_ranges_.begin()) return nullptr;
  --it;
  if (id - it->first >= it->second.count) return nullptr;
  slot_out = static_cast<std::uint32_t>(id - it->first);
  return &it->second;
}

void TcpChannel::complete(const json::Value& response) {
  if (!response.is_object() || !response.contains("id") || !response.at("id").is_int()) {
    HLOG_DEBUG("tcp") << "dropping response without a usable id";
    return;
  }
  auto id = static_cast<std::uint64_t>(response.at("id").as_int());
  std::promise<json::Value> promise;
  bool single = false;
  std::shared_ptr<BatchGroup> group;
  std::uint32_t slot = 0;
  {
    std::scoped_lock lock(pending_mu_);
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      promise = std::move(it->second.promise);
      pending_.erase(it);
      single = true;
    } else {
      BatchRange* range = find_range(id, slot);
      if (!range) return;  // timed out and forgotten, or stray
      group = range->group;
    }
  }
  if (single) {
    RpcMetrics::get().inflight.sub(1);
    try {
      promise.set_value(take_result(response));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
    return;
  }
  BatchReply reply;
  try {
    reply.result = take_result(response);
  } catch (const RpcError& e) {
    reply.error_code = e.code();
    reply.error_message = e.what();
  } catch (...) {
    // Malformed entry: fail the whole batch, like a transport error.
    abandon_group(group, std::current_exception());
    return;
  }
  {
    std::scoped_lock glock(group->mu);
    if (group->abandoned || group->filled[slot]) return;  // late or duplicate
    group->replies[slot] = std::move(reply);
    group->filled[slot] = true;
    if (--group->remaining == 0) group->cv.notify_one();
  }
  RpcMetrics::get().inflight.sub(1);
}

void TcpChannel::complete_binary(std::vector<wire::ResponseEntry>& entries) {
  // Resolve every id in one pass under the table lock: singles are claimed
  // (erased) outright, batch hits just record (group, slot) — the range
  // entry stays put, so a 64-call batch costs ZERO table mutations here.
  struct RangeHit {
    wire::ResponseEntry* entry;
    BatchGroup* group;  // kept alive by `keepalive`
    std::uint32_t slot;
  };
  std::vector<std::pair<wire::ResponseEntry*, std::promise<json::Value>>> singles;
  std::vector<RangeHit> hits;
  // One shared_ptr per distinct group (normally exactly one per frame), not
  // per entry: pins the groups after pending_mu_ drops without paying two
  // refcount RMWs per call.
  std::vector<std::shared_ptr<BatchGroup>> keepalive;
  hits.reserve(entries.size());
  {
    std::scoped_lock lock(pending_mu_);
    for (wire::ResponseEntry& entry : entries) {
      auto it = pending_.find(entry.id);
      if (it != pending_.end()) {
        singles.emplace_back(&entry, std::move(it->second.promise));
        pending_.erase(it);
        continue;
      }
      std::uint32_t slot = 0;
      if (BatchRange* range = find_range(entry.id, slot)) {
        hits.push_back(RangeHit{&entry, range->group.get(), slot});
        if (keepalive.empty() || keepalive.back().get() != range->group.get()) {
          keepalive.push_back(range->group);
        }
      }
      // else: timed out and forgotten, or stray — drop silently.
    }
  }
  if (!singles.empty()) {
    RpcMetrics::get().inflight.sub(static_cast<std::int64_t>(singles.size()));
    for (auto& [entry, promise] : singles) {
      if (entry->ok()) {
        promise.set_value(std::move(entry->result));
      } else {
        // Same exception the JSON path's take_result would raise, so
        // everything above the channel (adapters, taxonomy) is codec-blind.
        promise.set_exception(
            std::make_exception_ptr(RpcError(entry->error_code, entry->error_message)));
      }
    }
  }
  // Fill each group's run of entries under ONE lock — the whole frame is
  // normally one call_batch, so this is two mutex acquisitions per frame
  // (table + group) instead of two per call.
  for (std::size_t i = 0; i < hits.size();) {
    BatchGroup& group = *hits[i].group;
    std::int64_t newly = 0;
    {
      std::scoped_lock glock(group.mu);
      while (i < hits.size() && hits[i].group == &group) {
        const std::uint32_t slot = hits[i].slot;
        if (!group.abandoned && !group.filled[slot]) {
          fill_reply(group.replies[slot], *hits[i].entry);
          group.filled[slot] = true;
          --group.remaining;
          ++newly;
        }
        ++i;
      }
      if (newly > 0 && group.remaining == 0) group.cv.notify_one();
    }
    if (newly > 0) RpcMetrics::get().inflight.sub(newly);
  }
}

void TcpChannel::abandon_group(const std::shared_ptr<BatchGroup>& group,
                               std::exception_ptr reason) {
  std::size_t unfilled = 0;
  {
    std::scoped_lock glock(group->mu);
    if (reason && !group->failure) group->failure = reason;
    if (!group->abandoned) {
      group->abandoned = true;
      unfilled = group->remaining;
    }
    group->cv.notify_one();
  }
  if (unfilled > 0) RpcMetrics::get().inflight.sub(static_cast<std::int64_t>(unfilled));
}

void TcpChannel::forget_range(std::uint64_t first_id,
                              const std::shared_ptr<BatchGroup>& group) {
  {
    std::scoped_lock lock(pending_mu_);
    batch_ranges_.erase(first_id);
  }
  // After the erase no new fills can resolve this range; abandon_group
  // linearizes against in-flight fills on the group mutex, so the gauge is
  // reconciled exactly once per never-filled slot.
  abandon_group(group, nullptr);
}

void TcpChannel::fail_all(std::exception_ptr reason) {
  std::unordered_map<std::uint64_t, PendingSlot> orphans;
  std::map<std::uint64_t, BatchRange> orphan_ranges;
  {
    std::scoped_lock lock(pending_mu_);
    broken_ = true;
    if (!break_reason_) break_reason_ = reason;
    orphans.swap(pending_);
    orphan_ranges.swap(batch_ranges_);
  }
  if (!orphans.empty()) {
    RpcMetrics::get().inflight.sub(static_cast<std::int64_t>(orphans.size()));
    for (auto& [id, slot] : orphans) slot.promise.set_exception(reason);
  }
  for (auto& [first_id, range] : orphan_ranges) abandon_group(range.group, reason);
}

// Tries to hand a binary response frame to the batch caller it answers,
// without decoding it: peek the count and first id, and if they cover one
// registered range exactly, park a zero-copy Slice on the group and wake
// the caller. Returns false when the frame needs the reader-side
// (complete_binary) path instead — single calls, or anything irregular.
bool TcpChannel::try_handoff(const wire::BufferPtr& buf, std::string_view body) {
  const char* p = body.data();
  const char* end = p + body.size();
  std::uint64_t count = 0;
  std::uint64_t first = 0;
  try {
    count = wire::get_varint(p, end);
    if (count == 0) return false;
    first = wire::get_varint(p, end);
  } catch (const ParseError&) {
    return false;  // malformed; the fallback path reports it
  }
  std::shared_ptr<BatchGroup> group;
  {
    std::scoped_lock lock(pending_mu_);
    std::uint32_t slot = 0;
    BatchRange* range = find_range(first, slot);
    if (!range || slot != 0 || count != range->count) return false;
    group = range->group;
  }
  std::scoped_lock glock(group->mu);
  if (group->abandoned || group->frame_ready) return true;  // late/duplicate: drop
  group->frame = wire::Slice(buf, static_cast<std::size_t>(body.data() - buf->data()),
                             body.size());
  group->frame_ready = true;
  group->cv.notify_one();
  return true;
}

void TcpChannel::reader_loop(int fd) {
  std::vector<wire::ResponseEntry> entries;  // reused across fallback frames
  for (;;) {
    wire::BufferPtr buf;  // pooled: capacity recycles through the arena
    try {
      if (!recv_frame_pooled(fd, buf, /*eof_ok=*/true)) {
        fail_all(std::make_exception_ptr(TransportError("connection closed by server")));
        return;
      }
    } catch (const TransportError&) {  // includes FrameTooLargeError on inbound oversize
      fail_all(std::current_exception());
      return;
    }
    const std::string_view payload(*buf);
    RpcMetrics::get().client_frames_recv.add(1);
    RpcMetrics::get().client_bytes_recv.add(sizeof(std::uint32_t) + payload.size());
    if (wire::is_versioned(payload)) {
      try {
        wire::ParsedFrame frame = wire::parse_versioned(payload);
        if (frame.kind == wire::FrameKind::kBinaryResponse) {
          if (!try_handoff(buf, frame.body)) {
            wire::decode_response_into(frame.body, entries);
            complete_binary(entries);
          }
        } else if (frame.kind == wire::FrameKind::kError) {
          // The server's last words before dropping us; distinct taxonomy
          // for the oversize case so callers never misread it as a timeout.
          int code = kInternalError;
          std::string message = "unspecified server error";
          try {
            json::Value body = json::Value::parse(frame.body);
            code = static_cast<int>(body.get_int("code", code));
            message = body.get_string("message", message);
          } catch (const ParseError&) {
          }
          std::exception_ptr reason;
          if (code == wire::kErrFrameTooLarge) {
            reason = std::make_exception_ptr(
                FrameTooLargeError("server rejected frame: " + message));
          } else {
            reason = std::make_exception_ptr(
                TransportError("server error " + std::to_string(code) + ": " + message));
          }
          fail_all(reason);
          return;
        }
        // Stray hello traffic (negotiation happens pre-reader): ignore.
      } catch (const std::exception& e) {
        HLOG_WARN("tcp") << "dropping malformed response frame: " << e.what();
      }
      continue;
    }
    try {
      json::Value response = json::Value::parse(payload);
      if (response.is_array()) {
        // Batch response: complete every contained reply independently.
        for (const json::Value& entry : response.as_array()) complete(entry);
      } else {
        complete(response);
      }
    } catch (const std::exception& e) {
      HLOG_WARN("tcp") << "dropping malformed response frame: " << e.what();
    }
  }
}

}  // namespace hammer::rpc
