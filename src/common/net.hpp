// The one TCP module: every socket call in the repo is made here.
//
// The scrape server and the ingest listener are each a TcpServer plus a
// per-connection handler; the worker link and the HTTP client dial with
// connect_tcp. All of them move bytes with send_all / recv_some /
// recv_exact. The module sits below obs and logs nothing: each call
// returns (or, like the call it wraps, sets) an errno, and the caller logs
// it under its own event names.
//
// Every loop here retries EINTR. A socket with SO_RCVTIMEO/SO_SNDTIMEO is
// not restarted after a signal handler, even one installed with
// SA_RESTART (signal(7)), so a loop that took EINTR for end of stream
// would cut traffic short whenever a signal landed on its thread.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>

namespace appclass::common {

/// Receive and send timeout of every connection a TcpServer accepts: a
/// peer that stops reading or writing holds the accept thread no longer.
inline constexpr int kTcpIoTimeoutMs = 2000;
/// TcpServer's bind schedule: retries after the first attempt, waiting
/// 100, 200, 400 and 800 ms (doubling), so a restarted worker reclaims a
/// port its dying predecessor still holds.
inline constexpr int kTcpBindRetries = 4;
inline constexpr int kTcpBindRetryInitialMs = 100;

namespace detail {

/// Both socket timeouts, and no Nagle: every peer here writes small
/// messages (acks, requests) that must leave at once, not wait for the
/// other side's delayed ACK (~40 ms).
inline void set_tcp_options(int fd, int timeout_ms) noexcept {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// A dotted IPv4 address and port; false when `host` is not one.
inline bool ipv4_address(const std::string& host, std::uint16_t port,
                         sockaddr_in& addr) noexcept {
  addr = sockaddr_in{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

}  // namespace detail

/// Writes all `size` bytes. Returns 0, or the errno of the send that
/// failed (EAGAIN: the send timeout expired; EPIPE: the peer is gone).
inline int send_all(int fd, const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, bytes, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return n < 0 ? errno : EPIPE;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return 0;
}

/// One recv(2) that retries EINTR: the byte count, 0 when the peer
/// closed, or -1 with errno set (EAGAIN: the receive timeout expired).
inline ssize_t recv_some(int fd, void* data, std::size_t size) noexcept {
  for (;;) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// Reads exactly `size` bytes. Returns 0, ECONNRESET when the peer
/// closes first, or the errno of the recv that failed.
inline int recv_exact(int fd, void* data, std::size_t size) noexcept {
  auto* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = recv_some(fd, bytes, size);
    if (n <= 0) return n < 0 ? errno : ECONNRESET;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return 0;
}

/// Connects to host:port (a dotted IPv4 address) with both socket
/// timeouts at `timeout_ms`; Linux bounds the connect by the send
/// timeout. Returns the connected fd, or -1 with errno set.
inline int connect_tcp(const std::string& host, std::uint16_t port,
                       int timeout_ms) noexcept {
  sockaddr_in addr;
  if (!detail::ipv4_address(host, port, addr)) {
    errno = EINVAL;
    return -1;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  detail::set_tcp_options(fd, timeout_ms);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int error = errno;
    ::close(fd);
    errno = error;
    return -1;
  }
  return fd;
}

/// A listening socket whose one accept thread hands each connection, in
/// turn, to a handler. Every accepted connection gets kTcpIoTimeoutMs
/// both ways and TCP_NODELAY. stop() shuts down the listen socket and the
/// connection in progress, joins the thread, and only then closes them,
/// so it never waits out an idle client's receive timeout and never
/// closes an fd the thread may still use.
class TcpServer {
 public:
  /// Serves one connection on the accept thread; the server closes the
  /// fd when it returns.
  using Handler = std::function<void(int fd)>;

  TcpServer() = default;
  ~TcpServer() { stop(); }

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds address:port on the fixed retry schedule (port 0 picks an
  /// ephemeral one), listens, and starts the accept thread. Returns 0,
  /// or the errno of the last failure (EINVAL: not a dotted IPv4
  /// address).
  int start(const std::string& address, std::uint16_t port,
            Handler handler) {
    if (running()) return 0;
    sockaddr_in addr;
    if (!detail::ipv4_address(address, port, addr)) return EINVAL;
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return errno;
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    int error = 0;
    int wait_ms = kTcpBindRetryInitialMs;
    for (int attempt = 0; attempt <= kTcpBindRetries; ++attempt) {
      if (attempt > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
        wait_ms *= 2;
      }
      error = ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr) == 0 &&
                      ::listen(listen_fd_, 16) == 0
                  ? 0
                  : errno;
      if (error == 0) break;
    }
    socklen_t len = sizeof addr;
    if (error == 0 && ::getsockname(listen_fd_,
                                    reinterpret_cast<sockaddr*>(&addr),
                                    &len) != 0)
      error = errno;
    if (error != 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return error;
    }
    port_ = ntohs(addr.sin_port);
    handler_ = std::move(handler);
    running_.store(true);
    thread_ = std::thread([this] { accept_loop(); });
    return 0;
  }

  /// Stops and joins the accept thread. True when this call stopped a
  /// running server; idempotent.
  bool stop() {
    if (!running_.exchange(false)) return false;
    ::shutdown(listen_fd_, SHUT_RDWR);
    // Taking the connection from conn_fd_ makes closing it this call's
    // job; the thread closes only what it still holds.
    const int conn = conn_fd_.exchange(-1);
    if (conn >= 0) ::shutdown(conn, SHUT_RDWR);
    thread_.join();
    if (conn >= 0) ::close(conn);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return true;
  }

  /// False once stop() has begun; handlers poll it between messages.
  bool running() const noexcept { return running_.load(); }

  /// The bound port (resolves port 0); 0 before start().
  std::uint16_t port() const noexcept { return port_; }

 private:
  void accept_loop() {
    while (running()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // stop()'s shutdown, or a listen socket that cannot accept
      }
      detail::set_tcp_options(fd, kTcpIoTimeoutMs);
      // Sequentially consistent with stop(): either it finds fd in
      // conn_fd_ and shuts it down, or this check sees the stop.
      conn_fd_.store(fd);
      if (running()) handler_(fd);
      const int own = conn_fd_.exchange(-1);
      if (own >= 0) ::close(own);
    }
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  Handler handler_;
  std::atomic<int> conn_fd_{-1};
  std::atomic<bool> running_{false};
  std::thread thread_;  // last: it uses every member above
};

}  // namespace appclass::common
