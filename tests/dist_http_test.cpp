// Hardened HTTP GET client: every failure mode a misbehaving or hostile
// peer can trigger gets a distinct error, so per-worker scrape health
// can say *why* a worker is unreachable. The fixture is a raw canned-
// response server — the client must survive peers that are not HTTP
// servers at all.
#include "dist/http.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>

namespace appclass::dist {
namespace {

/// One-shot server: accepts a single connection, writes `response`
/// verbatim (or nothing when `stall` is set), then closes.
class CannedServer {
 public:
  explicit CannedServer(std::string response, bool stall = false) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    thread_ = std::thread([this, response = std::move(response), stall] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      if (stall) {
        // Hold the connection open without a byte until the client's
        // read timeout trips; the client closing unblocks this recv.
        char byte;
        (void)::recv(fd, &byte, 1, 0);
        while (::recv(fd, &byte, 1, 0) > 0) {
        }
      } else {
        // Drain the request first: closing with unread inbound data
        // turns into an RST that can discard the buffered response.
        std::string request;
        char buffer[1024];
        while (request.find("\r\n\r\n") == std::string::npos) {
          const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
          if (n <= 0) break;
          request.append(buffer, static_cast<std::size_t>(n));
        }
        (void)!::write(fd, response.data(), response.size());
      }
      ::close(fd);
    });
  }

  ~CannedServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(DistHttpTest, CompleteResponseReturnsOkWithBody) {
  CannedServer server(
      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello");
  const HttpResult result = http_get_ex("127.0.0.1", server.port(), "/x");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.error, HttpError::kOk);
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "hello");
}

TEST(DistHttpTest, NonOkStatusIsDistinctFromTransportFailure) {
  CannedServer server(
      "HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n\r\nnot found");
  const HttpResult result = http_get_ex("127.0.0.1", server.port(), "/x");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, HttpError::kStatus);
  EXPECT_EQ(result.status, 404);
  EXPECT_EQ(result.body, "not found");
}

TEST(DistHttpTest, ResponseOverCapIsTooLarge) {
  const std::string body(4096, 'x');
  CannedServer server("HTTP/1.1 200 OK\r\n\r\n" + body);
  HttpGetOptions options;
  options.max_response_bytes = 512;
  const HttpResult result =
      http_get_ex("127.0.0.1", server.port(), "/x", options);
  EXPECT_EQ(result.error, HttpError::kTooLarge);
}

TEST(DistHttpTest, AnnouncedOversizeBodyRejectedBeforeDraining) {
  // Content-Length alone exceeds the cap: the client must abort on the
  // headers, not buffer gigabytes first. Header names match in any case.
  for (const char* header : {"Content-Length", "content-length"}) {
    CannedServer server(std::string("HTTP/1.1 200 OK\r\n") + header +
                        ": 999999999\r\n\r\nstart");
    HttpGetOptions options;
    options.max_response_bytes = 1024;
    const HttpResult result =
        http_get_ex("127.0.0.1", server.port(), "/x", options);
    EXPECT_EQ(result.error, HttpError::kTooLarge) << header;
  }
}

TEST(DistHttpTest, BodyShorterThanContentLengthIsProtocolError) {
  // The peer closes after 5 of 10 announced bytes (a worker killed
  // mid-response): the truncated body must not reach a merge.
  CannedServer server("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello");
  const HttpResult result = http_get_ex("127.0.0.1", server.port(), "/x");
  EXPECT_EQ(result.error, HttpError::kProtocol);
  EXPECT_TRUE(result.body.empty());
}

TEST(DistHttpTest, ChunkedTransferEncodingIsRejectedNotMisparsed) {
  CannedServer server(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\n");
  const HttpResult result = http_get_ex("127.0.0.1", server.port(), "/x");
  EXPECT_EQ(result.error, HttpError::kChunked);
}

TEST(DistHttpTest, SilentPeerTripsTheReadTimeout) {
  CannedServer server("", /*stall=*/true);
  HttpGetOptions options;
  options.timeout_ms = 200;
  const HttpResult result =
      http_get_ex("127.0.0.1", server.port(), "/x", options);
  EXPECT_EQ(result.error, HttpError::kTimeout);
}

TEST(DistHttpTest, RefusedConnectionIsConnectError) {
  // Bind-then-close guarantees a port with nothing listening.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);

  const HttpResult result = http_get_ex("127.0.0.1", port, "/x");
  EXPECT_EQ(result.error, HttpError::kConnect);
  EXPECT_EQ(result.status, 0);
}

TEST(DistHttpTest, NonHttpBytesAreProtocolError) {
  CannedServer server("I am not an HTTP server\r\n\r\n");
  const HttpResult result = http_get_ex("127.0.0.1", server.port(), "/x");
  EXPECT_EQ(result.error, HttpError::kProtocol);
}

TEST(DistHttpTest, MissingHeaderTerminatorIsProtocolError) {
  CannedServer server("HTTP/1.1 200 OK\r\nTruncated-Mid-Head");
  const HttpResult result = http_get_ex("127.0.0.1", server.port(), "/x");
  EXPECT_EQ(result.error, HttpError::kProtocol);
}

TEST(DistHttpTest, ErrorNamesAreStableForScrapeHealth) {
  EXPECT_STREQ(to_string(HttpError::kOk), "ok");
  EXPECT_STREQ(to_string(HttpError::kConnect), "connect");
  EXPECT_STREQ(to_string(HttpError::kTimeout), "timeout");
  EXPECT_STREQ(to_string(HttpError::kTooLarge), "too-large");
  EXPECT_STREQ(to_string(HttpError::kChunked), "chunked");
  EXPECT_STREQ(to_string(HttpError::kProtocol), "protocol");
  EXPECT_STREQ(to_string(HttpError::kStatus), "status");
}

TEST(DistHttpTest, ThinWrapperReturnsBodyOnlyOn200) {
  {
    CannedServer server("HTTP/1.1 200 OK\r\n\r\npayload");
    const auto body = http_get("127.0.0.1", server.port(), "/x");
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(*body, "payload");
  }
  {
    CannedServer server("HTTP/1.1 500 Oops\r\n\r\nboom");
    EXPECT_FALSE(http_get("127.0.0.1", server.port(), "/x").has_value());
  }
}

}  // namespace
}  // namespace appclass::dist
