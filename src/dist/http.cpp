#include "dist/http.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "common/net.hpp"

namespace appclass::dist {

namespace {

char to_lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

/// The value of header `name` in a raw header block, lowercased; the
/// name matches in any case (RFC 9110). nullopt when absent.
std::optional<std::string> header_value(std::string_view headers,
                                        std::string_view name) {
  std::size_t at = 0;
  while (at < headers.size()) {
    const std::size_t eol =
        std::min(headers.find("\r\n", at), headers.size());
    const std::string_view line = headers.substr(at, eol - at);
    at = eol + 2;
    if (line.size() <= name.size() || line[name.size()] != ':' ||
        !std::equal(name.begin(), name.end(), line.begin(),
                    [](char a, char b) { return to_lower(a) == to_lower(b); }))
      continue;
    std::string value(line.substr(name.size() + 1));
    std::transform(value.begin(), value.end(), value.begin(), to_lower);
    return value;
  }
  return std::nullopt;
}

/// Sends the request on a connected socket and reads the response to
/// EOF (Connection: close) under the byte cap, filling `result`.
HttpError exchange(int fd, const std::string& request,
                   const HttpGetOptions& options, HttpResult& result) {
  if (common::send_all(fd, request.data(), request.size()) != 0)
    return HttpError::kTimeout;
  std::string response;
  char buffer[4096];
  std::size_t headers_end = std::string::npos;
  std::size_t content_length = std::string::npos;  // none announced
  for (;;) {
    const ssize_t n = common::recv_some(fd, buffer, sizeof buffer);
    // EAGAIN/EWOULDBLOCK here means the SO_RCVTIMEO budget expired.
    if (n < 0)
      return errno == EAGAIN || errno == EWOULDBLOCK ? HttpError::kTimeout
                                                     : HttpError::kConnect;
    if (n == 0) break;
    if (response.size() + static_cast<std::size_t>(n) >
        options.max_response_bytes)
      return HttpError::kTooLarge;
    response.append(buffer, static_cast<std::size_t>(n));
    if (headers_end != std::string::npos) continue;
    headers_end = response.find("\r\n\r\n");
    if (headers_end == std::string::npos) continue;
    const std::string_view headers(response.data(), headers_end);
    const auto encoding = header_value(headers, "transfer-encoding");
    if (encoding && encoding->find("chunked") != std::string::npos)
      return HttpError::kChunked;
    // Reject an announced oversize body before draining it.
    if (const auto length = header_value(headers, "content-length")) {
      content_length = std::strtoull(length->c_str(), nullptr, 10);
      if (content_length > options.max_response_bytes)
        return HttpError::kTooLarge;
    }
  }
  // Status line: HTTP/1.x NNN ...
  if (headers_end == std::string::npos || response.rfind("HTTP/1.", 0) != 0 ||
      response.size() < 12)
    return HttpError::kProtocol;
  result.status = std::atoi(response.c_str() + 9);
  // A peer that closed short of its announced length (a worker killed
  // mid-response) sent a truncated body: never hand it to a merge.
  if (content_length != std::string::npos &&
      response.size() - (headers_end + 4) < content_length)
    return HttpError::kProtocol;
  result.body = response.substr(headers_end + 4);
  return result.status == 200 ? HttpError::kOk : HttpError::kStatus;
}

}  // namespace

const char* to_string(HttpError error) noexcept {
  switch (error) {
    case HttpError::kOk: return "ok";
    case HttpError::kConnect: return "connect";
    case HttpError::kTimeout: return "timeout";
    case HttpError::kTooLarge: return "too-large";
    case HttpError::kChunked: return "chunked";
    case HttpError::kProtocol: return "protocol";
    case HttpError::kStatus: return "status";
  }
  return "unknown";
}

HttpResult http_get_ex(const std::string& host, std::uint16_t port,
                       const std::string& path,
                       const HttpGetOptions& options) {
  HttpResult result;
  const int fd = common::connect_tcp(host, port, options.timeout_ms);
  if (fd < 0) return result;  // kConnect
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  result.error = exchange(fd, request, options, result);
  ::close(fd);
  return result;
}

std::optional<std::string> http_get(const std::string& host,
                                    std::uint16_t port,
                                    const std::string& path,
                                    int timeout_ms) {
  HttpGetOptions options;
  options.timeout_ms = timeout_ms;
  HttpResult result = http_get_ex(host, port, path, options);
  if (!result.ok()) return std::nullopt;
  return std::move(result.body);
}

}  // namespace appclass::dist
