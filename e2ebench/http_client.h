// Blocking HTTP/1.1 keep-alive client for the closed-loop connections:
// one request in flight per connection, Content-Length framing, the
// whole response body returned to the caller for answer checking.

#ifndef ECDR_E2EBENCH_HTTP_CLIENT_H_
#define ECDR_E2EBENCH_HTTP_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

namespace e2ebench {

/// Renders a POST with a JSON body, keep-alive.
inline std::string RenderPost(std::string_view target, std::string_view body) {
  std::string request = "POST ";
  request += target;
  request +=
      " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
      "Content-Length: ";
  request += std::to_string(body.size());
  request += "\r\nConnection: keep-alive\r\n\r\n";
  request += body;
  return request;
}

inline std::string RenderGet(std::string_view target) {
  std::string request = "GET ";
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n";
  return request;
}

class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) {
    addr_.sin_family = AF_INET;
    addr_.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr_.sin_addr);
  }
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends `request` and reads the full response into `body`. Returns
  /// the HTTP status, or 0 on a transport or framing failure (the
  /// connection is then closed; the next call reconnects).
  int Exchange(const std::string& request, std::string* body) {
    body->clear();
    if (fd_ < 0 && !Connect()) return 0;
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return Fail();
      }
      sent += static_cast<std::size_t>(n);
    }
    head_.clear();
    std::size_t header_end = std::string::npos;
    char buffer[16384];
    while (header_end == std::string::npos) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return Fail();
      }
      const std::size_t scan_from = head_.size() < 3 ? 0 : head_.size() - 3;
      head_.append(buffer, static_cast<std::size_t>(n));
      header_end = head_.find("\r\n\r\n", scan_from);
      if (head_.size() > (1u << 20)) return Fail();
    }
    const std::size_t length_at = head_.find("Content-Length: ");
    if (length_at == std::string::npos || length_at > header_end ||
        head_.compare(0, 7, "HTTP/1.") != 0 || head_.size() < 12) {
      return Fail();
    }
    const std::size_t body_length = static_cast<std::size_t>(
        std::strtoull(head_.c_str() + length_at + 16, nullptr, 10));
    body->assign(head_, header_end + 4, std::string::npos);
    while (body->size() < body_length) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return Fail();
      }
      body->append(buffer, static_cast<std::size_t>(n));
    }
    if (body->size() != body_length) return Fail();  // pipelined garbage
    const int status = std::atoi(head_.c_str() + 9);
    const std::size_t close_at = head_.find("Connection: close");
    if (close_at != std::string::npos && close_at < header_end) Close();
    return status;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr_),
                  sizeof(addr_)) < 0) {
      Close();
      return false;
    }
    const int enable = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    return true;
  }

  int Fail() {
    Close();
    return 0;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  sockaddr_in addr_{};
  int fd_ = -1;
  std::string head_;
};

}  // namespace e2ebench

#endif  // ECDR_E2EBENCH_HTTP_CLIENT_H_
