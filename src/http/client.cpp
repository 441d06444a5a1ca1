#include "http/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/format.hpp"
#include "util/strings.hpp"

namespace crowdweb::http {

namespace {

class Fd {
 public:
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

 private:
  int fd_;
};

/// How long fetch() waits for each read of the response.
constexpr int kReadTimeoutMs = 5'000;

Status wait_readable(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  const int r = ::poll(&pfd, 1, kReadTimeoutMs);
  if (r < 0) return io_error(crowdweb::format("poll failed: {}", std::strerror(errno)));
  if (r == 0) return unavailable("response timed out");
  return Status::ok();
}

}  // namespace

Result<ClientResponse> fetch(const std::string& host, std::uint16_t port,
                             std::string_view method, std::string_view target,
                             std::string_view body, ClientOptions options) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return io_error("socket() failed");

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1)
    return invalid_argument(crowdweb::format("bad host address '{}'", host));
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&address), sizeof address) != 0)
    return unavailable(
        crowdweb::format("connect({}:{}) failed: {}", host, port, std::strerror(errno)));

  std::string request = crowdweb::format("{} {} HTTP/1.1\r\nHost: {}:{}\r\n", method, target,
                                         host, port);
  if (!body.empty()) request += crowdweb::format("Content-Length: {}\r\n", body.size());
  for (const auto& [name, value] : options.headers)
    request += crowdweb::format("{}: {}\r\n", name, value);
  request += "Connection: close\r\n\r\n";
  request += body;

  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::write(fd.get(), request.data() + sent, request.size() - sent);
    if (n <= 0) return io_error("short write to server");
    sent += static_cast<std::size_t>(n);
  }

  std::string raw;
  char buffer[16 * 1024];
  while (true) {
    const Status ready = wait_readable(fd.get());
    if (!ready.is_ok()) return ready;
    const ssize_t n = ::read(fd.get(), buffer, sizeof buffer);
    if (n < 0) return io_error(crowdweb::format("read failed: {}", std::strerror(errno)));
    if (n == 0) break;
    raw.append(buffer, static_cast<std::size_t>(n));
    if (raw.size() > 64 * 1024 * 1024) return io_error("response too large");
  }

  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return parse_error("truncated response head");
  const std::string_view head = std::string_view(raw).substr(0, head_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const auto parts = split(status_line, ' ');
  if (parts.size() < 2 || !starts_with(parts[0], "HTTP/"))
    return parse_error("malformed status line");
  const auto status_code = parse_int(parts[1]);
  if (!status_code) return parse_error("malformed status code");

  ClientResponse response;
  response.status = static_cast<int>(*status_code);
  std::size_t cursor = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (cursor < head.size()) {
    std::size_t next = head.find("\r\n", cursor);
    if (next == std::string_view::npos) next = head.size();
    const std::string_view line = head.substr(cursor, next - cursor);
    cursor = next + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    response.headers[to_lower(trim(line.substr(0, colon)))] =
        std::string(trim(line.substr(colon + 1)));
  }
  response.body = raw.substr(head_end + 4);
  // Trust Content-Length when present (keep-alive servers would need it).
  if (const auto it = response.headers.find("content-length"); it != response.headers.end()) {
    if (const auto length = parse_int(it->second); length && *length >= 0 &&
                                                   static_cast<std::size_t>(*length) <=
                                                       response.body.size())
      response.body.resize(static_cast<std::size_t>(*length));
  }
  return response;
}

}  // namespace crowdweb::http
