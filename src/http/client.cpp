#include "http/client.hpp"

#include <chrono>

#include "util/format.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"

namespace crowdweb::http {

namespace {

/// How long fetch() waits for each read of the response.
constexpr std::chrono::milliseconds kReadTimeout{5'000};

}  // namespace

Result<ClientResponse> fetch(const std::string& host, std::uint16_t port,
                             std::string_view method, std::string_view target,
                             std::string_view body, ClientOptions options) {
  Result<net::Fd> fd = net::connect_tcp(host, port);
  // A server that is not there is unavailable, not an I/O fault.
  if (!fd.is_ok() && fd.status().code() == StatusCode::kIoError)
    return unavailable(fd.status().message());
  if (!fd.is_ok()) return fd.status();

  std::string request = crowdweb::format("{} {} HTTP/1.1\r\nHost: {}:{}\r\n", method, target,
                                         host, port);
  if (!body.empty()) request += crowdweb::format("Content-Length: {}\r\n", body.size());
  for (const auto& [name, value] : options.headers)
    request += crowdweb::format("{}: {}\r\n", name, value);
  request += "Connection: close\r\n\r\n";
  request += body;

  if (Status sent = net::send_all(fd->get(), request); !sent.is_ok()) return sent;

  std::string raw;
  char buffer[16 * 1024];
  while (true) {
    const Result<std::size_t> read = net::read_before(
        fd->get(), buffer, raw, std::chrono::steady_clock::now() + kReadTimeout);
    if (!read.is_ok()) return read.status();
    if (*read == 0) break;
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
