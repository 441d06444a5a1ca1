// Minimal blocking HTTP client for tests and examples.
//
// One request per call: connect, send, read the full response (by
// Content-Length, or until EOF when absent). Not for production use —
// it exists so the integration tests can exercise the server over a real
// socket.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace crowdweb::http {

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< names lowercased
  std::string body;
};

struct ClientOptions {
  /// Extra request headers (e.g. {"If-None-Match", "\"1-abc\""}).
  std::map<std::string, std::string> headers;
};

/// Performs one HTTP/1.1 request against host:port.
[[nodiscard]] Result<ClientResponse> fetch(const std::string& host, std::uint16_t port,
                                           std::string_view method, std::string_view target,
                                           std::string_view body = {},
                                           ClientOptions options = {});

/// GET convenience wrapper.
[[nodiscard]] inline Result<ClientResponse> get(const std::string& host, std::uint16_t port,
                                                std::string_view target,
                                                ClientOptions options = {}) {
  return fetch(host, port, "GET", target, {}, options);
}

}  // namespace crowdweb::http
