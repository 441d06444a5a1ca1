// HTTP/1.1 message types and an incremental request parser.
//
// Scope: the subset a localhost JSON API needs — GET/POST/HEAD,
// Content-Length bodies (no chunked transfer), ASCII headers, bounded
// sizes. The parser consumes a growing buffer and reports NeedMore until
// a full request is available, so the server can feed it straight from
// epoll reads.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace crowdweb::http {

struct Request {
  std::string method;   ///< "GET", uppercased
  std::string path;     ///< decoded path without query ("/api/crowd")
  std::string query;    ///< raw query string without '?'
  std::string version;  ///< "HTTP/1.1"
  /// Header names lowercased.
  std::map<std::string, std::string> headers;
  std::string body;

  [[nodiscard]] std::optional<std::string_view> header(std::string_view name) const;
  /// Decoded query parameter, if present.
  [[nodiscard]] std::optional<std::string> query_param(std::string_view name) const;
  [[nodiscard]] bool keep_alive() const;
};

/// The epoch a response body was rendered from: the response-cache key
/// epoch and its ETag rendition (see ResponseCache::set_epoch).
struct RenderedEpoch {
  std::uint64_t key = 0;
  std::string tag;
};

struct Response {
  int status = 200;
  std::map<std::string, std::string> headers;
  std::string body;
  /// Set by handlers that render from a pinned epoch. ResponseCache::
  /// insert files the body under this epoch instead of the cache's
  /// current one, and stores nothing once a newer epoch has published,
  /// so a publish landing mid-render cannot make epoch E's body answer
  /// for E+1. Unset = the cache's epoch at insert time.
  std::optional<RenderedEpoch> rendered_at;
  /// Non-empty turns this into a streaming response: the server keeps
  /// the connection open after writing `body` (the initial payload) and
  /// fans subsequent Server::publish_stream(channel, ...) bytes into
  /// it. Serialized without Content-Length and always keep-alive.
  std::string stream_channel;

  static Response text(int status, std::string body,
                       std::string content_type = "text/plain; charset=utf-8");
  static Response json(int status, std::string body);
  static Response html(int status, std::string body);
  static Response svg(int status, std::string body);
  static Response not_found_404();
  static Response bad_request_400(std::string message);
};

/// Standard reason phrase for a status code.
[[nodiscard]] std::string_view reason_phrase(int status) noexcept;

/// Serializes a response (adds Content-Length; keeps existing headers).
[[nodiscard]] std::string serialize(const Response& response, bool keep_alive);

enum class ParseState { kNeedMore, kComplete, kError };

struct ParseResult {
  ParseState state = ParseState::kNeedMore;
  Request request;           ///< valid when state == kComplete
  std::size_t consumed = 0;  ///< bytes consumed from the buffer when complete
  std::string error;         ///< human-readable when state == kError
};

struct ParseLimits {
  std::size_t max_head_bytes = 16 * 1024;
  std::size_t max_body_bytes = 4 * 1024 * 1024;
};

/// Attempts to parse one request from the front of `buffer`.
[[nodiscard]] ParseResult parse_request(std::string_view buffer, ParseLimits limits = {});

}  // namespace crowdweb::http
