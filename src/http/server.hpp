// Epoll HTTP/1.1 server with off-loop request execution.
//
// One event-loop thread does only socket work — accept, non-blocking
// read, incremental parse, and write — while parsed requests are
// dispatched to a fixed worker pool (ServerConfig::worker_threads).
// Workers run the router handler (or serve a ResponseCache hit),
// serialize the response, and hand the bytes back to the loop through a
// completion queue + eventfd wakeup; the loop flushes responses to each
// connection strictly in request order, so keep-alive pipelining still
// works while a 50 ms SVG render on one connection no longer blocks
// any other. worker_threads = 0 runs handlers inline on the loop
// thread (the pre-pool behavior, kept as a measurable baseline).
//
// With ServerConfig::cache set, GET routes marked cacheable in the
// router are served from the epoch-keyed response cache: hits skip the
// handler entirely, misses execute and populate the cache, and
// If-None-Match revalidation against the entry's strong ETag yields a
// 304 (see http/cache.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "http/cache.hpp"
#include "http/router.hpp"
#include "telemetry/metrics.hpp"
#include "util/status.hpp"

namespace crowdweb::http {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port (see Server::port()).
  std::uint16_t port = 0;
  /// Handler threads. < 0 = one per hardware thread
  /// (std::thread::hardware_concurrency); 0 = run handlers inline on
  /// the event-loop thread; >= 1 = a fixed pool of that size.
  int worker_threads = -1;
  /// listen(2) backlog for the accept queue. Raise it for bursty
  /// benchmark/production traffic so connection storms don't see
  /// ECONNREFUSED before the loop gets to accept.
  int listen_backlog = 64;
  /// Optional epoch-keyed response cache for GET routes registered
  /// with Router::get_cached. Must outlive the server. Null = every
  /// request executes its handler.
  ResponseCache* cache = nullptr;
  /// Telemetry registry the server records onto (crowdweb_http_*
  /// families; see docs/OBSERVABILITY.md). Must outlive the server.
  /// Null = the server keeps a private registry, so `stats()` works
  /// either way; sharing one registry with `/metrics` is how the
  /// counters become scrapable.
  telemetry::Registry* metrics = nullptr;
  /// Connections (keep-alive or streaming) with no socket traffic for
  /// this long are closed by the loop's sweep. Zero disables the sweep.
  /// Connections with a request still executing are never reaped.
  std::chrono::milliseconds idle_timeout{60'000};
  /// Per-connection cap on buffered unsent stream bytes; a subscriber
  /// that falls further behind than this is evicted (closed) so one
  /// slow consumer cannot pin memory.
  std::size_t stream_buffer_bytes = 256 * 1024;
};

/// Monotonic counters exposed by a running server. Since the telemetry
/// subsystem these are read back from the metrics registry (the
/// crowdweb_http_* families are the single accounting system); the
/// struct remains as a convenience snapshot.
struct ServerStats {
  std::uint64_t requests = 0;    ///< requests dispatched to the router
  std::uint64_t bad_requests = 0;  ///< parse failures answered with 400
  std::uint64_t connections = 0;   ///< connections accepted
  std::uint64_t responses_2xx = 0;  ///< responses with a 2xx status
  std::uint64_t responses_4xx = 0;  ///< responses with a 4xx status (incl. parse 400s)
  std::uint64_t responses_5xx = 0;  ///< responses with a 5xx status
  std::uint64_t bytes_written = 0;  ///< response bytes flushed to sockets
};

class Server {
 public:
  /// The router is copied; register all routes before starting.
  Server(Router router, ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, spawns the worker pool and the event loop.
  [[nodiscard]] Status start();

  /// Stops the workers and the loop, then joins (idempotent).
  void stop();

  [[nodiscard]] bool running() const noexcept;

  /// The bound port (useful with port 0). 0 before start().
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Handler threads actually in use (0 = inline mode).
  [[nodiscard]] int worker_threads() const noexcept;

  /// Lifetime counters (monotonic across restarts of the same Server).
  [[nodiscard]] ServerStats stats() const noexcept;

  /// Fans `bytes` (already SSE-framed; see transport/sse.hpp) out to
  /// every connection subscribed to `channel`. Thread-safe and
  /// non-blocking: bytes are queued for the loop thread, which appends
  /// them to each subscriber's send buffer and evicts consumers that
  /// fall behind stream_buffer_bytes. A no-op while the server is
  /// stopped or the channel has no subscribers.
  void publish_stream(const std::string& channel, std::string_view bytes);

  /// Connections currently subscribed to `channel`. Thread-safe;
  /// publishers use it to skip rendering for silent channels.
  [[nodiscard]] std::size_t stream_subscribers(const std::string& channel) const;

  /// Channels with at least one subscriber. Thread-safe.
  [[nodiscard]] std::vector<std::string> stream_channels() const;

  /// Connections closed by the idle-timeout sweep (lifetime count).
  [[nodiscard]] std::uint64_t idle_closed() const noexcept;

  /// Streaming subscribers evicted for falling behind (lifetime count).
  [[nodiscard]] std::uint64_t stream_evictions() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace crowdweb::http
