// Framed binary listener: the high-throughput ingest edge.
//
// Producers connect over TCP, stream length-prefixed checksummed data
// frames (frame.hpp), and receive one ack frame per data frame echoing
// its sequence number with the accepted/rejected split.
// One epoll loop thread owns every producer socket: reads, decodes,
// submits through the IngestPipeline inline (queue push is O(batch)),
// and writes acks.
// Acks follow Nagle's rule: a wake that decoded only small frames
// (under 64 events) holds their acks until about 1 ms after the first
// arrived (they go out on the first wake after that deadline), so a stop-and-wait producer's next frame carries every
// event that came due meanwhile. A full frame, the producer's FIN or a
// close sends held acks at once. Submission is never delayed, and acks
// keep their order.
// A malformed frame is unrecoverable mid-stream (no resync marker), so
// the connection is counted and closed. Idle producers are reaped by
// the same idle-timeout sweep the HTTP server uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "telemetry/metrics.hpp"
#include "transport/frame.hpp"
#include "transport/pipeline.hpp"
#include "util/status.hpp"

namespace crowdweb::transport {

struct FrameServerConfig {
  /// TCP listen address.
  std::string address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Close producer sockets with no traffic for this long; zero
  /// disables the sweep.
  std::chrono::milliseconds idle_timeout{60'000};
  /// Optional registry for the listener's series
  /// (crowdweb_transport_connections, crowdweb_transport_acks_held_total).
  /// Must outlive the server.
  telemetry::Registry* metrics = nullptr;
};

/// Monotonic listener counters.
struct FrameServerStats {
  std::uint64_t frames = 0;         ///< data frames received
  std::uint64_t events = 0;         ///< events carried by those frames
  std::uint64_t accepted = 0;       ///< events the queue took
  std::uint64_t rejected = 0;       ///< events refused (queue full)
  std::uint64_t decode_errors = 0;  ///< malformed frames
  std::uint64_t acks_held = 0;      ///< acks of small frames held back
};

class FrameServer {
 public:
  /// `pipeline` must outlive the server.
  FrameServer(IngestPipeline& pipeline, FrameServerConfig config);
  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds the listener and starts the loop thread.
  [[nodiscard]] Status start();
  /// Stops accepting, closes every producer socket, and joins
  /// (idempotent).
  void stop();
  [[nodiscard]] bool running() const noexcept;
  [[nodiscard]] FrameServerStats stats() const noexcept;

  /// The bound TCP port (after start).
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Producer sockets currently open (racy snapshot).
  [[nodiscard]] std::size_t connections() const noexcept;

  /// Connections closed by the idle sweep.
  [[nodiscard]] std::uint64_t idle_closed() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace crowdweb::transport
