// Framed binary listener: the high-throughput ingest edge.
//
// Producers connect over TCP, stream length-prefixed checksummed data
// frames (frame.hpp), and receive one ack frame per data frame echoing
// its sequence number with the accepted/rejected/spooled/invalid split.
// One epoll loop thread owns every producer socket: reads, decodes,
// submits through the IngestPipeline inline (queue push is O(batch)),
// and writes acks.
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
#include "transport/source.hpp"
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
  /// Per-frame payload cap handed to decode_frame().
  std::size_t max_frame_payload_bytes = kMaxFramePayloadBytes;
  /// Optional registry for the listener gauge
  /// (crowdweb_transport_connections). Must outlive the server.
  telemetry::Registry* metrics = nullptr;
};

class FrameServer final : public IngestSource {
 public:
  /// `pipeline` must outlive the server.
  FrameServer(IngestPipeline& pipeline, FrameServerConfig config);
  ~FrameServer() override;
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  [[nodiscard]] std::string_view name() const noexcept override;
  [[nodiscard]] Status start() override;
  void stop() override;
  [[nodiscard]] bool running() const noexcept override;
  [[nodiscard]] SourceStats stats() const noexcept override;

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
