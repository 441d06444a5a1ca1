// Blocking producer-side client for the framed binary transport.
//
// One connection, strictly request/response: send() writes a data
// frame and blocks (with a poll() timeout) until the listener's ack
// for that sequence number arrives. frame_sink() adapts a client to
// the replay driver so `crowdweb_replay --sink binary` and the
// live_monitor example reuse the same pacing loop as the CSV path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "ingest/replay.hpp"
#include "transport/frame.hpp"
#include "util/status.hpp"

namespace crowdweb::transport {

class FrameClient {
 public:
  FrameClient();
  ~FrameClient();
  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  [[nodiscard]] Status connect_tcp(const std::string& host, std::uint16_t port);
  void close();
  [[nodiscard]] bool connected() const noexcept;

  /// Sends one data frame and waits for its ack (sequence numbers are
  /// assigned by the client and must match).
  [[nodiscard]] Result<FrameAck> send(std::span<const ingest::IngestEvent> events);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Replay sink delivering batches as binary frames over `client`
/// (shared so the sink copy stays cheap).
[[nodiscard]] ingest::ReplaySink frame_sink(std::shared_ptr<FrameClient> client);

}  // namespace crowdweb::transport
