// The pluggable ingest-source interface.
//
// Every way check-ins enter the system — the HTTP CSV route, the framed
// binary TCP listener, the disk spool drainer — implements
// IngestSource and submits through one IngestPipeline (pipeline.hpp),
// so backpressure, spill-to-spool, and the crowdweb_transport_*
// accounting behave identically no matter how rows arrive. Mirrors the
// S1-SEE IngestAdapter design: transports are interchangeable at the
// edge, the queue contract stays in one place.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

#include "util/status.hpp"

namespace crowdweb::transport {

/// Monotonic per-source counters (also exported as the
/// crowdweb_transport_* families when a registry is attached).
struct SourceStats {
  std::uint64_t frames = 0;         ///< batches received (HTTP bodies count as one)
  std::uint64_t events = 0;         ///< events carried by those batches
  std::uint64_t accepted = 0;       ///< events the queue took
  std::uint64_t rejected = 0;       ///< events refused (queue full, no spool room)
  std::uint64_t spooled = 0;        ///< events absorbed by the disk spool
  std::uint64_t invalid = 0;        ///< events refused before submission
  std::uint64_t decode_errors = 0;  ///< malformed frames / CSV bodies
};

class IngestSource {
 public:
  virtual ~IngestSource() = default;

  /// Stable label ("http_csv", "tcp", "spool") used for metric
  /// series and logs.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Begins accepting producers (listener sources bind here; the HTTP
  /// CSV source is passive and returns OK).
  [[nodiscard]] virtual Status start() = 0;

  /// Stops accepting and joins any threads (idempotent).
  virtual void stop() = 0;

  [[nodiscard]] virtual bool running() const noexcept = 0;

  [[nodiscard]] virtual SourceStats stats() const noexcept = 0;
};

/// Lock-free counter block concrete sources aggregate into (they all
/// report SourceStats from one of these).
struct SourceCounters {
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> events{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> spooled{0};
  std::atomic<std::uint64_t> invalid{0};
  std::atomic<std::uint64_t> decode_errors{0};

  [[nodiscard]] SourceStats snapshot() const noexcept {
    SourceStats stats;
    stats.frames = frames.load(std::memory_order_relaxed);
    stats.events = events.load(std::memory_order_relaxed);
    stats.accepted = accepted.load(std::memory_order_relaxed);
    stats.rejected = rejected.load(std::memory_order_relaxed);
    stats.spooled = spooled.load(std::memory_order_relaxed);
    stats.invalid = invalid.load(std::memory_order_relaxed);
    stats.decode_errors = decode_errors.load(std::memory_order_relaxed);
    return stats;
  }
};

}  // namespace crowdweb::transport
