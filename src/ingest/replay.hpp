// Replay driver: feeds a recorded check-in stream through the ingestion
// path at a configurable event rate.
//
// The driver is sink-agnostic so the same pacing loop exercises every
// layer: `worker_sink` submits straight into an IngestWorker's queue
// (benches, tests), `http_sink` POSTs CSV batches to a running server's
// /api/ingest route (the live_monitor example), and tests can pass any
// lambda. Rejected events are reported, never silently dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "data/checkin.hpp"
#include "data/dataset.hpp"
#include "ingest/worker.hpp"
#include "util/status.hpp"

namespace crowdweb::ingest {

struct ReplayOptions {
  /// Target sustained rate; <= 0 replays as fast as the sink accepts.
  double events_per_second = 1'000.0;
  /// Events delivered per sink call.
  std::size_t batch_size = 64;
  /// Stop after this many events (0 = the whole stream).
  std::size_t max_events = 0;
  /// Stop after this much wall-clock time (0 = unbounded).
  double max_seconds = 0.0;
};

struct ReplayReport {
  std::size_t offered = 0;    ///< events handed to the sink
  std::size_t accepted = 0;   ///< events the sink took
  std::size_t rejected = 0;   ///< backpressure rejections
  double elapsed_seconds = 0.0;

  [[nodiscard]] double offered_per_second() const noexcept {
    return elapsed_seconds > 0.0 ? static_cast<double>(offered) / elapsed_seconds : 0.0;
  }
};

/// Outcome of delivering one batch.
struct SinkReport {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

using ReplaySink = std::function<Result<SinkReport>(std::span<const IngestEvent>)>;

/// Paces `stream` (already time-ordered) through `sink`. Stops early on
/// a sink error and returns it.
[[nodiscard]] Result<ReplayReport> replay(std::span<const data::CheckIn> stream,
                                          const ReplayOptions& options,
                                          const ReplaySink& sink);

/// Converts a recorded check-in to an ingest event (venue identity is
/// re-resolved by the worker).
[[nodiscard]] IngestEvent to_event(const data::CheckIn& checkin) noexcept;

/// Sink submitting into a worker's queue with backpressure accounting.
[[nodiscard]] ReplaySink worker_sink(IngestWorker& worker);

/// Sink POSTing CSV batches to `/api/ingest` on a running server. The
/// taxonomy must outlive the sink (category ids become names).
[[nodiscard]] ReplaySink http_sink(std::string host, std::uint16_t port,
                                   const data::Taxonomy& taxonomy);

/// The `/api/ingest` CSV body for a batch of events:
/// `user,category,lat,lon,timestamp` with one row per event.
[[nodiscard]] std::string events_csv(std::span<const IngestEvent> events,
                                     const data::Taxonomy& taxonomy);

}  // namespace crowdweb::ingest
