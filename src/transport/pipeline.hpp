// IngestPipeline: the single funnel every transport submits through.
//
// A transport (HTTP CSV route, framed TCP listener) hands batches to
// submit(); the pipeline pushes them into the deployment's queue via the
// SubmitFn and reports what was taken. Rejected events go back to the
// producer, which retries them. All outcomes land on the
// crowdweb_transport_* metric families, labeled by source.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>

#include "ingest/event.hpp"
#include "ingest/worker.hpp"
#include "telemetry/metrics.hpp"

namespace crowdweb::transport {

using SubmitFn = std::function<ingest::SubmitResult(std::span<const ingest::IngestEvent>)>;

struct PipelineConfig {
  /// Registry for the crowdweb_transport_* families. Must outlive the
  /// pipeline. Null = nothing is counted.
  telemetry::Registry* metrics = nullptr;
};

class IngestPipeline {
 public:
  IngestPipeline(SubmitFn submit, PipelineConfig config = {});
  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Submits one batch for `source` ("http_csv", "tcp"). Thread-safe.
  /// Counts one frame + the per-event outcomes onto the metric families.
  ingest::SubmitResult submit(std::span<const ingest::IngestEvent> events,
                              std::string_view source);

  /// Accounts rows a source refused before submission. Thread-safe.
  void note_invalid(std::uint64_t count, std::string_view source);

  /// Accounts a malformed frame / body for `source`. Thread-safe.
  void note_decode_error(std::string_view source);

 private:
  void count_events(std::string_view source, const char* outcome, std::size_t n);

  SubmitFn submit_fn_;
  telemetry::CounterFamily* frames_ = nullptr;
  telemetry::CounterFamily* events_ = nullptr;
  telemetry::CounterFamily* decode_errors_ = nullptr;
};

}  // namespace crowdweb::transport
