#include "transport/pipeline.hpp"

#include <string>
#include <utility>

namespace crowdweb::transport {

IngestPipeline::IngestPipeline(SubmitFn submit, PipelineConfig config)
    : submit_fn_(std::move(submit)) {
  telemetry::Registry* metrics = config.metrics;
  if (metrics == nullptr) return;
  frames_ = &metrics->counter_family("crowdweb_transport_frames_total",
                                     "Ingest batches received, by transport source.",
                                     {"source"});
  events_ = &metrics->counter_family(
      "crowdweb_transport_events_total",
      "Ingest events by transport source and outcome (accepted|rejected|invalid).",
      {"source", "outcome"});
  decode_errors_ = &metrics->counter_family(
      "crowdweb_transport_decode_errors_total",
      "Malformed frames or bodies refused, by transport source.", {"source"});
}

void IngestPipeline::count_events(std::string_view source, const char* outcome,
                                  std::size_t n) {
  if (events_ == nullptr || n == 0) return;
  events_->with_labels({std::string(source), outcome})
      .increment(static_cast<std::uint64_t>(n));
}

ingest::SubmitResult IngestPipeline::submit(std::span<const ingest::IngestEvent> events,
                                            std::string_view source) {
  const ingest::SubmitResult result = submit_fn_(events);
  if (frames_ != nullptr) frames_->with_labels({std::string(source)}).increment();
  count_events(source, "accepted", result.accepted);
  count_events(source, "rejected", result.rejected);
  return result;
}

void IngestPipeline::note_invalid(std::uint64_t count, std::string_view source) {
  count_events(source, "invalid", count);
}

void IngestPipeline::note_decode_error(std::string_view source) {
  if (decode_errors_ != nullptr)
    decode_errors_->with_labels({std::string(source)}).increment();
}

}  // namespace crowdweb::transport
