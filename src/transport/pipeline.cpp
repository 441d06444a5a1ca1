#include "transport/pipeline.hpp"

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "transport/source.hpp"
#include "util/log.hpp"

namespace crowdweb::transport {

struct IngestPipeline::Impl {
  SubmitFn submit_fn;
  PipelineConfig config;
  std::unique_ptr<Spool> spool;
  std::unique_ptr<IngestSource> drain_source;  // created with the spool

  telemetry::CounterFamily* frames_family = nullptr;
  telemetry::CounterFamily* events_family = nullptr;
  telemetry::CounterFamily* decode_errors_family = nullptr;

  // Drain-source state: one thread replays spooled frames into the
  // queue as capacity frees up.
  std::mutex drain_mutex;
  std::condition_variable drain_cv;
  bool drain_stop = false;
  bool drain_idle = true;  ///< true while the drainer is parked on an empty spool
  std::thread drain_thread;
  SourceCounters drain_counters;
  std::atomic<bool> drain_running{false};

  void init_metrics() {
    telemetry::Registry* metrics = config.metrics;
    if (metrics == nullptr) return;
    frames_family = &metrics->counter_family(
        "crowdweb_transport_frames_total",
        "Ingest batches received, by transport source.", {"source"});
    events_family = &metrics->counter_family(
        "crowdweb_transport_events_total",
        "Ingest events by transport source and outcome "
        "(accepted|rejected|spooled|invalid).",
        {"source", "outcome"});
    decode_errors_family = &metrics->counter_family(
        "crowdweb_transport_decode_errors_total",
        "Malformed frames or bodies refused, by transport source.", {"source"});
  }

  void count_events(std::string_view source, const char* outcome, std::size_t n) {
    if (events_family == nullptr || n == 0) return;
    events_family->with_labels({std::string(source), outcome})
        .increment(static_cast<std::uint64_t>(n));
  }

  PipelineOutcome submit(std::span<const ingest::IngestEvent> events,
                         std::string_view source) {
    PipelineOutcome outcome;
    const ingest::SubmitResult result = submit_fn(events);
    outcome.accepted = result.accepted;
    if (result.rejected > 0) {
      // The queue fills front to back, so the rejected part is exactly
      // the batch suffix (see the SubmitFn contract in pipeline.hpp).
      const auto suffix = events.subspan(events.size() - result.rejected);
      if (spool != nullptr && spool->append(suffix)) {
        outcome.spooled = result.rejected;
        drain_cv.notify_one();
      } else {
        outcome.rejected = result.rejected;
      }
    }
    if (frames_family != nullptr)
      frames_family->with_labels({std::string(source)}).increment();
    count_events(source, "accepted", outcome.accepted);
    count_events(source, "rejected", outcome.rejected);
    count_events(source, "spooled", outcome.spooled);
    return outcome;
  }

  void drain_run() {
    std::vector<ingest::IngestEvent> events;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(drain_mutex);
        if (drain_stop) return;
      }
      events.clear();
      if (!spool->peek(events)) {
        std::unique_lock<std::mutex> lock(drain_mutex);
        drain_idle = true;
        drain_cv.notify_all();  // wait_until_drained watchers
        drain_cv.wait_for(lock, config.drain_retry * 5,
                          [this] { return drain_stop; });
        drain_idle = false;
        continue;
      }
      drain_counters.frames.fetch_add(1, std::memory_order_relaxed);
      drain_counters.events.fetch_add(events.size(), std::memory_order_relaxed);
      // Push the frame until the queue takes all of it; a partial
      // accept leaves the suffix for the next attempt after a backoff.
      std::size_t offset = 0;
      bool interrupted = false;
      while (offset < events.size()) {
        const ingest::SubmitResult result = submit_fn(
            std::span<const ingest::IngestEvent>(events).subspan(offset));
        offset += result.accepted;
        drain_counters.accepted.fetch_add(result.accepted, std::memory_order_relaxed);
        if (result.rejected == 0) break;
        std::unique_lock<std::mutex> lock(drain_mutex);
        if (drain_cv.wait_for(lock, config.drain_retry, [this] { return drain_stop; })) {
          interrupted = true;
          break;
        }
      }
      if (interrupted && offset < events.size()) return;  // frame stays spooled
      spool->pop();
      count_events("spool", "accepted", offset);
      if (frames_family != nullptr) frames_family->with_labels({"spool"}).increment();
    }
  }
};

namespace {

/// The drain thread viewed through the IngestSource interface.
class SpoolSource final : public IngestSource {
 public:
  explicit SpoolSource(IngestPipeline::Impl& impl) : impl_(impl) {}
  ~SpoolSource() override { stop(); }

  [[nodiscard]] std::string_view name() const noexcept override { return "spool"; }

  [[nodiscard]] Status start() override {
    if (impl_.drain_running.load()) return Status::ok();
    {
      std::lock_guard<std::mutex> lock(impl_.drain_mutex);
      impl_.drain_stop = false;
      impl_.drain_idle = false;
    }
    impl_.drain_thread = std::thread([this] { impl_.drain_run(); });
    impl_.drain_running.store(true);
    return Status::ok();
  }

  void stop() override {
    if (!impl_.drain_running.load()) return;
    {
      std::lock_guard<std::mutex> lock(impl_.drain_mutex);
      impl_.drain_stop = true;
    }
    impl_.drain_cv.notify_all();
    if (impl_.drain_thread.joinable()) impl_.drain_thread.join();
    impl_.drain_running.store(false);
  }

  [[nodiscard]] bool running() const noexcept override {
    return impl_.drain_running.load();
  }

  [[nodiscard]] SourceStats stats() const noexcept override {
    return impl_.drain_counters.snapshot();
  }

 private:
  IngestPipeline::Impl& impl_;
};

}  // namespace

IngestPipeline::IngestPipeline(SubmitFn submit, PipelineConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->submit_fn = std::move(submit);
  impl_->config = std::move(config);
  impl_->init_metrics();
  if (!impl_->config.spool.dir.empty()) {
    if (impl_->config.spool.metrics == nullptr)
      impl_->config.spool.metrics = impl_->config.metrics;
    impl_->spool = std::make_unique<Spool>(impl_->config.spool);
    impl_->drain_source = std::make_unique<SpoolSource>(*impl_);
  }
}

IngestPipeline::~IngestPipeline() { stop(); }

Status IngestPipeline::start() {
  if (impl_->spool == nullptr) return Status::ok();
  if (Status status = impl_->spool->open(); !status.is_ok()) return status;
  return impl_->drain_source->start();
}

void IngestPipeline::stop() {
  if (impl_->drain_source != nullptr) impl_->drain_source->stop();
}

PipelineOutcome IngestPipeline::submit(std::span<const ingest::IngestEvent> events,
                                       std::string_view source) {
  return impl_->submit(events, source);
}

void IngestPipeline::note_invalid(std::uint64_t count, std::string_view source) {
  if (count == 0) return;
  impl_->count_events(source, "invalid", count);
  if (impl_->config.note_invalid) impl_->config.note_invalid(count);
}

void IngestPipeline::note_decode_error(std::string_view source) {
  if (impl_->decode_errors_family != nullptr)
    impl_->decode_errors_family->with_labels({std::string(source)}).increment();
}

Spool* IngestPipeline::spool() noexcept { return impl_->spool.get(); }

bool IngestPipeline::wait_until_drained(std::chrono::milliseconds timeout) {
  if (impl_->spool == nullptr) return true;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(impl_->drain_mutex);
  return impl_->drain_cv.wait_until(lock, deadline, [this] {
    return impl_->drain_idle && impl_->spool->empty();
  });
}

}  // namespace crowdweb::transport
