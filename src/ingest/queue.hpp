// Bounded MPSC queue feeding the live ingestion worker.
//
// Producers are HTTP handler threads and replay drivers; the single
// consumer is the IngestWorker. The queue is bounded with *explicit*
// backpressure: a full queue rejects the push (and counts the rejection)
// instead of blocking or silently dropping, so callers can report a
// structured "try again" to their own clients. The consumer drains in
// batches and names the depth worth waking for: a push signals it only
// when it lifts the depth from below that threshold to at or above it,
// so a steady feed costs the consumer one wakeup per batch (or per
// timeout), not one per event.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "data/checkin.hpp"
#include "geo/point.hpp"
#include "ingest/event.hpp"
#include "telemetry/metrics.hpp"

namespace crowdweb::ingest {

/// Bounded multi-producer single-consumer event queue.
class IngestQueue {
 public:
  explicit IngestQueue(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Current depth (racy snapshot; exact under the producer's own lock).
  [[nodiscard]] std::size_t size() const;

  /// Enqueues one event. Returns false — and counts a rejection — when
  /// the queue is full or closed.
  bool try_push(const IngestEvent& event);

  /// Enqueues a batch front-to-back until the queue fills; returns the
  /// number accepted. Rejected events are counted.
  std::size_t push_batch(std::span<const IngestEvent> events);

  /// Consumer side: blocks up to `timeout` until at least `wake_at`
  /// events are queued (clamped to [1, capacity]), then appends up to
  /// `max_events` to `out` — whatever is queued on timeout, wake() or
  /// close(), which end the wait regardless of depth. Pushes below the
  /// threshold do not signal the consumer. Returns the number drained
  /// (0 on timeout, on wake(), or when closed and empty).
  std::size_t drain(std::vector<IngestEvent>& out, std::size_t max_events,
                    std::chrono::milliseconds timeout, std::size_t wake_at = 1);

  /// Consumer side, non-blocking: appends every queued event to `out`
  /// in one lock hold. A pending wake() stays for the next drain().
  std::size_t take_all(std::vector<IngestEvent>& out);

  /// Rejects all future pushes and wakes the consumer. Already-queued
  /// events remain drainable. Idempotent.
  void close();

  /// Ends the consumer's current (or next) drain() wait early, with or
  /// without events — e.g. so the worker serves a checkpoint request.
  void wake();

  [[nodiscard]] bool closed() const;

  /// Total events rejected because the queue was full or closed.
  [[nodiscard]] std::uint64_t rejected() const noexcept;

  /// Mirrors every rejection onto a registry counter (the
  /// crowdweb_ingest_rejected_total series; attached by the worker).
  /// Pass nullptr to detach. The counter must outlive the queue while
  /// attached; call before producers start pushing.
  void attach_rejected_counter(telemetry::Counter* counter) noexcept {
    rejected_counter_.store(counter, std::memory_order_release);
  }

  /// Mirrors the depth onto a registry gauge (the
  /// crowdweb_ingest_queue_depth series; attached by the worker), set
  /// under the queue mutex by every push, drain() and take_all(). Same
  /// contract as attach_rejected_counter().
  void attach_depth_gauge(telemetry::Gauge* gauge) noexcept {
    depth_gauge_.store(gauge, std::memory_order_release);
  }

 private:
  /// Signals the consumer when a push of `added` events lifted the depth
  /// across its wake threshold. Caller holds `mutex_`.
  void notify_if_crossed(std::size_t added) {
    const std::size_t depth = events_.size();
    if (depth >= wake_at_ && depth - added < wake_at_) not_empty_.notify_one();
  }

  /// Sets the attached depth gauge. Caller holds `mutex_`.
  void publish_depth() noexcept {
    if (telemetry::Gauge* gauge = depth_gauge_.load(std::memory_order_acquire))
      gauge->set(static_cast<double>(events_.size()));
  }

  void count_rejected(std::uint64_t n) noexcept {
    if (n == 0) return;
    rejected_.fetch_add(n, std::memory_order_relaxed);
    if (telemetry::Counter* counter = rejected_counter_.load(std::memory_order_acquire))
      counter->increment(n);
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<IngestEvent> events_;
  bool closed_ = false;
  bool woken_ = false;  ///< wake() not yet consumed by drain()
  std::size_t wake_at_ = 1;  ///< the consumer's threshold of its latest drain()
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<telemetry::Counter*> rejected_counter_{nullptr};
  std::atomic<telemetry::Gauge*> depth_gauge_{nullptr};
};

}  // namespace crowdweb::ingest
