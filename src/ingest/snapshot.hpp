// Epoch-based snapshot publication (RCU-style).
//
// The ingestion worker never mutates state that HTTP handlers read.
// Instead it builds a fresh, immutable PlatformSnapshot off to the side
// and publishes it by swapping one shared_ptr — the "epoch" advances,
// readers that loaded the previous snapshot keep a reference until
// their request completes, and the old epoch retires when its last
// reader drops the pointer. Readers never wait for a rebuild and never
// observe a half-built state: the only lock they take guards the
// pointer copy itself.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "crowd/model.hpp"
#include "data/dataset.hpp"
#include "geo/grid.hpp"
#include "patterns/mobility.hpp"

namespace crowdweb::ingest {

/// One immutable epoch of the live platform: the merged corpus (base +
/// accepted live check-ins) and everything phase 2/3 derives from it.
///
/// The big parts are shared, not copied: `dataset` holds per-user
/// shards and the venue table behind shared_ptrs, `mobility` shares the
/// per-user entries the epoch's delta did not touch, and `crowd` shares
/// the unaffected time windows — so publishing an epoch costs O(delta),
/// not O(corpus), and consecutive snapshots alias all unchanged state.
struct PlatformSnapshot {
  std::uint64_t epoch = 0;
  std::size_t live_checkins = 0;  ///< accepted live events merged so far
  std::size_t live_users = 0;     ///< users whose history the deltas touched
  double rebuild_ms = 0.0;        ///< wall-clock cost of building this epoch
  data::Dataset dataset;
  patterns::MobilityTable mobility;  ///< per-user entries, ascending user id
  geo::SpatialGrid grid;
  crowd::CrowdModel crowd;
};

using SnapshotPtr = std::shared_ptr<const PlatformSnapshot>;

/// Single-writer multi-reader snapshot exchange point.
class SnapshotHub {
 public:
  /// The latest published epoch; null until the first publication. The
  /// returned pointer keeps the whole epoch alive for as long as the
  /// caller holds it.
  [[nodiscard]] SnapshotPtr current() const noexcept {
    const std::lock_guard<std::mutex> lock(current_mutex_);
    return current_;
  }

  /// Swaps in the next epoch (worker thread only), then invokes every
  /// on_publish hook with the new snapshot — on the publishing thread,
  /// after the swap, so hooks observe `current()` == the argument.
  void publish(SnapshotPtr next) {
    const PlatformSnapshot* snapshot = next.get();
    {
      const std::lock_guard<std::mutex> lock(current_mutex_);
      current_.swap(next);  // the previous epoch retires outside the lock
    }
    if (snapshot == nullptr) return;
    std::lock_guard<std::mutex> lock(hooks_mutex_);
    for (const auto& hook : hooks_) hook(*snapshot);
  }

  /// Registers a callback run on every publication (e.g. bumping a
  /// ResponseCache epoch so stale entries become unreachable). Hooks
  /// run on the publishing thread and must be fast and non-blocking.
  /// Register before the worker starts to see the first epoch.
  void on_publish(std::function<void(const PlatformSnapshot&)> hook) {
    std::lock_guard<std::mutex> lock(hooks_mutex_);
    hooks_.push_back(std::move(hook));
  }

  /// Epoch of the current snapshot (0 before the first publication).
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    const SnapshotPtr snapshot = current();
    return snapshot ? snapshot->epoch : 0;
  }

 private:
  // A mutex, not std::atomic<SnapshotPtr>: GCC 12's atomic shared_ptr
  // unlocks with relaxed order in load(), which ThreadSanitizer reports
  // as a race against store(). The critical section is one refcount
  // increment.
  mutable std::mutex current_mutex_;
  SnapshotPtr current_;  // guarded by current_mutex_
  std::mutex hooks_mutex_;
  std::vector<std::function<void(const PlatformSnapshot&)>> hooks_;
};

}  // namespace crowdweb::ingest
