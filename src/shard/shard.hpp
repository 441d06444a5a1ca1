// One hash shard: the unit of horizontal partitioning.
//
// A Shard bundles everything that used to be process-global state —
// its user-hash slice of the batch build (corpus, mined entries and
// crowd placements), a durable store directory (WAL +
// checkpoints), an ingest queue with its IngestWorker, and the epoch
// SnapshotHub the worker publishes through — behind one lifecycle.
// The ShardRouter owns N of these, routes writes to the owning shard,
// and scatter-gathers reads across their snapshots (see router.hpp).
//
// Each shard's worker and store record into the deployment registry,
// every series labelled with the shard's index (shard="<k>"), the same
// families a lone worker records as shard="0".
#pragma once

#include <cstdint>
#include <memory>

#include "ingest/snapshot.hpp"
#include "ingest/worker.hpp"
#include "util/status.hpp"

namespace crowdweb::shard {

/// A started shard runs its own IngestWorker (queue -> validate ->
/// delta merge -> epoch publish) over its slice of the corpus, with an
/// optional durable store directory underneath. A stopped shard stays
/// constructed: the router keeps routing around it and serves degraded
/// reads.
class Shard {
 public:
  /// `seed` is the shard's slice of the batch build's epoch 0: the
  /// experiment dataset's, mobility table's and crowd model's
  /// filter_users() slices for the shard's users, on the batch grid
  /// (sharing the full venue table keeps venue ids aligned across
  /// shards). The shard's worker shares all three. `taxonomy` must
  /// outlive the shard.
  Shard(const ingest::PlatformSnapshot& seed, const data::Taxonomy& taxonomy,
        ingest::IngestPipelineConfig pipeline, ingest::IngestWorkerConfig config);

  /// Runs store recovery (when configured) and publishes the shard's
  /// first epoch. Failure leaves the shard down: up() stays false.
  [[nodiscard]] Status start();

  /// Stops the worker (idempotent; safe on a shard that never started).
  void stop();

  /// True between a successful start() and stop().
  [[nodiscard]] bool up() const noexcept { return worker_->running(); }

  /// The latest published epoch snapshot, or null while the shard is
  /// down (a stopped shard's last snapshot is deliberately not served —
  /// its store may be recovering elsewhere).
  [[nodiscard]] ingest::SnapshotPtr snapshot() const noexcept {
    return up() ? worker_->hub().current() : nullptr;
  }

  /// Published epoch (0 while down or before the first publication).
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return up() ? worker_->hub().epoch() : 0;
  }

  [[nodiscard]] ingest::IngestWorker& worker() noexcept { return *worker_; }
  [[nodiscard]] const ingest::IngestWorker& worker() const noexcept { return *worker_; }

 private:
  std::unique_ptr<ingest::IngestWorker> worker_;
};

}  // namespace crowdweb::shard
