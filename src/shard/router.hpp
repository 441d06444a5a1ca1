// Scatter-gather routing across hash shards.
//
// The ShardRouter owns N Shards (see shard.hpp) under one static
// layout, fixed at creation: shard = splitmix64(user) % N (see
// hash.hpp), for base users and live events alike. A user's whole
// history lives on exactly one shard, which makes the merged read path
// value-identical to a single-process deployment.
//
// Writes (`submit`) partition the batch by owning shard. Reads call
// `merged()`: every shard's current epoch snapshot is pinned into one
// core::PinnedView, whose per-shard crowd models are k-way merged by
// user id into one CrowdModel the core handlers render — possible
// because every shard is seeded with a slice of the batch build's crowd
// model (CrowdModel::filter_users), whose grid it keeps, as one worker
// does, so cell ids agree across shards. The merge is cached per epoch vector; it reruns only
// when some shard publishes.
//
// Cross-shard consistency is expressed as the epoch vector
// (epoch-per-shard, e.g. [3,5,2]): /api/status reports it, ETags embed
// its dotted form ("3.5.2-<hash>"), and the response cache is re-keyed
// with its splitmix64 mixdown on every shard publish, so cached bodies
// can never mix state across epoch-vector changes. A shard that is
// down simply drops out: reads return a partial merge with an explicit
// "degraded" marker (HTTP 200) and its slot reads 0 in the vector.
//
// Telemetry: every shard's worker and store record into the deployment
// registry under shard="<k>" (so the per-shard epoch, queue depth and
// ingest counters are the workers' own crowdweb_ingest_* series), and
// the router adds only what no single worker knows: the layout, which
// shards are up, each shard's epoch lag and live count, and the
// scatter-gather merge (crowdweb_shard_*).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/view.hpp"
#include "crowd/model.hpp"
#include "http/cache.hpp"
#include "ingest/event.hpp"
#include "ingest/worker.hpp"
#include "shard/shard.hpp"
#include "telemetry/metrics.hpp"
#include "util/status.hpp"

namespace crowdweb::shard {

struct ShardRouterConfig {
  std::size_t shard_count = 2;
  /// Deployment registry for the crowdweb_shard_* families and every
  /// shard worker's and store's series, each labelled `shard="<k>"` (see
  /// docs/OBSERVABILITY.md). Null disables router telemetry, and each
  /// worker keeps a private registry.
  telemetry::Registry* metrics = nullptr;
  /// Template for every shard's worker. `worker.store.dir` is the
  /// deployment's store *root*: shard k persists under
  /// "<root>/shard-<k>" (empty = durability off). The router replaces
  /// `worker.metrics` with `metrics` and `worker.shard` with k.
  ingest::IngestWorkerConfig worker;
};

class ShardRouter {
 public:
  /// Builds the layout over `platform`'s experiment corpus: partitions
  /// users by hash, seeds one Shard per slot with its corpus slice +
  /// matching phase-2 mobility, and runs every shard's pipeline on one
  /// mining thread (the shards already parallelize the deployment).
  /// `platform` must outlive the router.
  static Result<std::unique_ptr<ShardRouter>> create(const core::Platform& platform,
                                                     ShardRouterConfig config);
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Starts every shard (store recovery + first epoch), raises shard 0's
  /// guest-id allocator past every shard's (guest ids are allocated on
  /// shard 0 but hash to any shard, so each shard's WAL saw only its
  /// own), and settles the cache epoch tag. The first failure stops
  /// what already started and returns the error.
  [[nodiscard]] Status start();

  /// Stops all shards (idempotent).
  void stop();

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t up_count() const noexcept;
  [[nodiscard]] Shard& shard(std::size_t id) noexcept { return *shards_[id]; }
  [[nodiscard]] const Shard& shard(std::size_t id) const noexcept { return *shards_[id]; }

  /// The shard an event routes to (hash of the user).
  [[nodiscard]] std::size_t owner_of(const ingest::IngestEvent& event) const noexcept;

  /// Partitions the batch by owning shard and submits each slice;
  /// per-shard accept/reject outcomes are summed. Thread-safe.
  ingest::SubmitResult submit(std::span<const ingest::IngestEvent> events);

  /// The current scatter-gather view. Cached per epoch vector: the
  /// k-way merge runs once per cross-shard state change, every other
  /// call is a pointer copy. Never null; with no shard up the view has
  /// no crowd/dataset and lists every shard as missing.
  [[nodiscard]] core::ViewPtr merged() const;

  /// Epoch per shard slot, right now (0 for down shards).
  [[nodiscard]] std::vector<std::uint64_t> epoch_vector() const;
  /// Dotted rendition of epoch_vector(), e.g. "3.5.2".
  [[nodiscard]] std::string epoch_tag() const;
  /// mix_epoch_vector(epoch_vector()) — the response-cache key epoch.
  [[nodiscard]] std::uint64_t combined_epoch() const;

  /// Re-keys `cache` (epoch + dotted tag) on every shard publish, so
  /// cached responses become unreachable the moment any shard's state
  /// moves. Key and tag come from one epoch-vector read, applied under
  /// one mutex, so concurrent publish hooks cannot leave an older
  /// vector installed. Call before start(); `cache` must outlive the
  /// router.
  void rekey_cache_on_publish(http::ResponseCache* cache) noexcept { cache_ = cache; }

  /// Polls until the merged view holds at least `live_checkins` live
  /// events (true) or the timeout expires (false). Test/bench helper.
  [[nodiscard]] bool wait_for_live(std::size_t live_checkins,
                                   std::chrono::milliseconds timeout) const;

  /// Accounts one degraded read (crowdweb_shard_degraded_reads_total).
  void note_degraded_read() const noexcept;

  [[nodiscard]] const core::Platform& platform() const noexcept { return *platform_; }
  [[nodiscard]] const data::Taxonomy& taxonomy() const noexcept {
    return platform_->taxonomy();
  }
  [[nodiscard]] const ShardRouterConfig& config() const noexcept { return config_; }

 private:
  ShardRouter() = default;

  void init_metrics();
  /// Sets the cache key and tag from one epoch_vector() read.
  void rekey_cache();
  /// Sets the per-shard gauges (up, epoch lag, live check-ins) from one
  /// snapshot read per shard. Runs in every shard's publish hook, at
  /// start() and stop(), and on a merge that finds a shard down.
  void refresh_gauges() const;

  const core::Platform* platform_ = nullptr;
  ShardRouterConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  http::ResponseCache* cache_ = nullptr;

  telemetry::Registry* metrics_ = nullptr;
  std::vector<telemetry::Gauge*> up_gauge_;
  std::vector<telemetry::Gauge*> lag_gauge_;
  std::vector<telemetry::Gauge*> live_gauge_;
  telemetry::Histogram* merge_seconds_ = nullptr;
  telemetry::Counter* merges_ = nullptr;
  telemetry::Counter* degraded_reads_ = nullptr;

  std::mutex rekey_mutex_;
  mutable std::mutex gauge_mutex_;
  mutable std::mutex merge_mutex_;
  mutable core::ViewPtr merge_cache_;  // guarded by merge_mutex_
};

}  // namespace crowdweb::shard
