#include "shard/router.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "core/api.hpp"
#include "shard/hash.hpp"
#include "telemetry/timer.hpp"
#include "util/format.hpp"

namespace crowdweb::shard {

namespace {

/// Per-shard worker config derived from the deployment template: the
/// deployment registry, the shard index that labels the worker's series,
/// and a "shard-<k>" store subdirectory under the deployment root.
ingest::IngestWorkerConfig worker_config_for(const ShardRouterConfig& config,
                                             std::size_t id) {
  ingest::IngestWorkerConfig worker = config.worker;
  worker.metrics = config.metrics;
  worker.shard = id;
  if (!worker.store.dir.empty())
    worker.store.dir = crowdweb::format("{}/shard-{}", worker.store.dir, id);
  return worker;
}

}  // namespace

Result<std::unique_ptr<ShardRouter>> ShardRouter::create(const core::Platform& platform,
                                                         ShardRouterConfig config) {
  const std::size_t count = std::max<std::size_t>(1, config.shard_count);
  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->platform_ = &platform;
  router->config_ = std::move(config);

  // Partition the batch build: every base user goes wholly to one
  // shard — their records, their mined entry (shared, not copied) and
  // their crowd placements — so seeded corpora are disjoint and the
  // k-way merge of user-sorted state reproduces single-process order.
  // Every seed keeps the batch grid, so cell ids agree across shards.
  const data::Dataset& experiment = platform.experiment_dataset();
  std::vector<std::vector<data::UserId>> users_of(count);
  for (const data::UserId user : experiment.users())
    users_of[shard_of_user(user, count)].push_back(user);

  ingest::IngestPipelineConfig pipeline = core::ingest_pipeline_config(platform);
  pipeline.mining_threads = 1;

  router->shards_.reserve(count);
  for (std::size_t id = 0; id < count; ++id) {
    const std::vector<data::UserId>& users = users_of[id];
    const ingest::PlatformSnapshot seed{
        0, 0, 0, 0.0, experiment.filter_users(users), platform.mobility().filter_users(users),
        platform.grid(), platform.crowd_model().filter_users(users)};
    router->shards_.push_back(std::make_unique<Shard>(seed, platform.taxonomy(), pipeline,
                                                      worker_config_for(router->config_, id)));
  }

  router->init_metrics();

  // Publish hooks: a response-cache re-key and the per-shard gauges,
  // registered before start() so the first epoch is observed too. The
  // hook runs on the publishing shard's worker thread.
  for (const auto& shard : router->shards_) {
    ShardRouter* self = router.get();
    shard->worker().hub().on_publish([self](const ingest::PlatformSnapshot&) {
      if (self->cache_ != nullptr) self->rekey_cache();
      self->refresh_gauges();
    });
  }
  return router;
}

ShardRouter::~ShardRouter() { stop(); }

Status ShardRouter::start() {
  data::UserId next_guest = ingest::kFirstGuestId;
  for (auto& shard : shards_) {
    const Status status = shard->start();
    if (!status.is_ok()) {
      stop();
      return status;
    }
    next_guest = std::max(next_guest, shard->worker().next_guest_id());
  }
  shards_.front()->worker().reserve_guest_ids(next_guest);
  // Hooks fired while siblings were still starting saw their epochs as
  // 0; settle the cache key on the complete vector.
  if (cache_ != nullptr) rekey_cache();
  refresh_gauges();
  return Status::ok();
}

void ShardRouter::stop() {
  for (auto& shard : shards_) shard->stop();
  refresh_gauges();
}

std::size_t ShardRouter::up_count() const noexcept {
  std::size_t up = 0;
  for (const auto& shard : shards_)
    if (shard->up()) ++up;
  return up;
}

std::size_t ShardRouter::owner_of(const ingest::IngestEvent& event) const noexcept {
  return shard_of_user(event.user, shards_.size());
}

ingest::SubmitResult ShardRouter::submit(std::span<const ingest::IngestEvent> events) {
  std::vector<std::vector<ingest::IngestEvent>> slices(shards_.size());
  for (const ingest::IngestEvent& event : events)
    slices[owner_of(event)].push_back(event);

  ingest::SubmitResult total;
  for (std::size_t id = 0; id < shards_.size(); ++id) {
    if (slices[id].empty()) continue;
    if (!shards_[id]->up()) {
      // Events for a down shard are refused, not silently dropped —
      // same contract as a full queue: the producer retries.
      total.rejected += slices[id].size();
      continue;
    }
    const ingest::SubmitResult result = shards_[id]->worker().submit(slices[id]);
    total.accepted += result.accepted;
    total.rejected += result.rejected;
  }
  return total;
}

core::ViewPtr ShardRouter::merged() const {
  std::vector<ingest::SnapshotPtr> pins(shards_.size());
  std::vector<std::uint64_t> epochs(shards_.size(), 0);
  for (std::size_t id = 0; id < shards_.size(); ++id) {
    pins[id] = shards_[id]->snapshot();
    epochs[id] = pins[id] ? pins[id]->epoch : 0;
  }

  std::lock_guard<std::mutex> lock(merge_mutex_);
  if (merge_cache_ != nullptr && merge_cache_->epochs == epochs) return merge_cache_;
  {
    const telemetry::ScopedTimer timer(merge_seconds_);
    merge_cache_ = core::view_of(*platform_, std::move(pins), mix_epoch_vector(epochs));
  }
  if (merges_ != nullptr && merge_cache_->crowd != nullptr) merges_->increment();
  // A shard that went down published nothing; the merge that misses it
  // is where the router learns of it.
  if (!merge_cache_->missing.empty()) refresh_gauges();
  return merge_cache_;
}

std::vector<std::uint64_t> ShardRouter::epoch_vector() const {
  std::vector<std::uint64_t> epochs(shards_.size(), 0);
  for (std::size_t id = 0; id < shards_.size(); ++id)
    epochs[id] = shards_[id]->epoch();
  return epochs;
}

std::string ShardRouter::epoch_tag() const { return core::epoch_tag_of(epoch_vector()); }

std::uint64_t ShardRouter::combined_epoch() const {
  const std::vector<std::uint64_t> epochs = epoch_vector();
  return mix_epoch_vector(epochs);
}

void ShardRouter::rekey_cache() {
  const std::lock_guard<std::mutex> lock(rekey_mutex_);
  const std::vector<std::uint64_t> epochs = epoch_vector();
  cache_->set_epoch(mix_epoch_vector(epochs), core::epoch_tag_of(epochs));
}

bool ShardRouter::wait_for_live(std::size_t live_checkins,
                                std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    if (merged()->live_checkins >= live_checkins) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void ShardRouter::note_degraded_read() const noexcept {
  if (degraded_reads_ != nullptr) degraded_reads_->increment();
}

void ShardRouter::init_metrics() {
  metrics_ = config_.metrics;
  if (metrics_ == nullptr) return;

  metrics_->gauge("crowdweb_shard_count", "Shards in the deployment layout")
      .set(static_cast<double>(shards_.size()));
  auto& up = metrics_->gauge_family("crowdweb_shard_up",
                                    "1 when the shard serves, 0 when down", {"shard"});
  auto& lag = metrics_->gauge_family(
      "crowdweb_shard_epoch_lag",
      "Distance from the shard's epoch to the deployment's max epoch", {"shard"});
  auto& live = metrics_->gauge_family("crowdweb_shard_live_checkins",
                                      "Accepted live events in the shard's epoch",
                                      {"shard"});
  for (std::size_t id = 0; id < shards_.size(); ++id) {
    const std::vector<std::string> labels{std::to_string(id)};
    up_gauge_.push_back(&up.with_labels(labels));
    lag_gauge_.push_back(&lag.with_labels(labels));
    live_gauge_.push_back(&live.with_labels(labels));
  }
  merge_seconds_ = &metrics_->histogram(
      "crowdweb_shard_merge_duration_seconds",
      "Wall-clock cost of one scatter-gather crowd merge",
      telemetry::default_duration_buckets());
  merges_ = &metrics_->counter("crowdweb_shard_merges_total",
                               "Scatter-gather crowd merges performed");
  degraded_reads_ = &metrics_->counter(
      "crowdweb_shard_degraded_reads_total",
      "Reads served as a partial merge because a shard was down");
}

void ShardRouter::refresh_gauges() const {
  if (metrics_ == nullptr) return;
  // One snapshot read per shard, applied under one mutex: hooks of
  // different shards run concurrently, and the one that reads later
  // also writes later, so an older read never lands last.
  const std::lock_guard<std::mutex> lock(gauge_mutex_);
  std::vector<ingest::SnapshotPtr> pins(shards_.size());
  std::uint64_t max_epoch = 0;
  for (std::size_t id = 0; id < shards_.size(); ++id) {
    pins[id] = shards_[id]->snapshot();
    if (pins[id] != nullptr) max_epoch = std::max(max_epoch, pins[id]->epoch);
  }
  for (std::size_t id = 0; id < shards_.size(); ++id) {
    const ingest::PlatformSnapshot* pin = pins[id].get();
    up_gauge_[id]->set(pin != nullptr ? 1.0 : 0.0);
    lag_gauge_[id]->set(static_cast<double>(max_epoch - (pin != nullptr ? pin->epoch : 0)));
    live_gauge_[id]->set(pin != nullptr ? static_cast<double>(pin->live_checkins) : 0.0);
  }
}

}  // namespace crowdweb::shard
