#include "ingest/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "telemetry/timer.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/thread_name.hpp"

namespace crowdweb::ingest {

namespace {

using Clock = std::chrono::steady_clock;

/// Events drained from the queue per wakeup, and the queue depth that
/// wakes the worker early while a delta waits for its epoch: below it,
/// pushes leave the worker asleep until the epoch is due.
constexpr std::size_t kDrainBatch = 1024;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Packs (category, position quantized to ~10 m) into one key so live
/// events land on an existing venue when one sits at that spot.
std::uint64_t venue_key(data::CategoryId category, const geo::LatLon& position) {
  const auto lat = static_cast<std::uint64_t>(std::llround((position.lat + 90.0) * 1e4));
  const auto lon = static_cast<std::uint64_t>(std::llround((position.lon + 180.0) * 1e4));
  return (static_cast<std::uint64_t>(category) << 43) | (lat << 22) | lon;
}

/// The rule every check-in passes to join the live corpus, whether a
/// live or WAL event (merge_event) or a checkpoint row (adopt_checkpoint).
bool admissible(const data::Taxonomy& taxonomy, data::CategoryId category,
                const geo::LatLon& position, std::int64_t timestamp) {
  return category < taxonomy.size() && geo::is_valid(position) && timestamp > 0;
}

/// Feeds a delta to `builder` (the epoch merge and the checkpoint image
/// share it).
Status add_rows(data::DatasetBuilder& builder, std::span<const data::Venue> venues,
                std::span<const data::CheckIn> checkins) {
  for (const data::Venue& venue : venues) {
    const Status status = builder.add_venue(venue);
    if (!status.is_ok()) return status;
  }
  for (const data::CheckIn& checkin : checkins) {
    const Status status = builder.add_checkin(checkin);
    if (!status.is_ok()) return status;
  }
  return Status::ok();
}

}  // namespace

IngestWorker::IngestWorker(const data::Taxonomy& taxonomy, IngestPipelineConfig pipeline,
                           IngestWorkerConfig config)
    : taxonomy_(taxonomy),
      pipeline_(std::move(pipeline)),
      config_(config),
      queue_(config.queue_capacity) {
  init_metrics();
}

IngestWorker::IngestWorker(const PlatformSnapshot& seed, const data::Taxonomy& taxonomy,
                           IngestPipelineConfig pipeline, IngestWorkerConfig config)
    : IngestWorker(taxonomy, std::move(pipeline), config) {
  adopt_seed(seed.dataset, seed.mobility, seed.crowd);
}

IngestWorker::IngestWorker(const data::Dataset& base,
                           const patterns::MobilityTable& base_mobility,
                           const data::Taxonomy& taxonomy, IngestPipelineConfig pipeline,
                           IngestWorkerConfig config)
    : IngestWorker(taxonomy, std::move(pipeline), config) {
  auto grid = geo::SpatialGrid::create(
      pipeline_.fixed_grid_bounds.value_or(base.bounds()).inflated(0.002),
      pipeline_.grid_cell_meters);
  auto crowd = grid ? crowd::CrowdModel::build(base, base_mobility, *grid, pipeline_.crowd)
                    : Result<crowd::CrowdModel>(grid.status());
  if (!crowd) {
    seed_status_ = crowd.status();
    return;
  }
  adopt_seed(base, base_mobility, std::move(crowd).value());
}

void IngestWorker::adopt_seed(const data::Dataset& base,
                              const patterns::MobilityTable& base_mobility,
                              crowd::CrowdModel crowd) {
  // Shares the base's shards and venue table. A default-constructed
  // base has no pool; an empty build gives the live dataset one, so
  // every epoch interns into one pool.
  live_ = base.name_pool() != nullptr ? base : data::DatasetBuilder().build();
  mobility_ = base_mobility;  // shares every entry
  crowd_ = std::move(crowd);  // shares every window
  base_checkin_count_ = live_.checkin_count();
  index_venues();
}

void IngestWorker::index_venues() {
  venue_index_.clear();
  venue_index_.reserve(live_.venue_count());
  for (const data::Venue& venue : live_.venues())
    venue_index_.emplace(venue_key(venue.category, venue.position), venue.id);
}

void IngestWorker::init_metrics() {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    own_metrics_ = std::make_unique<telemetry::Registry>();
    metrics_ = own_metrics_.get();
  }
  // Every series carries the worker's constant shard label, so N workers
  // record into one registry.
  const std::string shard = std::to_string(config_.shard);
  const auto counter = [&](const std::string& name, const std::string& help) {
    return &metrics_->counter_family(name, help, {"shard"}).with_labels({shard});
  };
  const auto gauge = [&](const std::string& name, const std::string& help) {
    return &metrics_->gauge_family(name, help, {"shard"}).with_labels({shard});
  };
  submitted_ = counter("crowdweb_ingest_submitted_total", "Events offered through submit().");
  accepted_ = counter("crowdweb_ingest_accepted_total",
                      "Events validated and merged into the live corpus.");
  invalid_ = counter("crowdweb_ingest_invalid_total", "Events that failed validation.");
  epochs_published_ = counter("crowdweb_ingest_epochs_published_total", "Epochs published.");
  wakeups_ = counter("crowdweb_ingest_worker_wakeups_total",
                     "Returns of the worker thread from its ingest queue wait.");
  queue_.attach_rejected_counter(
      counter("crowdweb_ingest_rejected_total",
              "Events refused by the full (or closed) ingest queue."));
  queue_.attach_depth_gauge(
      gauge("crowdweb_ingest_queue_depth", "Events waiting in the queue."));
  gauge("crowdweb_ingest_queue_capacity", "Bounded queue capacity.")
      ->set(static_cast<double>(queue_.capacity()));
  epoch_gauge_ = gauge("crowdweb_ingest_epoch", "Epoch visible in the snapshot hub.");
  live_checkins_ =
      gauge("crowdweb_ingest_live_checkins", "Accepted deltas in the published epoch.");
  const std::vector<double> buckets = telemetry::default_duration_buckets();
  rebuild_seconds_ =
      &metrics_
           ->histogram_family("crowdweb_ingest_epoch_rebuild_duration_seconds",
                              "End-to-end wall time to rebuild and publish one epoch.",
                              {"shard"}, buckets)
           .with_labels({shard});
  telemetry::HistogramFamily& stages = metrics_->histogram_family(
      "crowdweb_ingest_rebuild_stage_duration_seconds",
      "Wall time of one epoch-rebuild stage: merge (dataset rebuild), mine "
      "(incremental per-user re-mining), crowd (model update).",
      {"shard", "stage"}, buckets);
  stage_merge_seconds_ = &stages.with_labels({shard, "merge"});
  stage_mine_seconds_ = &stages.with_labels({shard, "mine"});
  stage_crowd_seconds_ = &stages.with_labels({shard, "crowd"});
  last_rebuild_seconds_ = gauge("crowdweb_ingest_last_rebuild_seconds",
                                "Wall time of the most recent epoch rebuild.");
  delta_events_ = counter("crowdweb_ingest_delta_events_total",
                          "Check-ins applied through the delta merge path.");
  delta_users_ = counter("crowdweb_ingest_delta_users_total",
                         "Per-user delta re-minings across all epochs.");
  delta_shards_reused_ =
      counter("crowdweb_ingest_delta_shards_reused_total",
              "Per-user dataset shards shared with the previous epoch (not copied).");
  delta_shards_rebuilt_ = counter(
      "crowdweb_ingest_delta_shards_rebuilt_total",
      "Per-user dataset shards given a new version because the epoch's delta touched "
      "them (appended in place, copied, or new).");
  delta_shards_appended_ = counter(
      "crowdweb_ingest_delta_shards_appended_total",
      "New shard versions that wrote the delta past the previous version's records "
      "instead of copying them.");
  delta_records_copied_ = counter(
      "crowdweb_ingest_delta_records_copied_total",
      "Base records the merge copied for touched users that could not append (a "
      "check-in earlier than the user's last one, or a base that is not the newest "
      "version).");
  delta_last_events_ = gauge("crowdweb_ingest_delta_last_events",
                             "Check-ins merged by the most recent epoch's delta.");
  mining_emitted_ = counter(
      "crowdweb_mining_patterns_emitted_total",
      "Patterns the miner returned in per-user re-mines across all epochs.");
  telemetry::CounterFamily& history_users = metrics_->counter_family(
      "crowdweb_ingest_history_users_total",
      "Re-mined users whose kept day-shape index filed only their appended check-ins "
      "(path=appended) or was rebuilt from their first record (path=refiled: first "
      "touch, or a check-in not later than the last one filed).",
      {"shard", "path"});
  history_appended_ = &history_users.with_labels({shard, "appended"});
  history_refiled_ = &history_users.with_labels({shard, "refiled"});
  history_bytes_ = gauge(
      "crowdweb_ingest_history_bytes",
      "Heap bytes of the worker's kept per-user state: day-shape indexes, kept pattern "
      "sets and venue tallies.");
  telemetry::CounterFamily& mining_users = metrics_->counter_family(
      "crowdweb_mining_users_total",
      "Re-mined users whose entry was served from their kept pattern counts (path=counted, "
      "no PrefixSpan ran) or mined in full (path=mined: first touch, a refile, or counts "
      "no longer provably complete).",
      {"shard", "path"});
  mining_counted_ = &mining_users.with_labels({shard, "counted"});
  mining_mined_ = &mining_users.with_labels({shard, "mined"});
  mining_truncated_ = counter(
      "crowdweb_mining_truncated_total",
      "Per-user re-mines whose pattern set was cut short by the max_patterns cap "
      "(the published tables are incomplete for those users).");
}

IngestWorker::~IngestWorker() {
  stop();
  queue_.attach_rejected_counter(nullptr);
  queue_.attach_depth_gauge(nullptr);
}

Status IngestWorker::start() {
  if (running_.load(std::memory_order_acquire))
    return failed_precondition("ingest worker already running");
  if (queue_.closed()) return failed_precondition("ingest worker cannot restart");
  if (!seed_status_.is_ok()) return seed_status_;
  if (!config_.store.dir.empty() && store_ == nullptr) {
    const Status recovered = recover_from_store();
    if (!recovered.is_ok()) return recovered;
  }
  // First epoch: the base corpus — or, after recovery, the checkpoint
  // plus the replayed WAL tail — so readers always have a snapshot.
  const Status status = rebuild_and_publish();
  if (!status.is_ok()) return status;
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] {
    util::name_this_thread(crowdweb::format("cw-ingest-{}", config_.shard).c_str());
    run();
  });
  log_info("ingest worker started: queue capacity {}, rebuild interval {} ms",
           queue_.capacity(), config_.rebuild_interval.count());
  return Status::ok();
}

void IngestWorker::stop() {
  if (!thread_.joinable()) return;
  stop_requested_.store(true, std::memory_order_release);
  queue_.close();
  thread_.join();
}

bool IngestWorker::running() const noexcept {
  return running_.load(std::memory_order_acquire);
}

SubmitResult IngestWorker::submit(std::span<const IngestEvent> events) {
  submitted_->increment(events.size());
  SubmitResult result;
  result.accepted = queue_.push_batch(events);
  result.rejected = events.size() - result.accepted;
  return result;
}

void IngestWorker::note_invalid(std::uint64_t count) noexcept {
  invalid_->increment(count);
}

data::UserId IngestWorker::allocate_guest_id() noexcept {
  return next_guest_id_.fetch_add(1, std::memory_order_relaxed);
}

data::UserId IngestWorker::next_guest_id() const noexcept {
  return next_guest_id_.load(std::memory_order_relaxed);
}

void IngestWorker::reserve_guest_ids(data::UserId next) noexcept {
  data::UserId current = next_guest_id_.load(std::memory_order_relaxed);
  while (current < next &&
         !next_guest_id_.compare_exchange_weak(current, next, std::memory_order_relaxed)) {
  }
}

Status IngestWorker::recover_from_store() {
  store::StoreConfig store_config = config_.store;
  if (store_config.metrics == nullptr) store_config.metrics = metrics_;
  store_config.shard = config_.shard;
  Result<std::unique_ptr<store::DurableStore>> opened =
      store::DurableStore::open(std::move(store_config));
  if (!opened) return opened.status();
  store_ = std::move(*opened);

  store::RecoveredState recovered = store_->take_recovered();
  if (recovered.checkpoint.has_value()) {
    const Status adopted = adopt_checkpoint(*recovered.checkpoint);
    if (!adopted.is_ok()) return adopted;
  }
  // Touched users' mobility and placements differ from the seed's, so
  // every one of them re-mines and is re-placed (CrowdModel::update) in
  // the first rebuild; later epochs go back to fresh deltas only. An
  // untouched user's rows in the checkpoint are the seed's.
  pending_users_ = touched_users_;

  // Replay the WAL tail through the same validate + merge path live
  // events take: into the delta, which the first epoch's merge stage
  // applies to `live_` like any other. The ingest counters stay
  // untouched — these events were counted when first accepted;
  // crowdweb_store_recovery_* records the replay. A checkpoint is
  // written only every so many WAL bytes, so most restarts see guest
  // ids only here: raise the allocator past each.
  std::uint64_t replayed_events = 0;
  for (const store::WalRecord& record : recovered.records) {
    for (const IngestEvent& event : record.events) {
      if (merge_event(event)) ++replayed_events;
      if (event.user >= kFirstGuestId) reserve_guest_ids(event.user + 1);
    }
  }

  // Resume the epoch counter past everything disk has seen, so the
  // first published epoch after restart is strictly newer than any a
  // reader saw before the crash.
  epoch_ = std::max(epoch_, recovered.max_epoch);
  if (recovered.checkpoint.has_value() || !recovered.records.empty() ||
      recovered.truncated_bytes > 0) {
    log_info(
        "store recovery: checkpoint {}, {} WAL record(s) / {} event(s) replayed, "
        "{} torn byte(s) truncated, resuming at epoch {}",
        recovered.checkpoint ? recovered.checkpoint->seq : 0,
        recovered.records.size(), replayed_events, recovered.truncated_bytes, epoch_);
  }
  return Status::ok();
}

Status IngestWorker::adopt_checkpoint(const store::Checkpoint& checkpoint) {
  // The checkpoint replaces the seed wholesale: it IS the base corpus
  // plus every delta merged before it was written. Interning its names
  // table in id order into a fresh pool reproduces every NameId. The
  // builder orders rows by (user, timestamp, row order), so images in
  // any row order rebuild the same dataset.
  auto pool = std::make_shared<data::StringPool>();
  for (const std::string& name : checkpoint.names) pool->intern(name);
  data::DatasetBuilder builder(std::move(pool));
  // A row the live path would refuse never joins the corpus: a category
  // outside the taxonomy would index past its tables in the crowd build.
  for (const data::Venue& venue : checkpoint.venues) {
    if (venue.category >= taxonomy_.size())
      return parse_error(crowdweb::format(
          "checkpoint venue {} has category {} outside the taxonomy", venue.id, venue.category));
    if (Status status = builder.add_venue(venue); !status.is_ok()) return status;
  }
  for (std::size_t row = 0; row < checkpoint.checkins.size(); ++row) {
    const data::CheckIn& c = checkpoint.checkins[row];
    if (!admissible(taxonomy_, c.category, c.position, c.timestamp))
      return parse_error(crowdweb::format(
          "checkpoint check-in row {} (user {}, category {}, timestamp {}) fails the live "
          "event rule", row, c.user, c.category, c.timestamp));
    if (Status status = builder.add_checkin(c); !status.is_ok()) return status;
  }
  live_ = builder.build();
  // The kept state counted the replaced corpus: every user refiles and
  // recounts on touch.
  kept_.clear();
  kept_bytes_total_ = 0;
  history_bytes_->set(0.0);
  base_checkin_count_ = checkpoint.base_checkin_count;
  touched_users_.clear();
  touched_users_.insert(checkpoint.touched_users.begin(), checkpoint.touched_users.end());
  reserve_guest_ids(checkpoint.next_guest_id);
  index_venues();
  return Status::ok();
}

Status IngestWorker::checkpoint_now(std::chrono::milliseconds timeout) {
  if (store_ == nullptr)
    return failed_precondition("durable store not configured (no store directory)");
  if (!running_.load(std::memory_order_acquire))
    return failed_precondition("ingest worker not running");
  std::unique_lock<std::mutex> lock(epoch_mutex_);
  const std::uint64_t target = checkpoints_done_ + 1;
  checkpoint_requested_.store(true, std::memory_order_release);
  queue_.wake();  // an idle worker would otherwise sleep out its drain wait
  if (!epoch_cv_.wait_for(lock, timeout,
                          [this, target] { return checkpoints_done_ >= target; })) {
    return unavailable("checkpoint did not complete in time (see server log)");
  }
  return Status::ok();
}

IngestStats IngestWorker::stats() const {
  IngestStats stats;
  stats.submitted = submitted_->value();
  stats.accepted = accepted_->value();
  stats.rejected = queue_.rejected();
  stats.invalid = invalid_->value();
  stats.epochs_published = epochs_published_->value();
  stats.current_epoch = hub_.epoch();
  stats.queue_depth = queue_.size();
  stats.queue_capacity = queue_.capacity();
  stats.live_checkins = static_cast<std::uint64_t>(live_checkins_->value());
  stats.last_rebuild_ms = last_rebuild_seconds_->value() * 1e3;
  stats.total_rebuild_ms = rebuild_seconds_->sum() * 1e3;
  return stats;
}

bool IngestWorker::wait_for_epoch(std::uint64_t epoch,
                                  std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(epoch_mutex_);
  return epoch_cv_.wait_for(lock, timeout,
                            [this, epoch] { return published_epoch_ >= epoch; });
}

void IngestWorker::run() {
  std::vector<IngestEvent> batch;
  auto last_publish = Clock::now();
  while (true) {
    batch.clear();
    // Idle, the first event wakes the worker: it starts the cadence (and
    // publishes at once when the interval already ran out). With a delta
    // pending, wake when its publication is due — a full interval after
    // every wakeup could hold it back for nearly two intervals when the
    // feed pauses — or early for a full drain batch only: nothing merged
    // before the epoch is due is visible to readers.
    std::chrono::milliseconds wait = config_.rebuild_interval;
    std::size_t wake_at = 1;
    if (!pending_users_.empty()) {
      const auto due = last_publish + config_.rebuild_interval;
      wait = std::max(std::chrono::milliseconds{0},
                      std::chrono::ceil<std::chrono::milliseconds>(due - Clock::now()));
      wake_at = kDrainBatch;
    }
    queue_.drain(batch, kDrainBatch, wait, wake_at);
    wakeups_->increment();
    apply(batch);
    if (store_ != nullptr) {
      // WAL bytes appended since the last checkpoint that trigger an
      // automatic one; checkpoint_now() requests one at any size.
      constexpr std::uint64_t kCheckpointWalBytes = 256ull << 20;
      if (checkpoint_requested_.exchange(false, std::memory_order_acq_rel) ||
          store_->wal_bytes_since_checkpoint() >= kCheckpointWalBytes) {
        write_checkpoint();
      }
    }
    const bool stopping =
        stop_requested_.load(std::memory_order_acquire) && queue_.size() == 0;
    if (!pending_users_.empty() &&
        (stopping || Clock::now() - last_publish >= config_.rebuild_interval)) {
      // The epoch carries every event admitted before its rebuild starts.
      batch.clear();
      queue_.take_all(batch);
      apply(batch);
      const Status status = rebuild_and_publish();
      if (!status.is_ok())
        log_error("epoch rebuild failed: {}", status.to_string());
      last_publish = Clock::now();
    }
    if (stopping) break;
  }
  if (store_ != nullptr) {
    // Clean shutdown: everything accepted is on disk regardless of the
    // fsync policy.
    const Status status = store_->sync();
    if (!status.is_ok()) log_error("final WAL sync failed: {}", status.to_string());
  }
  running_.store(false, std::memory_order_release);
}

void IngestWorker::journal() {
  if (epoch_events_.empty()) return;
  // A failed append is logged and counted
  // (crowdweb_store_append_failures_total) but does not stop serving:
  // the events stay live in memory, they are just not durable.
  const Status status = store_->append(epoch_, epoch_events_);
  if (!status.is_ok()) log_error("WAL append failed: {}", status.to_string());
  epoch_events_.clear();
}

bool IngestWorker::merge_event(const IngestEvent& event) {
  if (!admissible(taxonomy_, event.category, event.position, event.timestamp)) return false;
  const data::VenueId venue = resolve_venue(event.category, event.position);
  delta_checkins_.push_back(
      {event.user, venue, event.category, event.position, event.timestamp});
  pending_users_.insert(event.user);
  touched_users_.insert(event.user);
  return true;
}

void IngestWorker::apply(std::span<const IngestEvent> events) {
  std::uint64_t invalid = 0;
  for (const IngestEvent& event : events) {
    if (!merge_event(event)) {
      ++invalid;
      continue;
    }
    // Buffered for the epoch's one WAL record (see journal()).
    if (store_ != nullptr) epoch_events_.push_back(event);
  }
  if (invalid > 0) invalid_->increment(invalid);
  const std::uint64_t accepted = events.size() - invalid;
  if (accepted > 0) accepted_->increment(accepted);
}

void IngestWorker::write_checkpoint() {
  // The image holds the pending delta, so every event merged into it
  // must be on the WAL first — otherwise its record would land *after*
  // the checkpoint and replay as duplicates on recovery. Write the
  // epoch's buffer so far.
  journal();
  // The delta joins a scratch copy of the dataset (only its users'
  // shards are rebuilt); `live_` itself takes it at the next epoch.
  data::DatasetBuilder builder(live_);
  Status status = add_rows(builder, delta_venues_, delta_checkins_);
  if (!status.is_ok()) {
    log_error("checkpoint failed: {}", status.to_string());
    return;
  }
  const data::Dataset corpus = builder.build();
  store::Checkpoint image;
  image.epoch = epoch_;
  image.next_guest_id = next_guest_id_.load(std::memory_order_relaxed);
  image.base_checkin_count = base_checkin_count_;
  const data::NamesPtr names = corpus.name_pool()->snapshot();
  image.names.reserve(names->size());
  for (const std::string_view name : names->names()) image.names.emplace_back(name);
  image.venues.assign(corpus.venues().begin(), corpus.venues().end());
  image.checkins.assign(corpus.checkins().begin(), corpus.checkins().end());
  image.touched_users.assign(touched_users_.begin(), touched_users_.end());
  status = store_->write_checkpoint(std::move(image));
  if (!status.is_ok()) {
    log_error("checkpoint failed: {}", status.to_string());
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(epoch_mutex_);
    ++checkpoints_done_;
  }
  epoch_cv_.notify_all();
}

data::VenueId IngestWorker::resolve_venue(data::CategoryId category,
                                          const geo::LatLon& position) {
  const std::uint64_t key = venue_key(category, position);
  const auto it = venue_index_.find(key);
  if (it != venue_index_.end()) return it->second;
  data::Venue venue;
  venue.id = static_cast<data::VenueId>(live_.venue_count() + delta_venues_.size());
  venue.name = live_.name_pool()->intern(crowdweb::format("live-{}", venue.id));
  venue.category = category;
  venue.position = position;
  venue_index_.emplace(key, venue.id);
  delta_venues_.push_back(venue);
  return venue.id;
}

Status IngestWorker::rebuild_and_publish() {
  const auto start = Clock::now();
  telemetry::ScopedTimer rebuild_timer(rebuild_seconds_);
  const std::size_t delta_events = delta_checkins_.size();
  // Group commit and durability: the epoch's events go to the WAL as one
  // record (synced, per the fsync policy) before any stage runs, so
  // they are durable before a reader can see them.
  journal();

  // Stage 1: merge — apply the delta to the live dataset through the
  // incremental builder: only the shards of touched users are rebuilt,
  // everything else is shared with the previous epoch by pointer.
  telemetry::ScopedTimer merge_timer(stage_merge_seconds_);
  data::DatasetBuilder builder(live_);
  const Status merged = add_rows(builder, delta_venues_, delta_checkins_);
  if (!merged.is_ok()) return merged;
  live_ = builder.build();
  delta_venues_.clear();
  // The crowd stage adds the merged check-ins to the kept tallies.
  std::vector<data::CheckIn> merged_checkins = std::move(delta_checkins_);
  delta_checkins_.clear();
  const data::DatasetBuilder::BuildStats& merge_stats = builder.stats();
  merge_timer.stop();

  // Stage 2: mine — phase 2 for the touched users only, sharded across
  // the mining pool. Each user's kept day-shape index files just the
  // records the delta appended (or refiles from the first record when
  // one landed at or before the last filed), updating the counts of its
  // kept pattern set; the user's entry is served from those counts while
  // they are exact, else mined in full from the shapes. The result
  // batch-merges into the shared mobility table (untouched entries stay
  // shared with the previous epoch).
  telemetry::ScopedTimer mine_timer(stage_mine_seconds_);
  patterns::MobilityOptions mobility_options;
  mobility_options.sequences = pipeline_.sequences;
  mobility_options.mining = pipeline_.mining;
  std::vector<data::UserId> changed(pending_users_.begin(), pending_users_.end());
  std::sort(changed.begin(), changed.end());
  // Every slot exists before the fan-outs, so the threads extend
  // disjoint entries of a map no thread inserts into. The byte total
  // drops the changed indexes here and adds them back once extended.
  std::vector<KeptUser*> kept;
  kept.reserve(changed.size());
  for (const data::UserId user : changed) {
    KeptUser& state = kept_.try_emplace(user, pipeline_.sequences).first->second;
    kept_bytes_total_ -= state.history.resident_bytes();
    kept.push_back(&state);
  }
  if (!changed.empty()) {
    std::vector<patterns::UserMobility> updates(changed.size());
    std::vector<std::uint8_t> appended(changed.size(), 0);
    std::vector<std::uint8_t> counted(changed.size(), 0);
    util::parallel_for(changed.size(), pipeline_.mining_threads, [&](std::size_t i) {
      mining::HistoryIndex& history = kept[i]->history;
      const data::Dataset::UserColumns records = live_.checkins_for(changed[i]);
      const std::size_t from = history.resume_point(records);
      history.extend(records, from, taxonomy_);
      appended[i] = from > 0 ? 1 : 0;
      bool by_count = false;
      updates[i] = patterns::mine_user_mobility(changed[i], history, mobility_options, &by_count);
      counted[i] = by_count ? 1 : 0;
    });
    for (const KeptUser* state : kept) kept_bytes_total_ += state->history.resident_bytes();
    history_bytes_->set(static_cast<double>(kept_bytes_total_));
    const auto appended_users =
        static_cast<std::uint64_t>(std::count(appended.begin(), appended.end(), 1));
    history_appended_->increment(appended_users);
    history_refiled_->increment(changed.size() - appended_users);
    const auto counted_users =
        static_cast<std::uint64_t>(std::count(counted.begin(), counted.end(), 1));
    mining_counted_->increment(counted_users);
    mining_mined_->increment(changed.size() - counted_users);
    std::size_t emitted = 0;
    std::size_t truncated_users = 0;
    for (const patterns::UserMobility& entry : updates) {
      emitted += entry.mining_stats.emitted;
      if (entry.mining_stats.truncated) ++truncated_users;
    }
    mining_emitted_->increment(emitted);
    if (truncated_users > 0) {
      mining_truncated_->increment(truncated_users);
      // Once per epoch, not per user: the cap repeats until raised.
      log_warn(
          "epoch {}: PrefixSpan truncated {} of {} re-mined users at max_patterns={}; "
          "their published tables are incomplete",
          epoch_ + 1, truncated_users, updates.size(),
          pipeline_.mining.max_patterns);
    }
    mobility_ = mobility_.with_updates(std::move(updates));
  }
  mine_timer.stop();

  // Stage 3: crowd — each changed user's kept tally takes the check-ins
  // the delta merged for them (counts do not depend on record order); a
  // user without one, or whose count disagrees with their column after
  // a failed epoch, counts the whole column. Then retract + replace the
  // changed users' placements in the previous model, sharing every
  // unaffected time window.
  telemetry::ScopedTimer crowd_timer(stage_crowd_seconds_);
  std::ranges::sort(merged_checkins, {}, &data::CheckIn::user);
  std::vector<const crowd::VenueTally*> tallies(changed.size());
  const int window_minutes = crowd_->options().window_minutes;
  for (const KeptUser* state : kept) kept_bytes_total_ -= state->tally.resident_bytes();
  util::parallel_for(changed.size(), pipeline_.mining_threads, [&](std::size_t i) {
    const auto delta = std::ranges::equal_range(merged_checkins, changed[i], {},
                                                &data::CheckIn::user);
    const data::Dataset::UserColumns records = live_.checkins_for(changed[i]);
    crowd::VenueTally& tally = kept[i]->tally;
    if (tally.records() > 0 && tally.records() + delta.size() == records.size()) {
      for (const data::CheckIn& checkin : delta) tally.add(checkin);
    } else {
      tally = crowd::VenueTally(records, window_minutes);
    }
    tallies[i] = &tally;
  });
  for (const KeptUser* state : kept) kept_bytes_total_ += state->tally.resident_bytes();
  history_bytes_->set(static_cast<double>(kept_bytes_total_));
  auto crowd = crowd::CrowdModel::update(*crowd_, live_, mobility_, changed, tallies);
  if (!crowd) return crowd.status();
  crowd_ = std::move(*crowd);
  crowd_timer.stop();

  // Delta accounting: how much of this epoch was recomputed vs shared.
  delta_events_->increment(delta_events);
  delta_users_->increment(changed.size());
  delta_shards_reused_->increment(merge_stats.shards_reused);
  delta_shards_rebuilt_->increment(merge_stats.shards_rebuilt);
  delta_shards_appended_->increment(merge_stats.shards_appended);
  delta_records_copied_->increment(merge_stats.records_copied);
  delta_last_events_->set(static_cast<double>(delta_events));

  const double elapsed_ms = ms_since(start);
  ++epoch_;
  // The snapshot shares the live state rather than copying it: the
  // dataset aliases the per-user shards and venue table, the mobility
  // table aliases the per-user entries, and the crowd model aliases
  // the per-window placements — publishing costs O(users), not
  // O(records).
  auto snapshot = std::make_shared<const PlatformSnapshot>(PlatformSnapshot{
      epoch_, live_.checkin_count() - base_checkin_count_, touched_users_.size(),
      elapsed_ms, live_, mobility_, crowd_->grid(), *crowd_});
  live_checkins_->set(static_cast<double>(snapshot->live_checkins));
  hub_.publish(std::move(snapshot));
  epoch_gauge_->set(static_cast<double>(epoch_));
  pending_users_.clear();
  epochs_published_->increment();
  last_rebuild_seconds_->set(rebuild_timer.stop());
  {
    const std::lock_guard<std::mutex> lock(epoch_mutex_);
    published_epoch_ = epoch_;
  }
  epoch_cv_.notify_all();
  return Status::ok();
}

}  // namespace crowdweb::ingest
