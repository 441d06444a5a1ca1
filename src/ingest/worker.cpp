#include "ingest/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "telemetry/timer.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
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
  // Shares the base's shards and venue table, every mined entry and
  // every crowd window. A default-constructed base has no pool; an empty
  // build gives the live dataset one, so every epoch interns into one
  // pool.
  step_.emplace(base.name_pool() != nullptr ? base : data::DatasetBuilder().build(),
                base_mobility, std::move(crowd), taxonomy_,
                patterns::MobilityOptions{pipeline_.sequences, pipeline_.mining},
                pipeline_.mining_threads);
  base_checkin_count_ = step_->dataset().checkin_count();
  index_venues();
}

void IngestWorker::index_venues() {
  const data::Dataset& live = step_->dataset();
  venue_index_.clear();
  venue_index_.reserve(live.venue_count());
  for (const data::Venue& venue : live.venues())
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
  // events take: into the delta, which the first epoch's step merges
  // like any other. The ingest counters stay
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
  // A fresh step over the image, with no kept state: that counted the
  // replaced corpus, so every user refiles and recounts on touch. The
  // mobility table and crowd model stay the seed's until the first epoch
  // re-derives every touched user.
  *step_ = EpochStep(builder.build(), step_->mobility(), step_->crowd(), taxonomy_,
                     patterns::MobilityOptions{pipeline_.sequences, pipeline_.mining},
                     pipeline_.mining_threads);
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
  // shards are rebuilt); the step's dataset takes it at the next epoch.
  data::DatasetBuilder builder(step_->dataset());
  Status status = add_delta(builder, delta_venues_, delta_checkins_);
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
  const data::Dataset& live = step_->dataset();
  venue.id = static_cast<data::VenueId>(live.venue_count() + delta_venues_.size());
  venue.name = live.name_pool()->intern(crowdweb::format("live-{}", venue.id));
  venue.category = category;
  venue.position = position;
  venue_index_.emplace(key, venue.id);
  delta_venues_.push_back(venue);
  return venue.id;
}

Status IngestWorker::rebuild_and_publish() {
  const auto start = Clock::now();
  telemetry::ScopedTimer rebuild_timer(rebuild_seconds_);
  // Group commit and durability: the epoch's events go to the WAL as one
  // record (synced, per the fsync policy) before any stage runs, so
  // they are durable before a reader can see them.
  journal();

  // Merge -> mine -> crowd. A failed step changes no published state:
  // the delta and the pending users wait for the next epoch.
  const std::vector<data::UserId> changed(pending_users_.begin(), pending_users_.end());
  Result<EpochReport> stepped = step_->step(delta_venues_, delta_checkins_, changed);
  if (!stepped) return stepped.status();
  const EpochReport& report = *stepped;
  stage_merge_seconds_->observe(report.merge_seconds);
  stage_mine_seconds_->observe(report.mine_seconds);
  stage_crowd_seconds_->observe(report.crowd_seconds);
  history_appended_->increment(report.appended_users);
  history_refiled_->increment(report.refiled_users);
  history_bytes_->set(static_cast<double>(report.kept_bytes));
  mining_counted_->increment(report.counted_users);
  mining_mined_->increment(report.mined_users);
  mining_emitted_->increment(report.patterns_emitted);
  if (report.truncated_users > 0) {
    mining_truncated_->increment(report.truncated_users);
    // Once per epoch, not per user: the cap repeats until raised.
    log_warn(
        "epoch {}: PrefixSpan truncated {} of {} re-mined users at max_patterns={}; "
        "their published tables are incomplete",
        epoch_ + 1, report.truncated_users, changed.size(), pipeline_.mining.max_patterns);
  }

  // Delta accounting: how much of this epoch was recomputed vs shared.
  delta_events_->increment(delta_checkins_.size());
  delta_users_->increment(changed.size());
  delta_shards_reused_->increment(report.merge.shards_reused);
  delta_shards_rebuilt_->increment(report.merge.shards_rebuilt);
  delta_shards_appended_->increment(report.merge.shards_appended);
  delta_records_copied_->increment(report.merge.records_copied);
  delta_last_events_->set(static_cast<double>(delta_checkins_.size()));
  delta_venues_.clear();
  delta_checkins_.clear();
  pending_users_.clear();

  const double elapsed_ms = ms_since(start);
  ++epoch_;
  // The snapshot shares the live state rather than copying it: the
  // dataset aliases the per-user shards and venue table, the mobility
  // table aliases the per-user entries, and the crowd model aliases
  // the per-window placements — publishing costs O(users), not
  // O(records).
  const data::Dataset& live = step_->dataset();
  auto snapshot = std::make_shared<const PlatformSnapshot>(PlatformSnapshot{
      epoch_, live.checkin_count() - base_checkin_count_, touched_users_.size(), elapsed_ms,
      live, step_->mobility(), step_->crowd().grid(), step_->crowd()});
  live_checkins_->set(static_cast<double>(snapshot->live_checkins));
  hub_.publish(std::move(snapshot));
  epoch_gauge_->set(static_cast<double>(epoch_));
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
