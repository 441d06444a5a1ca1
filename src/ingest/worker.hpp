// Background ingestion worker: queue -> validation -> delta merge ->
// epoch publication.
//
// The worker is seeded with an epoch-0 state — the batch build's
// snapshot, or a shard's slice of it — and shares its dataset's
// per-user shards, its mined entries and its crowd model's windows. It
// owns the only mutable state derived from them after that. The corpus
// has one copy: the indexed dataset the last epoch published plus the
// delta merged since. The worker drains the ingest queue in batches,
// validates events against the taxonomy, resolves each event onto a
// venue (an existing one at that position, or a freshly registered
// "live" venue), and appends the resulting check-in to the delta. On a
// configurable cadence it applies the delta to the dataset, re-mines
// phase 2 *only* for users whose history changed, updates the seed's
// phase-3 crowd model for those users (CrowdModel::update; the worker
// never builds one in full), and publishes the result as the next
// immutable epoch through a SnapshotHub. The seed model fixes the
// spatial grid and the crowd options for every epoch: events outside
// the grid clamp to edge cells, so an event lands in the same cell at
// every shard count. HTTP readers keep loading snapshots, never waiting
// on the rebuild, while the worker prepares the next one.
//
// The worker and its store record every crowdweb_ingest_*,
// crowdweb_mining_* and crowdweb_store_* series under the worker's
// constant `shard` label (IngestWorkerConfig::shard; "0" for a lone
// worker), setting each gauge when its value changes, so the N workers
// of a sharded deployment share its one registry.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crowd/model.hpp"
#include "data/categories.hpp"
#include "data/dataset.hpp"
#include "ingest/queue.hpp"
#include "ingest/snapshot.hpp"
#include "mining/seqdb.hpp"
#include "patterns/mobility.hpp"
#include "store/store.hpp"
#include "telemetry/metrics.hpp"
#include "util/status.hpp"

namespace crowdweb::ingest {

/// The first id allocate_guest_id() hands out: anonymous submissions
/// get ids from here up, above every corpus id range. Recovery raises
/// the allocator past every guest id it replays.
inline constexpr data::UserId kFirstGuestId = 3'000'000'000u;

/// How the worker rebuilds derived state (mirrors PlatformConfig's
/// phase-2/phase-3 knobs; see core::ingest_pipeline_config).
///
/// A seeded worker reads `sequences`, `mining` and `mining_threads`
/// only: its seed's crowd model fixes the grid and the crowd options.
/// `grid_cell_meters`, `crowd` and `fixed_grid_bounds` are read only by
/// the constructor that builds its own seed.
struct IngestPipelineConfig {
  double grid_cell_meters = 500.0;
  crowd::CrowdOptions crowd;
  mining::SequenceOptions sequences;
  mining::MiningOptions mining;
  /// Worker threads for delta re-mining and tally counting (0 =
  /// hardware concurrency). Epochs re-mine only the users the delta
  /// touched, sharded across this many threads.
  unsigned mining_threads = 0;
  /// The box the unseeded constructor's grid covers (inflated by a
  /// small margin). Unset = the base corpus's bounds.
  std::optional<geo::BoundingBox> fixed_grid_bounds;
};

struct IngestWorkerConfig {
  std::size_t queue_capacity = 8192;
  /// Minimum spacing between epoch rebuilds; accepted events batch up in
  /// between.
  std::chrono::milliseconds rebuild_interval{200};
  /// Telemetry registry the worker records onto (crowdweb_ingest_* and
  /// crowdweb_mining_* families; see docs/OBSERVABILITY.md). Must
  /// outlive the worker. Null = the worker keeps a private registry
  /// (stats() still works).
  telemetry::Registry* metrics = nullptr;
  /// The worker's shard index: the constant `shard` label on every
  /// series the worker and its store record, and the suffix of its
  /// thread's name (`cw-ingest-<shard>`). A lone worker is shard 0; the
  /// ShardRouter numbers its workers 0..N-1. Workers sharing a registry
  /// need distinct indexes.
  std::size_t shard = 0;
  /// Durable storage (WAL + checkpoints). `store.dir` empty = disabled:
  /// the worker keeps the pre-durability behavior (memory only). With a
  /// directory set, start() runs crash recovery before publishing
  /// epoch 1, and the worker thread writes each epoch's accepted events
  /// as one WAL record before that epoch's rebuild stages run, so they
  /// are on the WAL before the epoch is published (group commit: one
  /// record and, under every_batch, one fsync per epoch). Acceptance alone
  /// promises nothing durable. `store.metrics` null inherits the
  /// worker's registry; the worker sets `store.shard` to `shard`.
  store::StoreConfig store;
};

/// Monotonic counters for `GET /api/ingest/stats`.
struct IngestStats {
  std::uint64_t submitted = 0;   ///< events offered through submit()
  std::uint64_t accepted = 0;    ///< validated and merged (or pending merge)
  std::uint64_t rejected = 0;    ///< refused by the full queue
  std::uint64_t invalid = 0;     ///< failed validation
  std::uint64_t epochs_published = 0;
  std::uint64_t current_epoch = 0;    ///< epoch visible in the hub
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::uint64_t live_checkins = 0;    ///< accepted deltas in the published epoch
  double last_rebuild_ms = 0.0;
  double total_rebuild_ms = 0.0;
};

/// Outcome of one submit() call.
struct SubmitResult {
  std::size_t accepted = 0;  ///< enqueued for the worker
  std::size_t rejected = 0;  ///< refused: queue full (retry later)
};

class IngestWorker {
 public:
  /// `seed` is the epoch-0 state: its dataset, mobility table and crowd
  /// model are shared, not copied — the per-user shards and venue
  /// table, every mined entry and every crowd window alias the seed's
  /// until a delta replaces them. The seed's crowd model fixes the grid
  /// and crowd options. `taxonomy` must outlive the worker.
  IngestWorker(const PlatformSnapshot& seed, const data::Taxonomy& taxonomy,
               IngestPipelineConfig pipeline = {}, IngestWorkerConfig config = {});
  /// Builds the seed itself: a grid over `pipeline.fixed_grid_bounds`
  /// (or `base.bounds()`) at `pipeline.grid_cell_meters`, and one
  /// CrowdModel::build over `base` and `base_mobility` with
  /// `pipeline.crowd`. A seed that cannot be built makes start() return
  /// its status.
  IngestWorker(const data::Dataset& base, const patterns::MobilityTable& base_mobility,
               const data::Taxonomy& taxonomy, IngestPipelineConfig pipeline = {},
               IngestWorkerConfig config = {});
  ~IngestWorker();
  IngestWorker(const IngestWorker&) = delete;
  IngestWorker& operator=(const IngestWorker&) = delete;

  /// Recovers from the durable store when one is configured: the newest
  /// checkpoint replaces the seed corpus, and the WAL tail is replayed
  /// into the delta, which the first epoch merges like any live delta;
  /// that epoch re-mines and re-places every user the checkpoint or the
  /// tail touched. Publishes the recovered corpus as the first epoch and
  /// spawns the worker thread. Without a store, publishes the seed as
  /// epoch 1, sharing every crowd window. Fails, naming the row, on a
  /// checkpoint row the live path would refuse, and with the seed's
  /// status when it could not be built (nothing published, no thread).
  [[nodiscard]] Status start();

  /// Closes the queue, merges what was already accepted into a final
  /// epoch, and joins (idempotent).
  void stop();

  [[nodiscard]] bool running() const noexcept;

  /// Producer side: enqueues events with backpressure. Thread-safe.
  SubmitResult submit(std::span<const IngestEvent> events);

  /// Accounts events a producer discarded before submission (e.g. CSV
  /// rows that failed to parse). Thread-safe.
  void note_invalid(std::uint64_t count) noexcept;

  /// A fresh user id for an anonymous submission (outside any corpus
  /// id range). Thread-safe.
  [[nodiscard]] data::UserId allocate_guest_id() noexcept;
  /// The id allocate_guest_id() hands out next.
  [[nodiscard]] data::UserId next_guest_id() const noexcept;
  /// Raises the guest allocator to at least `next`, so ids another
  /// worker already handed out are never reused. Thread-safe.
  void reserve_guest_ids(data::UserId next) noexcept;

  [[nodiscard]] const SnapshotHub& hub() const noexcept { return hub_; }
  /// Mutable hub access, e.g. to register SnapshotHub::on_publish hooks
  /// (do so before start() to observe the first epoch).
  [[nodiscard]] SnapshotHub& hub() noexcept { return hub_; }
  [[nodiscard]] const data::Taxonomy& taxonomy() const noexcept { return taxonomy_; }
  /// The worker's configuration (e.g. the rebuild interval backing the
  /// Retry-After hint on 429 responses).
  [[nodiscard]] const IngestWorkerConfig& config() const noexcept { return config_; }

  [[nodiscard]] IngestStats stats() const;

  /// The durable store, or null when durability is disabled (not
  /// configured, or start() has not run yet). Valid once start()
  /// returned OK; the pointer is stable until destruction.
  [[nodiscard]] store::DurableStore* store() const noexcept { return store_.get(); }

  /// Asks the worker thread to write a checkpoint and blocks until it
  /// lands (or `timeout` expires). Thread-safe.
  [[nodiscard]] Status checkpoint_now(std::chrono::milliseconds timeout);

  /// Blocks until the published epoch reaches `epoch` (true) or the
  /// timeout expires (false).
  [[nodiscard]] bool wait_for_epoch(std::uint64_t epoch,
                                    std::chrono::milliseconds timeout) const;

 private:
  /// The constructors' common head: configuration and telemetry.
  IngestWorker(const data::Taxonomy& taxonomy, IngestPipelineConfig pipeline,
               IngestWorkerConfig config);
  void run();
  /// Appends `epoch_events_` to the WAL as one record (synced, per the
  /// fsync policy) and clears it; a no-op when it is empty. Called
  /// before an epoch's stages run and before a checkpoint snapshots the
  /// corpus. Worker thread only.
  void journal();
  /// Validates and applies drained events to the delta state, and
  /// buffers the accepted subset in `epoch_events_` for the journal.
  /// Worker thread only.
  void apply(std::span<const IngestEvent> events);
  /// Validates one event and appends it to the delta (shared by live
  /// apply and WAL replay). Returns false for invalid events.
  bool merge_event(const IngestEvent& event);
  /// Opens the store, adopts its recovered checkpoint, replays the WAL
  /// tail into the delta, and resumes the epoch counter. Called from
  /// start().
  [[nodiscard]] Status recover_from_store();
  /// Replaces the seed corpus with a checkpoint image: `live_` is built
  /// once from its rows. Fails on a row the live path would refuse.
  [[nodiscard]] Status adopt_checkpoint(const store::Checkpoint& checkpoint);
  /// Keys every venue of `live_` for resolve_venue().
  void index_venues();
  /// Writes `live_` plus the pending delta, in the dataset's (user,
  /// timestamp) order, to the store as a checkpoint. Worker thread only.
  void write_checkpoint();
  /// Shares the seed's state; the constructors' common tail.
  void adopt_seed(const data::Dataset& base, const patterns::MobilityTable& base_mobility,
                  crowd::CrowdModel crowd);
  /// Rebuilds derived state and publishes the next epoch. Worker thread
  /// only (also called once from start() before the thread exists).
  Status rebuild_and_publish();
  [[nodiscard]] data::VenueId resolve_venue(data::CategoryId category,
                                            const geo::LatLon& position);

  const data::Taxonomy& taxonomy_;
  IngestPipelineConfig pipeline_;
  IngestWorkerConfig config_;
  IngestQueue queue_;
  SnapshotHub hub_;

  // Live corpus, owned by the worker thread after start(): `live_` as
  // the last epoch published it, plus the delta merged since. Each
  // epoch applies the delta through data::DatasetBuilder's incremental
  // path, the one merge path (WAL replay after a restart takes it too).
  // A new venue's id is live_.venue_count() + delta_venues_.size(), and
  // its generated name is interned into live_.name_pool(): the base
  // corpus's pool (shared — base NameIds stay valid), or after recovery
  // one rebuilt from the checkpoint's names table. The pool is
  // append-only, so ids never move across epochs.
  data::Dataset live_;
  std::vector<data::Venue> delta_venues_;      // registered since last epoch
  std::vector<data::CheckIn> delta_checkins_;  // merged since last epoch
  patterns::MobilityTable mobility_;           // per-user shared entries
  std::unordered_map<std::uint64_t, data::VenueId> venue_index_;
  std::unordered_set<data::UserId> pending_users_;  // changed since last epoch
  std::unordered_set<data::UserId> touched_users_;  // ever touched by deltas
  // Each re-mined user's kept state (never published): their days as a
  // shape index with its kept pattern set, which an epoch extends by the
  // records its delta appended, and their check-ins as a venue tally,
  // which takes the delta's check-ins. Cleared when a checkpoint replaces the corpus; a
  // user missing here refiles and recounts from their first record.
  struct KeptUser {
    explicit KeptUser(const mining::SequenceOptions& sequences) : history(sequences) {}
    mining::HistoryIndex history;
    crowd::VenueTally tally;
  };
  std::unordered_map<data::UserId, KeptUser> kept_;
  std::size_t kept_bytes_total_ = 0;  // resident bytes of kept_
  std::uint64_t epoch_ = 0;
  std::size_t base_checkin_count_ = 0;  // check-ins of `live_` not from live events

  // The crowd model, carried across epochs: the seed's, then each
  // epoch's CrowdModel::update of the last, sharing every window no
  // changed user touched. Its grid is the epoch's grid. Empty, with
  // seed_status_ set, when the unseeded constructor could not build it.
  std::optional<crowd::CrowdModel> crowd_;
  Status seed_status_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  // Telemetry: the worker's `shard`-labelled series of the
  // crowdweb_ingest_* families are its only accounting — IngestStats
  // reads them back. `own_metrics_` backs workers constructed without an
  // external registry.
  void init_metrics();
  std::unique_ptr<telemetry::Registry> own_metrics_;
  telemetry::Registry* metrics_ = nullptr;
  telemetry::Counter* submitted_ = nullptr;
  telemetry::Counter* accepted_ = nullptr;
  telemetry::Counter* invalid_ = nullptr;
  telemetry::Counter* epochs_published_ = nullptr;
  telemetry::Counter* wakeups_ = nullptr;
  telemetry::Histogram* rebuild_seconds_ = nullptr;
  telemetry::Histogram* stage_merge_seconds_ = nullptr;
  telemetry::Histogram* stage_mine_seconds_ = nullptr;
  telemetry::Histogram* stage_crowd_seconds_ = nullptr;
  telemetry::Gauge* last_rebuild_seconds_ = nullptr;
  telemetry::Gauge* epoch_gauge_ = nullptr;    // set after each publish
  telemetry::Gauge* live_checkins_ = nullptr;  // set before each publish
  // Delta-pipeline accounting (crowdweb_ingest_delta_*): how much of
  // each epoch was actually recomputed vs shared with the previous one.
  telemetry::Counter* delta_events_ = nullptr;
  telemetry::Counter* delta_users_ = nullptr;
  telemetry::Counter* delta_shards_reused_ = nullptr;
  telemetry::Counter* delta_shards_rebuilt_ = nullptr;
  telemetry::Counter* delta_shards_appended_ = nullptr;
  telemetry::Counter* delta_records_copied_ = nullptr;
  telemetry::Gauge* delta_last_events_ = nullptr;
  // Mining accounting (crowdweb_mining_*): what the per-user re-mines of
  // each epoch emitted, how many were served by counting or mined in
  // full, and — the one worth alerting on — how many were truncated at
  // the max_patterns cap.
  telemetry::Counter* mining_emitted_ = nullptr;
  telemetry::Counter* mining_truncated_ = nullptr;
  telemetry::Counter* mining_counted_ = nullptr;
  telemetry::Counter* mining_mined_ = nullptr;
  // Kept per-user state accounting (crowdweb_ingest_history_*).
  telemetry::Counter* history_appended_ = nullptr;
  telemetry::Counter* history_refiled_ = nullptr;
  telemetry::Gauge* history_bytes_ = nullptr;

  std::atomic<data::UserId> next_guest_id_{kFirstGuestId};

  // Durable storage. Set once in start(), before the thread exists.
  std::unique_ptr<store::DurableStore> store_;
  std::atomic<bool> checkpoint_requested_{false};

  // Group commit: apply() buffers accepted events in epoch_events_, and
  // journal() writes the buffer as one record on the worker thread, at
  // the top of rebuild_and_publish() (before the merge stage) and before
  // write_checkpoint() snapshots the corpus.
  std::vector<IngestEvent> epoch_events_;  // accepted since the last record

  mutable std::mutex epoch_mutex_;
  mutable std::condition_variable epoch_cv_;
  std::uint64_t published_epoch_ = 0;   // guarded by epoch_mutex_
  std::uint64_t checkpoints_done_ = 0;  // guarded by epoch_mutex_
};

}  // namespace crowdweb::ingest
