// Durable storage for live ingestion: a segmented write-ahead log plus
// periodic corpus checkpoints, with crash recovery at open().
//
// The store is owned by an IngestWorker, which group-commits: each
// epoch's accepted events become one WAL record, appended (and synced)
// on the worker thread before the epoch's rebuild stages run.
// append()/sync()/write_checkpoint() are called by one thread at a
// time; stats() may be called from any thread. Every crowdweb_store_*
// series carries the owning worker's constant `shard` label, and the
// WAL gauges are set wherever the segment list or a segment's size
// changes.
//
// Durability contract by fsync policy:
//   every_batch — every append is fsynced before it returns, so an
//                 event is on disk before the epoch that carries it is
//                 published; a crash loses at most the final, partially
//                 written record (truncated on recovery), which belongs
//                 to an epoch no reader has seen.
//   never       — the kernel flushes when it pleases; fastest, weakest.
//
// Layout of `dir`:
//   wal-<seq>.log          append-only segments (see wal.hpp)
//   checkpoint-<seq>.ckpt  corpus images (see checkpoint.hpp)
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ingest/event.hpp"
#include "store/checkpoint.hpp"
#include "store/wal.hpp"
#include "telemetry/metrics.hpp"
#include "util/status.hpp"

namespace crowdweb::store {

enum class FsyncPolicy { kEveryBatch, kNever };

[[nodiscard]] std::string_view to_string(FsyncPolicy policy) noexcept;
/// Parses "every_batch" | "never".
[[nodiscard]] std::optional<FsyncPolicy> parse_fsync_policy(std::string_view text) noexcept;

struct StoreConfig {
  /// Store directory (created if missing). Empty = durability disabled;
  /// components treat the store as absent.
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kEveryBatch;
  /// Active segment rotates once it grows past this.
  std::uint64_t segment_bytes = 64ull << 20;
  /// Checkpoint files retained; older ones (and the WAL segments they
  /// cover) are pruned after each successful checkpoint. Minimum 1.
  std::size_t keep_checkpoints = 2;
  /// Registry for the crowdweb_store_* families. Null = private
  /// registry (stats() still works). Must outlive the store.
  telemetry::Registry* metrics = nullptr;
  /// The `shard` label of every series; the owning worker sets it from
  /// IngestWorkerConfig::shard.
  std::size_t shard = 0;
};

/// What open() reconstructed from disk, for the worker to adopt.
struct RecoveredState {
  /// Newest decodable checkpoint, if any survived.
  std::optional<Checkpoint> checkpoint;
  /// WAL records strictly after the checkpoint's coverage, replay order.
  std::vector<WalRecord> records;
  /// Events across `records`.
  std::uint64_t replayed_events = 0;
  /// Largest epoch seen on disk (checkpoint or WAL); the worker resumes
  /// its epoch counter past this so the published epoch stays monotonic
  /// across restarts.
  std::uint64_t max_epoch = 0;
  /// Torn-tail bytes truncated from the final segment (0 = clean).
  std::uint64_t truncated_bytes = 0;
};

/// Point-in-time store counters for `GET /api/store/stats`.
struct StoreStats {
  std::string dir;
  std::string fsync_policy;
  std::uint64_t wal_segments = 0;  ///< sealed + active
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_bytes_since_checkpoint = 0;
  std::uint64_t last_record_seq = 0;
  std::uint64_t append_records = 0;
  std::uint64_t append_bytes = 0;
  std::uint64_t append_failures = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t last_checkpoint_seq = 0;
  std::uint64_t last_checkpoint_epoch = 0;
  std::uint64_t recovery_replayed_records = 0;
  std::uint64_t recovery_truncated_bytes = 0;
};

class DurableStore {
 public:
  /// Opens (creating if missing) the store at `config.dir` and runs
  /// recovery: newest valid checkpoint + WAL tail scan, truncating a
  /// torn final record and refusing corrupt middles. On success the
  /// store is ready for appends and `recovered()` holds the state to
  /// adopt. `config.dir` must be non-empty.
  [[nodiscard]] static Result<std::unique_ptr<DurableStore>> open(StoreConfig config);

  ~DurableStore();
  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Moves the recovery outcome out (the corpus image can be large;
  /// adopt it once, then the store keeps only counters).
  [[nodiscard]] RecoveredState take_recovered();

  /// Journals `events` — one epoch's accepted events, for the worker —
  /// as the next WAL record. Empty spans are ignored. Fsyncs per policy,
  /// then rotates the segment once it is full.
  [[nodiscard]] Status append(std::uint64_t epoch,
                              std::span<const ingest::IngestEvent> events);

  /// Forces an fsync of the active segment (any policy).
  [[nodiscard]] Status sync();

  /// Writes `image` as the next checkpoint (atomic temp+rename), then
  /// prunes checkpoints beyond the retention and WAL segments fully
  /// covered by the *oldest retained* checkpoint. The store fills
  /// `image.seq` and `image.last_record_seq`.
  [[nodiscard]] Status write_checkpoint(Checkpoint image);

  /// WAL bytes appended since the last successful checkpoint (drives
  /// the automatic-checkpoint trigger).
  [[nodiscard]] std::uint64_t wal_bytes_since_checkpoint() const;

  [[nodiscard]] const StoreConfig& config() const noexcept { return config_; }
  [[nodiscard]] StoreStats stats() const;

 private:
  explicit DurableStore(StoreConfig config);

  [[nodiscard]] Status recover();
  [[nodiscard]] Status open_active_segment(std::uint64_t segment_seq, bool fresh);
  [[nodiscard]] Status rotate_locked();
  [[nodiscard]] Status sync_locked();
  void prune_locked();
  /// Bytes across the sealed and active segments. Caller holds `mutex_`.
  [[nodiscard]] std::uint64_t wal_bytes_locked() const;
  /// Sets the WAL segment and byte gauges. Caller holds `mutex_`.
  void set_wal_gauges_locked();
  void init_metrics();

  struct SegmentInfo {
    std::uint64_t seq = 0;
    std::string path;
    std::uint64_t bytes = 0;
    /// Largest record seq inside; 0 = no records.
    std::uint64_t last_record_seq = 0;
  };

  StoreConfig config_;
  RecoveredState recovered_;

  mutable std::mutex mutex_;
  std::vector<SegmentInfo> sealed_;  // ascending seq
  SegmentInfo active_;
  int active_fd_ = -1;
  bool dirty_ = false;  ///< unsynced writes on the active segment
  std::uint64_t next_record_seq_ = 1;
  std::string encode_buffer_;  ///< reused frame buffer for append()
  std::uint64_t wal_bytes_since_checkpoint_ = 0;
  std::uint64_t last_checkpoint_seq_ = 0;
  std::uint64_t last_checkpoint_epoch_ = 0;
  std::uint64_t last_covered_record_seq_ = 0;  ///< newest checkpoint coverage
  /// Retained checkpoint files, ascending seq: {seq, last_record_seq}.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> checkpoints_;

  std::unique_ptr<telemetry::Registry> own_metrics_;
  telemetry::Registry* metrics_ = nullptr;
  telemetry::Counter* append_records_ = nullptr;
  telemetry::Counter* append_bytes_ = nullptr;
  telemetry::Counter* append_failures_ = nullptr;
  telemetry::Counter* fsyncs_ = nullptr;
  telemetry::Counter* checkpoints_total_ = nullptr;
  telemetry::Counter* recovery_replayed_ = nullptr;
  telemetry::Counter* recovery_truncated_ = nullptr;
  telemetry::Histogram* append_seconds_ = nullptr;
  telemetry::Histogram* checkpoint_seconds_ = nullptr;
  telemetry::Gauge* wal_segments_ = nullptr;
  telemetry::Gauge* wal_bytes_ = nullptr;
};

}  // namespace crowdweb::store
