#include "store/store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "data/dataset_io.hpp"
#include "telemetry/timer.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace crowdweb::store {

namespace fs = std::filesystem;

std::string_view to_string(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kEveryBatch: return "every_batch";
    case FsyncPolicy::kNever: return "never";
  }
  return "unknown";
}

std::optional<FsyncPolicy> parse_fsync_policy(std::string_view text) noexcept {
  if (text == "every_batch") return FsyncPolicy::kEveryBatch;
  if (text == "never") return FsyncPolicy::kNever;
  return std::nullopt;
}

namespace {

Status errno_error(std::string_view action, const std::string& path) {
  return io_error(
      crowdweb::format("{} {}: {}", action, path, std::strerror(errno)));
}

/// write(2) until the buffer is gone (short writes are legal).
Status write_all(int fd, std::string_view bytes, const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_error("write", path);
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return Status::ok();
}

}  // namespace

DurableStore::DurableStore(StoreConfig config) : config_(std::move(config)) {
  if (config_.keep_checkpoints == 0) config_.keep_checkpoints = 1;
  init_metrics();
}

DurableStore::~DurableStore() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_fd_ >= 0) {
    if (dirty_ && config_.fsync != FsyncPolicy::kNever) ::fsync(active_fd_);
    ::close(active_fd_);
    active_fd_ = -1;
  }
}

void DurableStore::init_metrics() {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    own_metrics_ = std::make_unique<telemetry::Registry>();
    metrics_ = own_metrics_.get();
  }
  // Every series carries the owning worker's constant shard label, so
  // the stores of N workers record into one registry.
  const std::string shard = std::to_string(config_.shard);
  const auto counter = [&](const std::string& name, const std::string& help) {
    return &metrics_->counter_family(name, help, {"shard"}).with_labels({shard});
  };
  const auto gauge = [&](const std::string& name, const std::string& help) {
    return &metrics_->gauge_family(name, help, {"shard"}).with_labels({shard});
  };
  const auto histogram = [&](const std::string& name, const std::string& help,
                             std::vector<double> bounds) {
    return &metrics_->histogram_family(name, help, {"shard"}, std::move(bounds))
                .with_labels({shard});
  };
  append_records_ = counter("crowdweb_store_append_records_total",
                            "WAL records appended (one per epoch that carried events).");
  append_bytes_ =
      counter("crowdweb_store_append_bytes_total", "Bytes appended to the write-ahead log.");
  append_failures_ = counter("crowdweb_store_append_failures_total",
                             "WAL appends that failed (events stayed in memory only).");
  fsyncs_ =
      counter("crowdweb_store_fsyncs_total", "fsync(2) calls issued against WAL segments.");
  checkpoints_total_ = counter("crowdweb_store_checkpoints_total", "Checkpoints written.");
  recovery_replayed_ =
      counter("crowdweb_store_recovery_replayed_records_total",
              "WAL records replayed through the merge path during startup recovery.");
  recovery_truncated_ =
      counter("crowdweb_store_recovery_truncated_bytes_total",
              "Torn-tail bytes truncated from the final WAL segment during recovery.");
  append_seconds_ =
      histogram("crowdweb_store_append_duration_seconds",
                "Wall time to journal one epoch's record (encode + write + fsync when due).",
                telemetry::default_latency_buckets());
  checkpoint_seconds_ =
      histogram("crowdweb_store_checkpoint_duration_seconds",
                "Wall time to encode, write, and prune for one checkpoint.",
                telemetry::default_duration_buckets());
  wal_segments_ = gauge("crowdweb_store_wal_segments", "WAL segment files (sealed + active).");
  wal_bytes_ = gauge("crowdweb_store_wal_bytes", "Total bytes across WAL segment files.");
}

Result<std::unique_ptr<DurableStore>> DurableStore::open(StoreConfig config) {
  if (config.dir.empty())
    return invalid_argument("durable store requires a non-empty directory");
  std::error_code ec;
  fs::create_directories(config.dir, ec);
  if (ec) {
    return io_error(
        crowdweb::format("create store directory {}: {}", config.dir, ec.message()));
  }
  std::unique_ptr<DurableStore> store(new DurableStore(std::move(config)));
  const Status status = store->recover();
  if (!status.is_ok()) return status;
  return store;
}

Status DurableStore::recover() {
  // 1. Inventory the directory.
  std::vector<std::pair<std::uint64_t, std::string>> segments;     // seq, path
  std::vector<std::pair<std::uint64_t, std::string>> checkpoints;  // seq, path
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (const auto wal_seq = parse_wal_segment_name(name)) {
      segments.emplace_back(*wal_seq, entry.path().string());
    } else if (const auto ckpt_seq = parse_checkpoint_file_name(name)) {
      checkpoints.emplace_back(*ckpt_seq, entry.path().string());
    }
  }
  if (ec)
    return io_error(crowdweb::format("list store directory {}: {}", config_.dir,
                                     ec.message()));
  std::sort(segments.begin(), segments.end());
  std::sort(checkpoints.begin(), checkpoints.end());

  // 2. Newest decodable checkpoint wins; older ones are the fallback. A
  //    directory whose every checkpoint is corrupt is refused — silently
  //    restarting empty would discard the corpus.
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    Result<std::string> bytes = data::read_file(it->second);
    Result<Checkpoint> checkpoint = bytes ? decode_checkpoint(*bytes, it->second)
                                          : Result<Checkpoint>(bytes.status());
    if (checkpoint) {
      recovered_.checkpoint = std::move(*checkpoint);
      break;
    }
    log_warn("store recovery: skipping checkpoint {}: {}", it->second,
             checkpoint.status().message());
  }
  if (!checkpoints.empty() && !recovered_.checkpoint.has_value()) {
    return io_error(crowdweb::format(
        "store at {}: {} checkpoint file(s) present but none decodes cleanly; "
        "inspect with tools/wal_inspect or remove the directory to start empty",
        config_.dir, checkpoints.size()));
  }
  if (recovered_.checkpoint) {
    last_covered_record_seq_ = recovered_.checkpoint->last_record_seq;
    last_checkpoint_seq_ = recovered_.checkpoint->seq;
    last_checkpoint_epoch_ = recovered_.checkpoint->epoch;
    recovered_.max_epoch = recovered_.checkpoint->epoch;
  }
  for (const auto& [seq, path] : checkpoints) {
    if (recovered_.checkpoint && seq <= recovered_.checkpoint->seq) {
      // Coverage of older files is unknown without decoding them again;
      // conservative 0 keeps their WAL segments until they are pruned.
      checkpoints_.emplace_back(
          seq, seq == recovered_.checkpoint->seq ? recovered_.checkpoint->last_record_seq
                                                 : 0);
    }
  }

  // 3. Scan the WAL, oldest segment first. Only the final segment may
  //    carry a torn tail.
  std::uint64_t max_record_seq = last_covered_record_seq_;
  std::uint64_t last_seen_seq = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& [seg_seq, path] = segments[i];
    const bool is_last = i + 1 == segments.size();
    Result<std::string> bytes = data::read_file(path);
    if (!bytes) return bytes.status();
    Result<SegmentScan> scan = scan_wal_segment(*bytes, path, seg_seq, is_last);
    if (!scan) return scan.status();
    if (scan->torn_bytes > 0) {
      std::error_code resize_ec;
      fs::resize_file(path, scan->valid_bytes, resize_ec);
      if (resize_ec) {
        return io_error(crowdweb::format("truncate torn tail of {}: {}", path,
                                         resize_ec.message()));
      }
      log_warn("store recovery: truncated {} torn byte(s) from {}", scan->torn_bytes,
               path);
      recovered_.truncated_bytes += scan->torn_bytes;
      recovery_truncated_->increment(scan->torn_bytes);
    }
    SegmentInfo info;
    info.seq = seg_seq;
    info.path = path;
    info.bytes = scan->valid_bytes;
    for (WalRecord& record : scan->records) {
      if (record.seq <= last_seen_seq) {
        return io_error(crowdweb::format(
            "{}: record seq {} does not advance past {} — WAL ordering is "
            "broken; inspect with tools/wal_inspect",
            path, record.seq, last_seen_seq));
      }
      last_seen_seq = record.seq;
      info.last_record_seq = record.seq;
      max_record_seq = std::max(max_record_seq, record.seq);
      recovered_.max_epoch = std::max(recovered_.max_epoch, record.epoch);
      if (record.seq > last_covered_record_seq_) {
        recovered_.replayed_events += record.events.size();
        recovered_.records.push_back(std::move(record));
      }
    }
    sealed_.push_back(std::move(info));
  }
  recovery_replayed_->increment(recovered_.records.size());
  next_record_seq_ = max_record_seq + 1;

  // 4. Open the active segment: continue the last one while it has
  //    room, otherwise start fresh past every seq ever used.
  std::uint64_t next_segment_seq = 1;
  if (!sealed_.empty()) next_segment_seq = sealed_.back().seq + 1;
  if (!sealed_.empty() && sealed_.back().bytes < config_.segment_bytes) {
    active_ = sealed_.back();
    sealed_.pop_back();
    return open_active_segment(active_.seq, /*fresh=*/false);
  }
  return open_active_segment(next_segment_seq, /*fresh=*/true);
}

Status DurableStore::open_active_segment(std::uint64_t segment_seq, bool fresh) {
  const std::string path =
      (fs::path(config_.dir) / wal_segment_name(segment_seq)).string();
  const int flags = O_WRONLY | O_APPEND | O_CLOEXEC | (fresh ? O_CREAT | O_EXCL : 0);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return errno_error("open WAL segment", path);
  if (fresh) {
    active_ = SegmentInfo{};
    active_.seq = segment_seq;
    active_.path = path;
    const std::string header = encode_segment_header(segment_seq);
    const Status status = write_all(fd, header, path);
    if (!status.is_ok()) {
      ::close(fd);
      return status;
    }
    active_.bytes = header.size();
    dirty_ = true;
  }
  active_fd_ = fd;
  set_wal_gauges_locked();
  return Status::ok();
}

RecoveredState DurableStore::take_recovered() {
  return std::exchange(recovered_, RecoveredState{});
}

Status DurableStore::append(std::uint64_t epoch,
                            std::span<const ingest::IngestEvent> events) {
  if (events.empty()) return Status::ok();
  telemetry::ScopedTimer timer(append_seconds_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_fd_ < 0) {
    append_failures_->increment();
    return failed_precondition("durable store has no active WAL segment");
  }
  encode_buffer_.clear();
  append_framed_record(encode_buffer_, next_record_seq_, epoch, events);

  const Status status = write_all(active_fd_, encode_buffer_, active_.path);
  if (!status.is_ok()) {
    append_failures_->increment();
    return status;
  }
  active_.last_record_seq = next_record_seq_;
  ++next_record_seq_;
  active_.bytes += encode_buffer_.size();
  wal_bytes_since_checkpoint_ += encode_buffer_.size();
  dirty_ = true;
  append_records_->increment();
  append_bytes_->increment(encode_buffer_.size());
  set_wal_gauges_locked();

  if (config_.fsync == FsyncPolicy::kEveryBatch) {
    const Status sync_status = sync_locked();
    if (!sync_status.is_ok()) return sync_status;
  }
  if (active_.bytes >= config_.segment_bytes) return rotate_locked();
  return Status::ok();
}

Status DurableStore::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  return sync_locked();
}

Status DurableStore::sync_locked() {
  if (active_fd_ < 0 || !dirty_) return Status::ok();
  if (::fsync(active_fd_) != 0) return errno_error("fsync", active_.path);
  dirty_ = false;
  fsyncs_->increment();
  return Status::ok();
}

Status DurableStore::rotate_locked() {
  // Seal the active segment: flush it, then start the next one. The
  // seal fsync is unconditional (rotation is rare) so sealed segments
  // are always fully on disk before anything references past them.
  if (active_fd_ >= 0) {
    dirty_ = true;  // force the flush even under kNever
    const Status status = sync_locked();
    if (!status.is_ok()) return status;
    ::close(active_fd_);
    active_fd_ = -1;
  }
  sealed_.push_back(active_);
  return open_active_segment(active_.seq + 1, /*fresh=*/true);
}

Status DurableStore::write_checkpoint(Checkpoint image) {
  telemetry::ScopedTimer timer(checkpoint_seconds_);
  std::lock_guard<std::mutex> lock(mutex_);
  // Rotate first so the checkpoint covers whole segments only; the
  // rotation also fsyncs, making everything the image covers durable
  // before the image itself exists.
  const Status rotated = rotate_locked();
  if (!rotated.is_ok()) return rotated;

  image.seq = last_checkpoint_seq_ + 1;
  image.last_record_seq = next_record_seq_ - 1;
  const std::string path =
      (fs::path(config_.dir) / checkpoint_file_name(image.seq)).string();
  const Status written = data::write_file(path, encode_checkpoint(image));
  if (!written.is_ok()) return written;

  last_checkpoint_seq_ = image.seq;
  last_checkpoint_epoch_ = image.epoch;
  last_covered_record_seq_ = image.last_record_seq;
  checkpoints_.emplace_back(image.seq, image.last_record_seq);
  wal_bytes_since_checkpoint_ = 0;
  checkpoints_total_->increment();
  prune_locked();
  log_info("store checkpoint {} written: epoch {}, covers WAL through record {}",
           image.seq, image.epoch, image.last_record_seq);
  return Status::ok();
}

void DurableStore::prune_locked() {
  // Drop checkpoints beyond the retention window (oldest first)...
  while (checkpoints_.size() > config_.keep_checkpoints) {
    const auto [seq, covered] = checkpoints_.front();
    (void)covered;
    const std::string path =
        (fs::path(config_.dir) / checkpoint_file_name(seq)).string();
    std::error_code ec;
    fs::remove(path, ec);
    if (ec) {
      log_warn("store prune: cannot remove {}: {}", path, ec.message());
      break;  // retry after the next checkpoint
    }
    checkpoints_.erase(checkpoints_.begin());
  }
  // ...then every sealed segment fully covered by the *oldest retained*
  // checkpoint: fallback recovery from that checkpoint never needs them.
  if (checkpoints_.empty()) return;
  const std::uint64_t safe_through = checkpoints_.front().second;
  while (!sealed_.empty() && sealed_.front().last_record_seq <= safe_through) {
    std::error_code ec;
    fs::remove(sealed_.front().path, ec);
    if (ec) {
      log_warn("store prune: cannot remove {}: {}", sealed_.front().path, ec.message());
      break;
    }
    sealed_.erase(sealed_.begin());
  }
  set_wal_gauges_locked();
}

std::uint64_t DurableStore::wal_bytes_locked() const {
  std::uint64_t bytes = active_.bytes;
  for (const SegmentInfo& seg : sealed_) bytes += seg.bytes;
  return bytes;
}

void DurableStore::set_wal_gauges_locked() {
  wal_segments_->set(static_cast<double>(sealed_.size() + 1));
  wal_bytes_->set(static_cast<double>(wal_bytes_locked()));
}

std::uint64_t DurableStore::wal_bytes_since_checkpoint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wal_bytes_since_checkpoint_;
}

StoreStats DurableStore::stats() const {
  StoreStats stats;
  stats.dir = config_.dir;
  stats.fsync_policy = std::string(to_string(config_.fsync));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.wal_segments = sealed_.size() + 1;
    stats.wal_bytes = wal_bytes_locked();
    stats.wal_bytes_since_checkpoint = wal_bytes_since_checkpoint_;
    stats.last_record_seq = next_record_seq_ - 1;
    stats.last_checkpoint_seq = last_checkpoint_seq_;
    stats.last_checkpoint_epoch = last_checkpoint_epoch_;
  }
  stats.append_records = append_records_->value();
  stats.append_bytes = append_bytes_->value();
  stats.append_failures = append_failures_->value();
  stats.fsyncs = fsyncs_->value();
  stats.checkpoints = checkpoints_total_->value();
  stats.recovery_replayed_records = recovery_replayed_->value();
  stats.recovery_truncated_bytes = recovery_truncated_->value();
  return stats;
}

}  // namespace crowdweb::store
