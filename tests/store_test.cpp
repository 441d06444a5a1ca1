// Durable store tests: CRC and frame formats, WAL scanning with
// adversarial damage (torn tails at every byte offset, mid-log bit
// flips), checkpoint round-trips and retention, DurableStore crash
// recovery, the worker's recover-then-replay path, and the kill-and-
// restart cycle end to end over a real socket, plus the wal_inspect
// tool run over worker-written stores.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/platform.hpp"
#include "data/dataset_io.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "ingest/worker.hpp"
#include "json/json.hpp"
#include "patterns/mobility.hpp"
#include "reference/annotate_oracle.hpp"
#include "store/checkpoint.hpp"
#include "store/crc32.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "store/wal.hpp"
#include "telemetry/metrics.hpp"
#include "util/log.hpp"

namespace crowdweb {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kError); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

/// A scratch store directory, wiped on construction and destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("crowdweb_store_test_" + tag)) {
    fs::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

ingest::IngestEvent make_event(data::UserId user, std::int64_t timestamp) {
  ingest::IngestEvent event;
  event.user = user;
  event.category = static_cast<data::CategoryId>(user % 7);
  event.position = {40.70 + static_cast<double>(user % 10) * 0.01, -74.00};
  event.timestamp = timestamp;
  return event;
}

store::WalRecord make_record(std::uint64_t seq, std::uint64_t epoch,
                             std::size_t event_count) {
  store::WalRecord record;
  record.seq = seq;
  record.epoch = epoch;
  for (std::size_t i = 0; i < event_count; ++i)
    record.events.push_back(
        make_event(static_cast<data::UserId>(seq * 100 + i),
                   static_cast<std::int64_t>(1'000 + seq * 10 + i)));
  return record;
}

store::StoreConfig store_config(const ScratchDir& dir,
                                store::FsyncPolicy fsync = store::FsyncPolicy::kNever) {
  store::StoreConfig config;
  config.dir = dir.str();
  config.fsync = fsync;
  return config;
}

/// Flips one bit of the file at `path`.
void flip_byte(const fs::path& path, std::size_t offset) {
  auto bytes = data::read_file(path.string());
  ASSERT_TRUE(bytes.is_ok());
  ASSERT_LT(offset, bytes->size());
  (*bytes)[offset] = static_cast<char>((*bytes)[offset] ^ 0x40);
  ASSERT_TRUE(data::write_file(path.string(), *bytes).is_ok());
}

/// The single WAL segment in `dir` (fails the test if there isn't one).
fs::path only_wal_segment(const fs::path& dir) {
  fs::path found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (store::parse_wal_segment_name(entry.path().filename().string())) {
      EXPECT_TRUE(found.empty()) << "more than one WAL segment in " << dir;
      found = entry.path();
    }
  }
  EXPECT_FALSE(found.empty()) << "no WAL segment in " << dir;
  return found;
}

std::size_t count_files(const fs::path& dir, bool (*is_match)(std::string_view)) {
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (is_match(entry.path().filename().string())) ++count;
  return count;
}

bool is_wal(std::string_view name) {
  return store::parse_wal_segment_name(name).has_value();
}
bool is_checkpoint(std::string_view name) {
  return store::parse_checkpoint_file_name(name).has_value();
}

// ------------------------------------------------------------------- CRC-32

TEST(Crc32Test, MatchesTheStandardCheckVector) {
  // The canonical IEEE 802.3 check value; zlib.crc32 agrees.
  EXPECT_EQ(store::crc32("123456789"), 0xCBF4'3926u);
  EXPECT_EQ(store::crc32(""), 0u);
  EXPECT_NE(store::crc32("a"), store::crc32("b"));
}

TEST(Crc32Test, SeedContinuesAnEarlierChecksum) {
  const std::string a = "torn tails and";
  const std::string b = " checksummed frames";
  EXPECT_EQ(store::crc32(b, store::crc32(a)), store::crc32(a + b));
}

// -------------------------------------------------------------- WAL framing

TEST(WalFormatTest, FileNamesRoundTripAndRejectForeignNames) {
  EXPECT_EQ(store::wal_segment_name(7), "wal-0000000007.log");
  EXPECT_EQ(store::checkpoint_file_name(3), "checkpoint-0000000003.ckpt");
  EXPECT_EQ(store::parse_wal_segment_name("wal-0000000007.log"), 7u);
  EXPECT_EQ(store::parse_checkpoint_file_name("checkpoint-0000000003.ckpt"), 3u);
  EXPECT_FALSE(store::parse_wal_segment_name("wal-7.log").has_value());
  EXPECT_FALSE(store::parse_wal_segment_name("checkpoint-0000000003.ckpt").has_value());
  EXPECT_FALSE(store::parse_wal_segment_name("wal-00000000xx.log").has_value());
  EXPECT_FALSE(store::parse_checkpoint_file_name("venues.csv").has_value());
}

TEST(WalFormatTest, RecordsRoundTripThroughASegmentScan) {
  const store::WalRecord r1 = make_record(1, 1, 3);
  const store::WalRecord r2 = make_record(2, 1, 1);
  const store::WalRecord r3 = make_record(3, 2, 5);
  const std::string bytes = store::encode_segment_header(9) +
                            store::encode_wal_record(r1) + store::encode_wal_record(r2) +
                            store::encode_wal_record(r3);
  const auto scan = store::scan_wal_segment(bytes, "wal-0000000009.log", 9, false);
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
  EXPECT_EQ(scan->segment_seq, 9u);
  EXPECT_EQ(scan->valid_bytes, bytes.size());
  EXPECT_EQ(scan->torn_bytes, 0u);
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0], r1);
  EXPECT_EQ(scan->records[1], r2);
  EXPECT_EQ(scan->records[2], r3);
}

TEST(WalFormatTest, HeaderMismatchesAreRejected) {
  std::string bytes = store::encode_segment_header(4);
  // Sequence in the header disagrees with the file name's.
  EXPECT_FALSE(store::scan_wal_segment(bytes, "f", 5, true).is_ok());
  // Too short to even hold a header.
  EXPECT_FALSE(store::scan_wal_segment("CWAL", "f", 4, true).is_ok());
  // Wrong magic.
  bytes[0] = 'X';
  EXPECT_FALSE(store::scan_wal_segment(bytes, "f", 4, true).is_ok());
}

TEST(WalScanTest, TruncationAtEveryByteOffsetIsATornTail) {
  // A segment with two records, cut after every possible byte. Whatever
  // the cut leaves behind must scan as: the records wholly before the
  // cut, plus a torn tail covering the rest — never an error, never a
  // partial record.
  const store::WalRecord r1 = make_record(1, 1, 2);
  const store::WalRecord r2 = make_record(2, 1, 3);
  const std::string f1 = store::encode_wal_record(r1);
  const std::string f2 = store::encode_wal_record(r2);
  const std::string full = store::encode_segment_header(1) + f1 + f2;
  const std::size_t b0 = store::kSegmentHeaderBytes;  // end of header
  const std::size_t b1 = b0 + f1.size();              // end of record 1
  for (std::size_t cut = b0; cut <= full.size(); ++cut) {
    const std::string_view prefix(full.data(), cut);
    const auto scan = store::scan_wal_segment(prefix, "f", 1, /*allow_torn_tail=*/true);
    ASSERT_TRUE(scan.is_ok()) << "cut at " << cut << ": " << scan.status().to_string();
    const std::size_t complete = cut == full.size() ? 2 : (cut >= b1 ? 1 : 0);
    EXPECT_EQ(scan->records.size(), complete) << "cut at " << cut;
    const std::size_t valid = complete == 2 ? full.size() : (complete == 1 ? b1 : b0);
    EXPECT_EQ(scan->valid_bytes, valid) << "cut at " << cut;
    EXPECT_EQ(scan->torn_bytes, cut - valid) << "cut at " << cut;
    // The same cut in a non-final segment is unrecoverable corruption.
    if (cut != b0 && cut != b1 && cut != full.size()) {
      const auto strict = store::scan_wal_segment(prefix, "f", 1, false);
      EXPECT_FALSE(strict.is_ok()) << "cut at " << cut;
    }
  }
}

TEST(WalScanTest, BitFlipWithRecordsFollowingIsRefused) {
  // Damage to record 1's crc or payload cannot be a torn tail — record 2
  // follows it — so the scan must refuse rather than drop the suffix.
  const store::WalRecord r1 = make_record(1, 1, 2);
  const store::WalRecord r2 = make_record(2, 1, 1);
  const std::string f1 = store::encode_wal_record(r1);
  const std::string full = store::encode_segment_header(1) + f1 +
                           store::encode_wal_record(r2);
  const std::size_t crc_start = store::kSegmentHeaderBytes + 4;  // skip the length field
  const std::size_t payload_end = store::kSegmentHeaderBytes + f1.size();
  for (std::size_t offset = crc_start; offset < payload_end; ++offset) {
    std::string damaged = full;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x01);
    const auto scan = store::scan_wal_segment(damaged, "f", 1, /*allow_torn_tail=*/true);
    EXPECT_FALSE(scan.is_ok()) << "flip at " << offset;
    EXPECT_NE(scan.status().message().find("wal_inspect"), std::string::npos);
  }
}

TEST(WalScanTest, BitFlipInTheFinalRecordIsATornTail) {
  // The same flip in the *final* record reaches EOF: indistinguishable
  // from a crash mid-write, so it truncates instead of refusing.
  const store::WalRecord r1 = make_record(1, 1, 2);
  const store::WalRecord r2 = make_record(2, 1, 1);
  const std::string f2 = store::encode_wal_record(r2);
  const std::string full = store::encode_segment_header(1) +
                           store::encode_wal_record(r1) + f2;
  std::string damaged = full;
  damaged[full.size() - 3] = static_cast<char>(damaged[full.size() - 3] ^ 0x01);
  const auto scan = store::scan_wal_segment(damaged, "f", 1, /*allow_torn_tail=*/true);
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0], r1);
  EXPECT_EQ(scan->torn_bytes, f2.size());
  EXPECT_FALSE(store::scan_wal_segment(damaged, "f", 1, false).is_ok());
}

// -------------------------------------------------------------- Checkpoints

store::Checkpoint sample_checkpoint() {
  store::Checkpoint checkpoint;
  checkpoint.seq = 3;
  checkpoint.epoch = 17;
  checkpoint.last_record_seq = 42;
  checkpoint.next_guest_id = 3'000'000'002u;
  checkpoint.base_checkin_count = 2;
  checkpoint.names = {"Cafe Grumpy", "live: Eatery @40.74,-73.99"};
  checkpoint.venues.push_back({0, 0, 4, {40.75, -73.98}});
  checkpoint.venues.push_back({1, 1, 2, {40.74, -73.99}});
  checkpoint.checkins.push_back({7, 0, 4, {40.75, -73.98}, 1'000});
  checkpoint.checkins.push_back({8, 1, 2, {40.74, -73.99}, 2'000});
  checkpoint.checkins.push_back({9, 1, 2, {40.74, -73.99}, 3'000});
  checkpoint.touched_users = {8, 9};
  return checkpoint;
}

TEST(CheckpointTest, EncodeDecodeRoundTripPreservesEveryField) {
  const store::Checkpoint original = sample_checkpoint();
  const std::string bytes = store::encode_checkpoint(original);
  const auto decoded = store::decode_checkpoint(bytes, "f");
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded->seq, original.seq);
  EXPECT_EQ(decoded->epoch, original.epoch);
  EXPECT_EQ(decoded->last_record_seq, original.last_record_seq);
  EXPECT_EQ(decoded->next_guest_id, original.next_guest_id);
  EXPECT_EQ(decoded->base_checkin_count, original.base_checkin_count);
  EXPECT_EQ(decoded->names, original.names);
  EXPECT_EQ(decoded->touched_users, original.touched_users);
  // Byte-identical re-encode proves venue/check-in order and values
  // survived exactly — the property venue-id re-derivation depends on.
  EXPECT_EQ(store::encode_checkpoint(*decoded), bytes);
}

TEST(CheckpointTest, EveryByteFlipIsDetected) {
  const std::string bytes = store::encode_checkpoint(sample_checkpoint());
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string damaged = bytes;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x10);
    EXPECT_FALSE(store::decode_checkpoint(damaged, "f").is_ok()) << "flip at " << offset;
  }
}

TEST(CheckpointTest, TruncationAndTrailingGarbageAreDetected) {
  const std::string bytes = store::encode_checkpoint(sample_checkpoint());
  EXPECT_FALSE(store::decode_checkpoint(bytes.substr(0, bytes.size() - 1), "f").is_ok());
  EXPECT_FALSE(store::decode_checkpoint(bytes.substr(0, 10), "f").is_ok());
  EXPECT_FALSE(store::decode_checkpoint("", "f").is_ok());
  EXPECT_FALSE(store::decode_checkpoint(bytes + "x", "f").is_ok());
}

// ---------------------------------------------------- data::write_file

TEST(CheckpointTest, ImplausibleCountsAreRefusedWithoutAllocating) {
  // Each count field in turn claims far more rows than the image holds.
  // The image is re-signed, so the checksum passes and only the count
  // plausibility check stands between the decoder and a multi-gigabyte
  // resize.
  const store::Checkpoint sample = sample_checkpoint();
  const std::string bytes = store::encode_checkpoint(sample);
  const std::size_t name_offset = 44;  // after the fixed header fields
  std::size_t venue_offset = name_offset + 4;
  for (const std::string& name : sample.names) venue_offset += 4 + name.size();
  const std::size_t checkin_offset = venue_offset + 4 + 26 * sample.venues.size();
  const std::size_t user_offset = checkin_offset + 8 + 34 * sample.checkins.size();

  const auto resigned = [&bytes](std::size_t offset, std::size_t width) {
    std::string image = bytes;
    for (std::size_t i = 0; i < width; ++i) image[offset + i] = '\xFF';
    std::string payload = image.substr(0, image.size() - 4);
    store::put_u32(payload, store::crc32(payload));
    return payload;
  };
  const struct {
    const char* field;
    std::size_t offset;
    std::size_t width;
  } counts[] = {{"names", name_offset, 4},
                {"venues", venue_offset, 4},
                {"check-ins", checkin_offset, 8},
                {"touched users", user_offset, 4}};
  for (const auto& count : counts) {
    const auto decoded = store::decode_checkpoint(resigned(count.offset, count.width), "f");
    ASSERT_FALSE(decoded.is_ok()) << count.field;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError) << count.field;
  }
}

TEST(CheckpointTest, BaseCountAboveTheCheckinRowsIsRefused) {
  // live_checkins is the check-in rows minus the base count: an image
  // claiming more base rows than it holds would publish a wrapped count.
  store::Checkpoint sample = sample_checkpoint();
  sample.base_checkin_count = sample.checkins.size();
  EXPECT_TRUE(store::decode_checkpoint(store::encode_checkpoint(sample), "f").is_ok());
  sample.base_checkin_count = sample.checkins.size() + 5;
  const auto decoded = store::decode_checkpoint(store::encode_checkpoint(sample), "f");
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("base check-ins"), std::string::npos)
      << decoded.status().message();
}

TEST(AtomicWriteFileTest, ReplacesContentWithoutLeavingTempFiles) {
  ScratchDir dir("write_file");
  fs::create_directories(dir.path());
  const std::string target = (dir.path() / "out.bin").string();
  ASSERT_TRUE(data::write_file(target, "first").is_ok());
  ASSERT_TRUE(data::write_file(target, "second, longer content").is_ok());
  const auto read_back = data::read_file(target);
  ASSERT_TRUE(read_back.is_ok());
  EXPECT_EQ(*read_back, "second, longer content");
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // no .tmp.* siblings survive
}

TEST(AtomicWriteFileTest, FailureLeavesTheOldContentIntact) {
  ScratchDir dir("write_file_fail");
  fs::create_directories(dir.path());
  const std::string target = (dir.path() / "out.bin").string();
  ASSERT_TRUE(data::write_file(target, "precious").is_ok());
  // Writing *into* the missing subdirectory fails before touching target.
  EXPECT_FALSE(data::write_file((dir.path() / "no_such_dir" / "x").string(), "y").is_ok());
  const auto read_back = data::read_file(target);
  ASSERT_TRUE(read_back.is_ok());
  EXPECT_EQ(*read_back, "precious");
}

// ------------------------------------------------------------- DurableStore

TEST(DurableStoreTest, FreshDirectoryStartsEmpty) {
  ScratchDir dir("fresh");
  auto opened = store::DurableStore::open(store_config(dir));
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  store::RecoveredState recovered = (*opened)->take_recovered();
  EXPECT_FALSE(recovered.checkpoint.has_value());
  EXPECT_TRUE(recovered.records.empty());
  EXPECT_EQ(recovered.max_epoch, 0u);
  const store::StoreStats stats = (*opened)->stats();
  EXPECT_EQ(stats.wal_segments, 1u);  // the fresh active segment
  EXPECT_EQ(stats.last_record_seq, 0u);
  EXPECT_EQ(store::parse_fsync_policy(stats.fsync_policy), store::FsyncPolicy::kNever);
}

TEST(DurableStoreTest, FsyncPolicyNamesRoundTripAndIntervalIsGone) {
  for (const store::FsyncPolicy policy :
       {store::FsyncPolicy::kEveryBatch, store::FsyncPolicy::kNever})
    EXPECT_EQ(store::parse_fsync_policy(store::to_string(policy)), policy);
  // One fsync per epoch is what every_batch costs under group commit, so
  // a policy that synced on a timer instead would only guarantee less.
  EXPECT_FALSE(store::parse_fsync_policy("interval").has_value());
  EXPECT_FALSE(store::parse_fsync_policy("").has_value());
}

TEST(DurableStoreTest, EmptyDirRefusedAndEmptyBatchIgnored) {
  EXPECT_FALSE(store::DurableStore::open(store::StoreConfig{}).is_ok());
  ScratchDir dir("empty_batch");
  auto opened = store::DurableStore::open(store_config(dir));
  ASSERT_TRUE(opened.is_ok());
  ASSERT_TRUE((*opened)->append(1, {}).is_ok());
  EXPECT_EQ((*opened)->stats().append_records, 0u);
}

TEST(DurableStoreTest, AppendCloseReopenReplaysEverything) {
  ScratchDir dir("roundtrip");
  std::vector<store::WalRecord> written;
  {
    auto opened = store::DurableStore::open(store_config(dir));
    ASSERT_TRUE(opened.is_ok());
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      store::WalRecord record = make_record(seq, seq / 2 + 1, 1 + seq % 3);
      ASSERT_TRUE((*opened)->append(record.epoch, record.events).is_ok());
      written.push_back(std::move(record));
    }
    ASSERT_TRUE((*opened)->sync().is_ok());
  }
  auto reopened = store::DurableStore::open(store_config(dir));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  store::RecoveredState recovered = (*reopened)->take_recovered();
  EXPECT_FALSE(recovered.checkpoint.has_value());
  EXPECT_EQ(recovered.records, written);
  EXPECT_EQ(recovered.max_epoch, written.back().epoch);
  EXPECT_EQ(recovered.truncated_bytes, 0u);
  // The next append continues the global sequence.
  ASSERT_TRUE((*reopened)->append(9, written[0].events).is_ok());
  EXPECT_EQ((*reopened)->stats().last_record_seq, 6u);
}

TEST(DurableStoreTest, SegmentRotationSpansRecovery) {
  ScratchDir dir("rotation");
  store::StoreConfig config = store_config(dir);
  config.segment_bytes = 512;  // a few records per segment
  {
    auto opened = store::DurableStore::open(config);
    ASSERT_TRUE(opened.is_ok());
    for (std::uint64_t seq = 1; seq <= 20; ++seq)
      ASSERT_TRUE((*opened)->append(1, make_record(seq, 1, 2).events).is_ok());
    ASSERT_TRUE((*opened)->sync().is_ok());
    EXPECT_GT((*opened)->stats().wal_segments, 2u);
  }
  EXPECT_GT(count_files(dir.path(), is_wal), 2u);
  auto reopened = store::DurableStore::open(config);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  const store::RecoveredState recovered = (*reopened)->take_recovered();
  ASSERT_EQ(recovered.records.size(), 20u);
  for (std::uint64_t seq = 1; seq <= 20; ++seq)
    EXPECT_EQ(recovered.records[seq - 1].seq, seq);
}

TEST(DurableStoreTest, TornFinalRecordIsTruncatedAtEveryByteOffset) {
  // Golden store: three records, cleanly synced. Then, for every byte
  // offset inside the final record's frame, a crash image truncated at
  // that offset must recover exactly two records, report the torn
  // bytes, and physically shrink the file back to the valid prefix.
  ScratchDir golden("torn_golden");
  const store::WalRecord r3 = make_record(3, 2, 2);
  {
    auto opened = store::DurableStore::open(store_config(golden));
    ASSERT_TRUE(opened.is_ok());
    ASSERT_TRUE((*opened)->append(1, make_record(1, 1, 2).events).is_ok());
    ASSERT_TRUE((*opened)->append(1, make_record(2, 1, 1).events).is_ok());
    ASSERT_TRUE((*opened)->append(2, r3.events).is_ok());
    ASSERT_TRUE((*opened)->sync().is_ok());
  }
  const fs::path segment = only_wal_segment(golden.path());
  const auto golden_bytes = data::read_file(segment.string());
  ASSERT_TRUE(golden_bytes.is_ok());
  const std::size_t frame3 = store::encode_wal_record(r3).size();
  const std::size_t valid_prefix = golden_bytes->size() - frame3;

  for (std::size_t cut = valid_prefix + 1; cut < golden_bytes->size(); ++cut) {
    ScratchDir crash("torn_crash");
    fs::copy(golden.path(), crash.path(), fs::copy_options::recursive);
    fs::resize_file(only_wal_segment(crash.path()), cut);

    auto recovered_store = store::DurableStore::open(store_config(crash));
    ASSERT_TRUE(recovered_store.is_ok())
        << "cut at " << cut << ": " << recovered_store.status().to_string();
    store::RecoveredState recovered = (*recovered_store)->take_recovered();
    ASSERT_EQ(recovered.records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(recovered.records[1].seq, 2u);
    EXPECT_EQ(recovered.truncated_bytes, cut - valid_prefix) << "cut at " << cut;
    EXPECT_EQ(fs::file_size(only_wal_segment(crash.path())), valid_prefix);
    // Appends continue as record 3 — the torn one never existed.
    ASSERT_TRUE((*recovered_store)->append(2, r3.events).is_ok());
    EXPECT_EQ((*recovered_store)->stats().last_record_seq, 3u);
  }
}

TEST(DurableStoreTest, BitFlipInTheMiddleOfTheLogRefusesToOpen) {
  ScratchDir dir("midflip");
  const store::WalRecord r2 = make_record(2, 1, 1);
  {
    auto opened = store::DurableStore::open(store_config(dir));
    ASSERT_TRUE(opened.is_ok());
    ASSERT_TRUE((*opened)->append(1, make_record(1, 1, 2).events).is_ok());
    ASSERT_TRUE((*opened)->append(1, r2.events).is_ok());
    ASSERT_TRUE((*opened)->sync().is_ok());
  }
  const fs::path segment = only_wal_segment(dir.path());
  // Record 1's payload sits right after the segment header and frame
  // header; record 2 follows, so the damage cannot be a torn tail.
  flip_byte(segment, store::kSegmentHeaderBytes + store::kRecordHeaderBytes + 4);
  const auto reopened = store::DurableStore::open(store_config(dir));
  ASSERT_FALSE(reopened.is_ok());
  EXPECT_NE(reopened.status().message().find(segment.filename().string()),
            std::string::npos);
  EXPECT_NE(reopened.status().message().find("wal_inspect"), std::string::npos);
}

TEST(DurableStoreTest, DamageInANonFinalSegmentRefusesToOpen) {
  ScratchDir dir("sealed_damage");
  store::StoreConfig config = store_config(dir);
  config.segment_bytes = 512;
  {
    auto opened = store::DurableStore::open(config);
    ASSERT_TRUE(opened.is_ok());
    for (std::uint64_t seq = 1; seq <= 20; ++seq)
      ASSERT_TRUE((*opened)->append(1, make_record(seq, 1, 2).events).is_ok());
    ASSERT_TRUE((*opened)->sync().is_ok());
  }
  // Cut the FIRST segment short — torn-tail shape, but not the final
  // segment, so recovery must refuse rather than truncate.
  const fs::path first = dir.path() / store::wal_segment_name(1);
  ASSERT_TRUE(fs::exists(first));
  fs::resize_file(first, fs::file_size(first) - 5);
  const auto reopened = store::DurableStore::open(config);
  ASSERT_FALSE(reopened.is_ok());
  EXPECT_NE(reopened.status().message().find("wal_inspect"), std::string::npos);
}

TEST(DurableStoreTest, CheckpointCoversTheLogAndPrunesSegments) {
  ScratchDir dir("checkpoint");
  store::StoreConfig config = store_config(dir);
  config.segment_bytes = 512;
  config.keep_checkpoints = 1;
  {
    auto opened = store::DurableStore::open(config);
    ASSERT_TRUE(opened.is_ok());
    for (std::uint64_t seq = 1; seq <= 10; ++seq)
      ASSERT_TRUE((*opened)->append(1, make_record(seq, 1, 2).events).is_ok());
    store::Checkpoint image = sample_checkpoint();
    image.epoch = 5;
    ASSERT_TRUE((*opened)->write_checkpoint(image).is_ok());
    EXPECT_EQ((*opened)->wal_bytes_since_checkpoint(), 0u);
    // Everything before the checkpoint is prunable; one checkpoint and
    // the fresh active segment remain.
    EXPECT_EQ(count_files(dir.path(), is_checkpoint), 1u);
    EXPECT_EQ(count_files(dir.path(), is_wal), 1u);
    ASSERT_TRUE((*opened)->append(6, make_record(11, 6, 3).events).is_ok());
    ASSERT_TRUE((*opened)->sync().is_ok());
    const store::StoreStats stats = (*opened)->stats();
    EXPECT_EQ(stats.checkpoints, 1u);
    EXPECT_EQ(stats.last_checkpoint_epoch, 5u);
  }
  auto reopened = store::DurableStore::open(config);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  store::RecoveredState recovered = (*reopened)->take_recovered();
  ASSERT_TRUE(recovered.checkpoint.has_value());
  EXPECT_EQ(recovered.checkpoint->epoch, 5u);
  EXPECT_EQ(recovered.checkpoint->last_record_seq, 10u);
  // Only the post-checkpoint record replays.
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(recovered.records[0].seq, 11u);
  EXPECT_EQ(recovered.max_epoch, 6u);
}

TEST(DurableStoreTest, WalGaugesFollowAppendsRotationPruneAndRecovery) {
  // crowdweb_store_wal_{segments,bytes} are set where the segment list
  // or a segment's size changes, under the store's shard label.
  ScratchDir dir("wal_gauges");
  telemetry::Registry registry;
  store::StoreConfig config = store_config(dir);
  config.segment_bytes = 512;
  config.keep_checkpoints = 1;
  config.metrics = &registry;
  config.shard = 3;
  const auto expect_gauges_match = [](telemetry::Registry& metrics,
                                      const store::DurableStore& store, const char* after) {
    SCOPED_TRACE(after);
    const auto gauge = [&](const char* name) {
      return metrics.gauge_family(name, "", {"shard"}).with_labels({"3"}).value();
    };
    const store::StoreStats stats = store.stats();
    EXPECT_EQ(gauge("crowdweb_store_wal_segments"), static_cast<double>(stats.wal_segments));
    EXPECT_EQ(gauge("crowdweb_store_wal_bytes"), static_cast<double>(stats.wal_bytes));
  };
  {
    auto opened = store::DurableStore::open(config);
    ASSERT_TRUE(opened.is_ok());
    store::DurableStore& store = **opened;
    expect_gauges_match(registry, store, "open");
    ASSERT_TRUE(store.append(1, make_record(1, 1, 2).events).is_ok());
    EXPECT_EQ(store.stats().wal_segments, 1u);
    expect_gauges_match(registry, store, "append");
    for (std::uint64_t seq = 2; seq <= 20; ++seq)
      ASSERT_TRUE(store.append(1, make_record(seq, 1, 2).events).is_ok());
    EXPECT_GT(store.stats().wal_segments, 2u);
    expect_gauges_match(registry, store, "rotation");
    ASSERT_TRUE(store.write_checkpoint(sample_checkpoint()).is_ok());
    EXPECT_EQ(store.stats().wal_segments, 1u);
    expect_gauges_match(registry, store, "checkpoint prune");
    ASSERT_TRUE(store.append(6, make_record(21, 6, 3).events).is_ok());
    expect_gauges_match(registry, store, "append after the checkpoint");
  }
  telemetry::Registry recovered_registry;
  config.metrics = &recovered_registry;
  auto reopened = store::DurableStore::open(config);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_GT((*reopened)->stats().wal_bytes, 0u);
  expect_gauges_match(recovered_registry, **reopened, "recovery");
}

TEST(DurableStoreTest, CorruptNewestCheckpointFallsBackToTheOlderOne) {
  ScratchDir dir("fallback");
  store::StoreConfig config = store_config(dir);
  config.keep_checkpoints = 2;
  {
    auto opened = store::DurableStore::open(config);
    ASSERT_TRUE(opened.is_ok());
    for (std::uint64_t seq = 1; seq <= 3; ++seq)
      ASSERT_TRUE((*opened)->append(1, make_record(seq, 1, 2).events).is_ok());
    store::Checkpoint first = sample_checkpoint();
    first.epoch = 3;
    ASSERT_TRUE((*opened)->write_checkpoint(first).is_ok());
    for (std::uint64_t seq = 4; seq <= 5; ++seq)
      ASSERT_TRUE((*opened)->append(4, make_record(seq, 4, 1).events).is_ok());
    store::Checkpoint second = sample_checkpoint();
    second.epoch = 9;
    ASSERT_TRUE((*opened)->write_checkpoint(second).is_ok());
    ASSERT_TRUE((*opened)->append(10, make_record(6, 10, 1).events).is_ok());
    ASSERT_TRUE((*opened)->sync().is_ok());
  }
  flip_byte(dir.path() / store::checkpoint_file_name(2), 40);
  auto reopened = store::DurableStore::open(config);
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  store::RecoveredState recovered = (*reopened)->take_recovered();
  ASSERT_TRUE(recovered.checkpoint.has_value());
  EXPECT_EQ(recovered.checkpoint->epoch, 3u);   // the older, intact image
  EXPECT_EQ(recovered.checkpoint->last_record_seq, 3u);
  // Fallback retention kept the segments past the older checkpoint.
  ASSERT_EQ(recovered.records.size(), 3u);
  EXPECT_EQ(recovered.records[0].seq, 4u);
  EXPECT_EQ(recovered.records[2].seq, 6u);
}

TEST(DurableStoreTest, AllCheckpointsCorruptRefusesToOpen) {
  ScratchDir dir("all_corrupt");
  {
    auto opened = store::DurableStore::open(store_config(dir));
    ASSERT_TRUE(opened.is_ok());
    ASSERT_TRUE((*opened)->append(1, make_record(1, 1, 2).events).is_ok());
    ASSERT_TRUE((*opened)->write_checkpoint(sample_checkpoint()).is_ok());
  }
  flip_byte(dir.path() / store::checkpoint_file_name(1), 20);
  const auto reopened = store::DurableStore::open(store_config(dir));
  ASSERT_FALSE(reopened.is_ok());
  EXPECT_NE(reopened.status().message().find("none decodes cleanly"), std::string::npos);
}

TEST(DurableStoreTest, CheckpointNewerThanTheWalIsHonored) {
  // A checkpoint whose coverage outruns every surviving WAL record (the
  // segments were pruned, or the directory was restored from a backup
  // of checkpoints only): recovery adopts it and replays nothing.
  ScratchDir dir("ckpt_newer");
  fs::create_directories(dir.path());
  store::Checkpoint image = sample_checkpoint();
  image.seq = 4;
  image.epoch = 12;
  image.last_record_seq = 42;
  ASSERT_TRUE(data::write_file(
                  (dir.path() / store::checkpoint_file_name(4)).string(),
                  store::encode_checkpoint(image))
                  .is_ok());
  auto opened = store::DurableStore::open(store_config(dir));
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  store::RecoveredState recovered = (*opened)->take_recovered();
  ASSERT_TRUE(recovered.checkpoint.has_value());
  EXPECT_EQ(recovered.checkpoint->epoch, 12u);
  EXPECT_TRUE(recovered.records.empty());
  EXPECT_EQ(recovered.max_epoch, 12u);
  // New appends continue past the checkpoint's coverage.
  ASSERT_TRUE((*opened)->append(13, make_record(1, 13, 1).events).is_ok());
  EXPECT_EQ((*opened)->stats().last_record_seq, 43u);
}

// -------------------------------------------------------- Worker integration

/// One platform for every worker test — phases 1-3 run once per binary.
const core::Platform& test_platform() {
  static const core::Platform* platform = [] {
    core::PlatformConfig config;
    config.small_corpus = true;
    config.min_active_days = 20;
    auto result = core::Platform::create(config);
    if (!result.is_ok()) std::abort();
    return new core::Platform(std::move(result).value());
  }();
  return *platform;
}

/// The live corpus as bytes: venue and check-in CSVs concatenated.
std::string corpus_image(const ingest::SnapshotPtr& snapshot) {
  return data::venues_to_csv(snapshot->dataset, test_platform().taxonomy()) +
         data::checkins_to_csv(snapshot->dataset, test_platform().taxonomy());
}

ingest::IngestWorkerConfig worker_config(const std::string& store_dir) {
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  config.store.dir = store_dir;
  config.store.fsync = store::FsyncPolicy::kEveryBatch;
  return config;
}

/// Valid live traffic: events the platform's taxonomy accepts.
std::vector<ingest::IngestEvent> live_traffic(std::size_t count) {
  std::vector<ingest::IngestEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    events.push_back(make_event(static_cast<data::UserId>(5'000 + i % 11),
                                static_cast<std::int64_t>(1'334'000'000 + i * 60)));
  return events;
}

/// Submits `events` and waits until all of them are merged and published.
void feed_and_settle(ingest::IngestWorker& worker, std::uint64_t expected_live) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    const ingest::SnapshotPtr snapshot = worker.hub().current();
    if (snapshot != nullptr && snapshot->live_checkins >= expected_live) return;
    std::this_thread::sleep_for(10ms);
  }
  FAIL() << "live corpus never reached " << expected_live << " check-ins";
}

TEST(StoreWorkerTest, CrashImageRecoversAByteIdenticalCorpus) {
  // Worker A ingests live traffic with fsync=every_batch. While it is
  // still running we copy the store directory — a crash image that never
  // saw a clean shutdown — and boot worker B from the copy. B's first
  // published corpus must be byte-identical to A's.
  ScratchDir dir("crash_image");
  ScratchDir image("crash_image_copy");
  auto worker_a = core::make_ingest_worker(test_platform(), worker_config(dir.str()));
  ASSERT_TRUE(worker_a->start().is_ok());
  const auto events = live_traffic(40);
  EXPECT_EQ(worker_a->submit(events).accepted, events.size());
  feed_and_settle(*worker_a, events.size());

  // every_batch journaled each merged batch before publication, so the
  // copy holds every event the snapshot shows.
  fs::copy(dir.path(), image.path(), fs::copy_options::recursive);
  const ingest::SnapshotPtr before = worker_a->hub().current();
  const std::uint64_t epoch_before = before->epoch;
  worker_a->stop();

  auto worker_b = core::make_ingest_worker(test_platform(), worker_config(image.str()));
  ASSERT_TRUE(worker_b->start().is_ok());
  const ingest::SnapshotPtr after = worker_b->hub().current();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->live_checkins, events.size());
  EXPECT_EQ(corpus_image(after), corpus_image(before));
  EXPECT_GE(after->epoch, epoch_before);  // never goes backwards across a restart

  const store::StoreStats stats = worker_b->store()->stats();
  EXPECT_EQ(stats.recovery_truncated_bytes, 0u);
  EXPECT_GT(stats.recovery_replayed_records, 0u);
  worker_b->stop();
}

TEST(StoreWorkerTest, CheckpointNowShrinksRecoveryToTheTail) {
  ScratchDir dir("worker_ckpt");
  auto worker = core::make_ingest_worker(test_platform(), worker_config(dir.str()));
  ASSERT_TRUE(worker->start().is_ok());
  const auto events = live_traffic(20);
  EXPECT_EQ(worker->submit(events).accepted, events.size());
  feed_and_settle(*worker, events.size());
  ASSERT_TRUE(worker->checkpoint_now(10s).is_ok());
  const store::StoreStats stats = worker->store()->stats();
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.wal_bytes_since_checkpoint, 0u);
  const std::string before = corpus_image(worker->hub().current());
  worker->stop();

  auto restarted = core::make_ingest_worker(test_platform(), worker_config(dir.str()));
  ASSERT_TRUE(restarted->start().is_ok());
  EXPECT_EQ(corpus_image(restarted->hub().current()), before);
  // Everything came from the checkpoint; nothing was left to replay.
  EXPECT_EQ(restarted->store()->stats().recovery_replayed_records, 0u);
  restarted->stop();
}

/// Waits until the worker has merged `count` events (accepted, not
/// necessarily published).
void wait_until_accepted(const ingest::IngestWorker& worker, std::uint64_t count) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (worker.stats().accepted < count) {
    if (std::chrono::steady_clock::now() >= deadline) {
      FAIL() << "worker never accepted " << count << " events";
      return;
    }
    std::this_thread::sleep_for(5ms);
  }
}

TEST(StoreWorkerTest, GroupCommitWritesOneRecordPerEpochThatCarriedEvents) {
  // Group commit: each epoch's accepted events are one WAL record and,
  // under every_batch, one fsync — however many drains fed the epoch.
  ScratchDir dir("group_commit");
  std::vector<std::uint64_t> live_by_epoch;  // written by the publishing thread
  auto worker = core::make_ingest_worker(test_platform(), worker_config(dir.str()));
  worker->hub().on_publish([&live_by_epoch](const ingest::PlatformSnapshot& snapshot) {
    live_by_epoch.push_back(snapshot.live_checkins);
  });
  ASSERT_TRUE(worker->start().is_ok());
  const auto events = live_traffic(60);
  for (std::size_t i = 0; i < events.size(); i += 6) {
    // Several one-event drains per epoch, several epochs in total.
    for (std::size_t j = i; j < i + 6; ++j)
      EXPECT_EQ(worker->submit({&events[j], 1}).accepted, 1u);
    std::this_thread::sleep_for(15ms);
  }
  feed_and_settle(*worker, events.size());
  worker->stop();

  std::uint64_t carried = 0;
  for (std::size_t i = 1; i < live_by_epoch.size(); ++i)
    if (live_by_epoch[i] > live_by_epoch[i - 1]) ++carried;
  ASSERT_EQ(live_by_epoch.front(), 0u);  // epoch 1: the base corpus
  EXPECT_GE(carried, 2u);

  const store::StoreStats stats = worker->store()->stats();
  EXPECT_EQ(stats.checkpoints, 0u);
  EXPECT_EQ(stats.wal_segments, 1u);
  EXPECT_EQ(stats.append_records, carried);
  EXPECT_GE(stats.fsyncs, stats.append_records);
  EXPECT_LE(stats.fsyncs, stats.append_records + 1);  // + the fresh header's sync
}

TEST(StoreWorkerTest, EveryEpochIsOnTheWalAndSyncedBeforeItPublishes) {
  // The durability contract, seen from a reader: when an epoch becomes
  // visible, its record is already appended and, under every_batch,
  // fsynced. The hook runs on the publishing thread, right after the
  // snapshot swap.
  ScratchDir dir("publish_order");
  struct Seen {
    std::uint64_t carried = 0;  // epochs so far that carried events
    std::uint64_t records = 0;
    std::uint64_t fsyncs = 0;
  };
  std::vector<Seen> seen;  // written by the publishing thread
  std::uint64_t last_live = 0;
  auto worker = core::make_ingest_worker(test_platform(), worker_config(dir.str()));
  worker->hub().on_publish([&](const ingest::PlatformSnapshot& snapshot) {
    Seen now;
    now.carried = (seen.empty() ? 0 : seen.back().carried) +
                  (snapshot.live_checkins > last_live ? 1 : 0);
    last_live = snapshot.live_checkins;
    const store::StoreStats stats = worker->store()->stats();
    now.records = stats.append_records;
    now.fsyncs = stats.fsyncs;
    seen.push_back(now);
  });
  ASSERT_TRUE(worker->start().is_ok());
  const auto events = live_traffic(40);
  for (std::size_t i = 0; i < events.size(); i += 8) {
    EXPECT_EQ(worker->submit({&events[i], 8}).accepted, 8u);
    std::this_thread::sleep_for(30ms);
  }
  feed_and_settle(*worker, events.size());
  worker->stop();

  ASSERT_FALSE(seen.empty());
  EXPECT_GE(seen.back().carried, 2u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].records, seen[i].carried) << "epoch " << i + 1;
    EXPECT_GE(seen[i].fsyncs, seen[i].records) << "epoch " << i + 1;
  }
}

TEST(StoreWorkerTest, CheckpointBeforeTheEpochPublishesJournalsNothingTwice) {
  // The checkpoint image holds events merged since the last epoch. Their
  // record must reach the WAL *before* the image, or the epoch's later
  // record would journal them after it and recovery would replay them
  // on top of the image.
  ScratchDir dir("ckpt_mid_epoch");
  ScratchDir image("ckpt_mid_epoch_copy");
  ingest::IngestWorkerConfig config = worker_config(dir.str());
  config.rebuild_interval = 10s;
  auto worker_a = core::make_ingest_worker(test_platform(), config);
  ASSERT_TRUE(worker_a->start().is_ok());
  const auto events = live_traffic(30);
  EXPECT_EQ(worker_a->submit(events).accepted, events.size());
  wait_until_accepted(*worker_a, events.size());
  ASSERT_TRUE(worker_a->checkpoint_now(5s).is_ok());
  EXPECT_EQ(worker_a->hub().epoch(), 1u);  // the events' epoch is not published yet
  worker_a->stop();  // publishes them, then the shutdown flush
  const std::string before = corpus_image(worker_a->hub().current());
  EXPECT_EQ(worker_a->hub().current()->live_checkins, events.size());
  fs::copy(dir.path(), image.path(), fs::copy_options::recursive);

  auto worker_b = core::make_ingest_worker(test_platform(), worker_config(image.str()));
  ASSERT_TRUE(worker_b->start().is_ok());
  const ingest::SnapshotPtr after = worker_b->hub().current();
  EXPECT_EQ(after->live_checkins, events.size());
  EXPECT_EQ(corpus_image(after), before);
  EXPECT_EQ(worker_b->store()->stats().recovery_replayed_records, 0u);
  worker_b->stop();
}

TEST(StoreWorkerTest, StopJournalsAcceptedButUnpublishedEvents) {
  ScratchDir dir("stop_unpublished");
  ingest::IngestWorkerConfig config = worker_config(dir.str());
  config.rebuild_interval = 10min;  // only stop() publishes
  auto worker = core::make_ingest_worker(test_platform(), config);
  ASSERT_TRUE(worker->start().is_ok());
  const auto events = live_traffic(25);
  EXPECT_EQ(worker->submit(events).accepted, events.size());
  wait_until_accepted(*worker, events.size());
  EXPECT_EQ(worker->hub().epoch(), 1u);
  worker->stop();
  const std::string before = corpus_image(worker->hub().current());

  auto restarted = core::make_ingest_worker(test_platform(), worker_config(dir.str()));
  ASSERT_TRUE(restarted->start().is_ok());
  const ingest::SnapshotPtr after = restarted->hub().current();
  EXPECT_EQ(after->live_checkins, events.size());
  EXPECT_EQ(corpus_image(after), before);
  restarted->stop();
}

TEST(StoreWorkerTest, GuestIdsStayFreshAcrossARestartWithoutACheckpoint) {
  // Only a checkpoint records the guest allocator, and most restarts
  // recover from the WAL alone. Replay must still skip every guest id
  // it sees, or an anonymous submission after the restart is merged
  // into an earlier visitor's history.
  ScratchDir dir("guest_ids");
  auto first = core::make_ingest_worker(test_platform(), worker_config(dir.str()));
  ASSERT_TRUE(first->start().is_ok());
  const data::UserId guest = first->allocate_guest_id();
  const ingest::IngestEvent event = make_event(guest, 1'334'000'000);
  ASSERT_EQ(first->submit({&event, 1}).accepted, 1u);
  feed_and_settle(*first, 1);
  first->stop();
  ASSERT_EQ(first->store()->stats().checkpoints, 0u);

  auto restarted = core::make_ingest_worker(test_platform(), worker_config(dir.str()));
  ASSERT_TRUE(restarted->start().is_ok());
  const data::UserId fresh = restarted->allocate_guest_id();
  EXPECT_GT(fresh, guest);
  EXPECT_TRUE(restarted->hub().current()->dataset.checkins_for(fresh).empty());
  restarted->stop();
}

/// The check-ins of `dataset`, in its (user, timestamp) order.
std::vector<data::CheckIn> rows_of(const data::Dataset& dataset) {
  return {dataset.checkins().begin(), dataset.checkins().end()};
}

/// Traffic for the WAL tail after a checkpoint: check-ins at positions
/// no venue holds yet (so they register live venues), and one check-in
/// of a base user that ties the timestamp of that user's first base
/// check-in.
std::vector<ingest::IngestEvent> tail_traffic(const data::Dataset& seed) {
  std::vector<ingest::IngestEvent> events;
  for (std::size_t i = 0; i < 12; ++i) {
    ingest::IngestEvent event = make_event(static_cast<data::UserId>(5'000 + i % 5),
                                           static_cast<std::int64_t>(1'334'100'000 + i * 60));
    event.position = {40.60 + static_cast<double>(i) * 0.003, -73.90};
    events.push_back(event);
  }
  const data::UserId base_user = seed.users().front();
  const data::Dataset::UserColumns base_rows = seed.checkins_for(base_user);
  ingest::IngestEvent tie;
  tie.user = base_user;
  tie.category = base_rows.category(0);
  tie.position = {40.58, -73.95};
  tie.timestamp = base_rows.timestamp(0);
  events.push_back(tie);
  return events;
}

/// A running worker over `dir` that ingested `head`, wrote a checkpoint,
/// then ingested `tail` (published, so on the WAL, not in the image).
std::unique_ptr<ingest::IngestWorker> checkpoint_then_tail(
    const ScratchDir& dir, const std::vector<ingest::IngestEvent>& head,
    const std::vector<ingest::IngestEvent>& tail) {
  auto worker = core::make_ingest_worker(test_platform(), worker_config(dir.str()));
  EXPECT_TRUE(worker->start().is_ok());
  EXPECT_EQ(worker->submit(head).accepted, head.size());
  feed_and_settle(*worker, head.size());
  EXPECT_TRUE(worker->checkpoint_now(10s).is_ok());
  EXPECT_EQ(worker->submit(tail).accepted, tail.size());
  feed_and_settle(*worker, head.size() + tail.size());
  return worker;
}

TEST(StoreWorkerTest, CheckpointPlusWalTailRecoversTheSameCorpus) {
  ScratchDir dir("ckpt_tail");
  ScratchDir image("ckpt_tail_copy");
  ScratchDir legacy("ckpt_tail_legacy");
  const data::Dataset& seed = test_platform().experiment_dataset();
  const auto head = live_traffic(30);
  const auto tail = tail_traffic(seed);
  auto worker_a = checkpoint_then_tail(dir, head, tail);
  fs::copy(dir.path(), image.path(), fs::copy_options::recursive);  // a crash image
  const ingest::SnapshotPtr before = worker_a->hub().current();
  worker_a->stop();
  const data::Dataset& corpus = before->dataset;
  ASSERT_GE(corpus.venue_count(), seed.venue_count() + tail.size());
  ASSERT_EQ(before->live_checkins, head.size() + tail.size());

  auto worker_b = core::make_ingest_worker(test_platform(), worker_config(image.str()));
  ASSERT_TRUE(worker_b->start().is_ok());
  const ingest::SnapshotPtr after = worker_b->hub().current();
  EXPECT_GT(worker_b->store()->stats().recovery_replayed_records, 0u);
  EXPECT_EQ(after->live_checkins, before->live_checkins);
  EXPECT_EQ(corpus_image(after), corpus_image(before));
  ASSERT_EQ(after->dataset.venue_count(), corpus.venue_count());
  for (const ingest::IngestEvent& event : tail) {
    const auto rows = [&event](const data::Dataset& dataset) {
      std::vector<data::VenueId> venues;
      for (const data::CheckIn& row : dataset.checkins_for(event.user))
        if (row.timestamp == event.timestamp) venues.push_back(row.venue);
      return venues;
    };
    EXPECT_EQ(rows(after->dataset), rows(corpus)) << "user " << event.user;
  }
  worker_b->stop();

  // An image in the insertion order older writers used: the base rows,
  // then every live check-in in arrival order. It rebuilds the same
  // corpus, so stores written before the (user, timestamp) order stay
  // readable.
  store::Checkpoint image_rows;
  image_rows.base_checkin_count = seed.checkin_count();
  image_rows.next_guest_id = ingest::kFirstGuestId;
  const data::NamesPtr names = corpus.name_pool()->snapshot();
  for (const std::string_view name : names->names()) image_rows.names.emplace_back(name);
  image_rows.venues.assign(corpus.venues().begin(), corpus.venues().end());
  image_rows.checkins = rows_of(seed);
  for (const auto* batch : {&head, &tail}) {
    for (const ingest::IngestEvent& event : *batch) {
      const auto venue = std::find_if(
          corpus.venues().begin(), corpus.venues().end(), [&event](const data::Venue& v) {
            return v.category == event.category && v.position.lat == event.position.lat &&
                   v.position.lon == event.position.lon;
          });
      ASSERT_NE(venue, corpus.venues().end());
      image_rows.checkins.push_back(
          {event.user, venue->id, event.category, event.position, event.timestamp});
      image_rows.touched_users.push_back(event.user);
    }
  }
  std::sort(image_rows.touched_users.begin(), image_rows.touched_users.end());
  image_rows.touched_users.erase(
      std::unique(image_rows.touched_users.begin(), image_rows.touched_users.end()),
      image_rows.touched_users.end());
  ASSERT_NE(image_rows.checkins, rows_of(corpus));  // the orders really differ
  {
    auto opened = store::DurableStore::open(store_config(legacy));
    ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
    ASSERT_TRUE((*opened)->write_checkpoint(std::move(image_rows)).is_ok());
  }
  auto worker_c = core::make_ingest_worker(test_platform(), worker_config(legacy.str()));
  ASSERT_TRUE(worker_c->start().is_ok());
  EXPECT_EQ(worker_c->hub().current()->live_checkins, before->live_checkins);
  EXPECT_EQ(corpus_image(worker_c->hub().current()), corpus_image(before));
  worker_c->stop();
}

/// Starts a worker over a store holding only `image`; returns start()'s
/// status, with the worker checked to have published nothing on failure.
Status start_from_image(const std::string& tag, store::Checkpoint image) {
  ScratchDir dir(tag);
  {
    auto opened = store::DurableStore::open(store_config(dir));
    if (!opened.is_ok()) return opened.status();
    const Status written = (*opened)->write_checkpoint(std::move(image));
    if (!written.is_ok()) return written;
  }
  auto worker = core::make_ingest_worker(test_platform(), worker_config(dir.str()));
  const Status status = worker->start();
  if (!status.is_ok()) {
    EXPECT_FALSE(worker->running());
    EXPECT_EQ(worker->hub().current(), nullptr);
  }
  return status;
}

/// A worker's crowdweb_mining_users_total{path} counter on shard 0.
std::uint64_t mining_users(telemetry::Registry& registry, const std::string& path) {
  return registry.counter_family("crowdweb_mining_users_total", "", {"shard", "path"})
      .with_labels({"0", path})
      .value();
}

/// Feeds `days` epochs, each a new day of two check-ins for six users,
/// waiting for every epoch to publish.
void feed_days(ingest::IngestWorker& worker, std::int64_t first_day, int days) {
  for (int d = 0; d < days; ++d) {
    std::vector<ingest::IngestEvent> events;
    for (data::UserId user = 5'000; user < 5'006; ++user) {
      for (std::int64_t k = 0; k < 2; ++k)
        events.push_back(make_event(user, (first_day + d) * 86'400 + (8 + 5 * k) * 3'600));
    }
    const std::uint64_t accepted = worker.stats().accepted + events.size();
    ASSERT_EQ(worker.submit(events).accepted, events.size());
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (worker.hub().current()->live_checkins < accepted) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "day " << d << " never published";
      std::this_thread::sleep_for(2ms);
    }
  }
}

/// Restarts a worker over `dir` on a fresh registry: its first epoch
/// must mine every touched user in full (no kept counts survive a
/// restart) and publish the from-scratch entries.
void expect_recovery_mines_in_full(const ScratchDir& dir, std::size_t touched) {
  telemetry::Registry registry;
  ingest::IngestWorkerConfig config = worker_config(dir.str());
  config.metrics = &registry;
  auto worker = core::make_ingest_worker(test_platform(), config);
  ASSERT_TRUE(worker->start().is_ok());
  EXPECT_EQ(mining_users(registry, "mined"), touched);
  EXPECT_EQ(mining_users(registry, "counted"), 0u);
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  patterns::MobilityOptions options;
  options.sequences = test_platform().config().sequences;
  options.mining = test_platform().config().mining;
  for (const patterns::UserMobility& entry : snapshot->mobility) {
    EXPECT_EQ(patterns::entry_difference(
                  entry, patterns::mine_user_mobility(snapshot->dataset, entry.user,
                                                      test_platform().taxonomy(), options)),
              "")
        << "user " << entry.user;
  }
  worker->stop();
}

TEST(StoreWorkerTest, RecoveryFullMinesEveryTouchedUserInItsFirstEpoch) {
  // Worker A counts most of its re-mines. A restart from its checkpoint
  // alone (adopt) and from the checkpoint plus its WAL tail must both
  // mine every touched user in full in the first epoch.
  ScratchDir dir("recovery_mines");
  ScratchDir adopt_only("recovery_mines_checkpoint");
  telemetry::Registry registry;
  ingest::IngestWorkerConfig config = worker_config(dir.str());
  config.metrics = &registry;
  auto worker = core::make_ingest_worker(test_platform(), config);
  ASSERT_TRUE(worker->start().is_ok());
  constexpr std::int64_t kFirstDay = 1'334'000'000 / 86'400;
  feed_days(*worker, kFirstDay, 12);
  ASSERT_TRUE(worker->checkpoint_now(10s).is_ok());
  fs::copy(dir.path(), adopt_only.path(), fs::copy_options::recursive);
  feed_days(*worker, kFirstDay + 12, 4);
  EXPECT_GT(mining_users(registry, "counted"), mining_users(registry, "mined"));
  worker->stop();

  expect_recovery_mines_in_full(adopt_only, 6);
  expect_recovery_mines_in_full(dir, 6);
}

TEST(StoreWorkerTest, CheckpointRowOutsideTheTaxonomyIsRefused) {
  // CRC-valid images holding rows the live path refuses. A venue and
  // check-in at a category the taxonomy lacks would index past its
  // tables in the crowd build; a check-in at timestamp 0 is an event
  // merge_event drops. Recovery refuses both and names the row.
  const data::CategoryId bad = 60'000;
  ASSERT_GE(bad, test_platform().taxonomy().size());
  store::Checkpoint outside;
  outside.names = {"nowhere"};
  outside.venues.push_back({0, 0, bad, {40.75, -73.98}});
  outside.checkins.push_back({7, 0, bad, {40.75, -73.98}, 1'334'000'000});
  outside.touched_users = {7};
  const Status refused = start_from_image("ckpt_bad_category", outside);
  EXPECT_EQ(refused.code(), StatusCode::kParseError) << refused.to_string();
  EXPECT_NE(refused.message().find("venue 0 has category 60000"), std::string::npos)
      << refused.to_string();

  store::Checkpoint undated = outside;
  undated.venues[0].category = 3;
  undated.checkins[0].category = 3;
  undated.checkins.push_back({7, 0, 3, {40.75, -73.98}, 0});
  const Status undated_status = start_from_image("ckpt_bad_timestamp", undated);
  EXPECT_EQ(undated_status.code(), StatusCode::kParseError) << undated_status.to_string();
  EXPECT_NE(undated_status.message().find("check-in row 1 "), std::string::npos)
      << undated_status.to_string();
}

TEST(StoreWorkerTest, CheckpointNowWithoutAStoreIsFailedPrecondition) {
  auto worker = core::make_ingest_worker(test_platform());
  ASSERT_TRUE(worker->start().is_ok());
  EXPECT_EQ(worker->store(), nullptr);
  EXPECT_EQ(worker->checkpoint_now(1s).code(), StatusCode::kFailedPrecondition);
  worker->stop();
  EXPECT_EQ(worker->checkpoint_now(1s).code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------- wal_inspect

/// Runs the built wal_inspect over `path`: its exit code and output.
std::pair<int, std::string> run_wal_inspect(const fs::path& path) {
  const std::string command =
      std::string(CROWDWEB_WAL_INSPECT) + " '" + path.string() + "' 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string output;
  char buffer[4096];
  while (const std::size_t n = std::fread(buffer, 1, sizeof buffer, pipe))
    output.append(buffer, n);
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

TEST(WalInspectTest, WorkerStoreIsCleanAndAFlippedCheckpointByteIsCorrupt) {
  ScratchDir dir("wal_inspect");
  ScratchDir damaged("wal_inspect_damaged");
  auto worker = checkpoint_then_tail(dir, live_traffic(20),
                                     tail_traffic(test_platform().experiment_dataset()));
  worker->stop();
  ASSERT_EQ(worker->store()->stats().checkpoints, 1u);

  const auto [clean_exit, clean_output] = run_wal_inspect(dir.path());
  EXPECT_EQ(clean_exit, 0) << clean_output;
  EXPECT_NE(clean_output.find(": checkpoint 1, "), std::string::npos) << clean_output;
  EXPECT_NE(clean_output.find("event(s)  crc ok"), std::string::npos) << clean_output;

  fs::copy(dir.path(), damaged.path(), fs::copy_options::recursive);
  fs::path checkpoint;
  for (const auto& entry : fs::directory_iterator(damaged.path()))
    if (is_checkpoint(entry.path().filename().string())) checkpoint = entry.path();
  ASSERT_FALSE(checkpoint.empty());
  flip_byte(checkpoint, 20);
  const auto [damaged_exit, damaged_output] = run_wal_inspect(damaged.path());
  EXPECT_EQ(damaged_exit, 2) << damaged_output;
  EXPECT_NE(damaged_output.find("CORRUPT"), std::string::npos) << damaged_output;
}

// ------------------------------------------------------------- HTTP routes

TEST(StoreApiTest, AdminRoutesAnswer404WithoutAStore) {
  const core::Platform& platform = test_platform();
  auto worker = core::make_ingest_worker(platform);
  ASSERT_TRUE(worker->start().is_ok());
  http::Server server(core::make_api_router(platform, {worker.get(), nullptr}));
  ASSERT_TRUE(server.start().is_ok());
  auto response = http::get("127.0.0.1", server.port(), "/api/store/stats");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 404);
  response = http::fetch("127.0.0.1", server.port(), "POST", "/api/admin/checkpoint", "");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 404);
  server.stop();
  worker->stop();
}

TEST(StoreApiTest, KillAndRestartServesTheSameCorpusOverHttp) {
  // The full operator story over a real socket: ingest via POST, take an
  // admin checkpoint, crash (copy the directory mid-flight and add a
  // torn half-written record), restart, and verify the recovered server
  // publishes a byte-identical corpus at a higher epoch.
  const core::Platform& platform = test_platform();
  ScratchDir dir("http_e2e");
  ScratchDir image("http_e2e_image");

  std::string corpus_before;
  std::int64_t epoch_before = 0;
  {
    auto worker = core::make_ingest_worker(platform, worker_config(dir.str()));
    ASSERT_TRUE(worker->start().is_ok());
    http::Server server(core::make_api_router(platform, {worker.get(), nullptr}));
    ASSERT_TRUE(server.start().is_ok());

    const std::string body =
        "user,category,lat,lon,timestamp\n"
        "3000,Eatery,40.75,-73.98,2012-04-10 12:00:00\n"
        "3001,Nightlife Spot,40.74,-73.99,2012-04-10 13:00:00\n"
        "3000,Eatery,40.75,-73.98,2012-04-10 19:00:00\n";
    const auto posted =
        http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", body);
    ASSERT_TRUE(posted.is_ok());
    ASSERT_EQ(posted->status, 200) << posted->body;
    feed_and_settle(*worker, 3);

    // The admin checkpoint lands synchronously...
    const auto checkpointed =
        http::fetch("127.0.0.1", server.port(), "POST", "/api/admin/checkpoint", "");
    ASSERT_TRUE(checkpointed.is_ok());
    ASSERT_EQ(checkpointed->status, 200) << checkpointed->body;
    auto payload = json::parse(checkpointed->body);
    ASSERT_TRUE(payload.is_ok());
    EXPECT_EQ(payload->find("checkpoint_seq")->as_int(), 1);

    // ...and the stats route reflects it.
    const auto stats = http::get("127.0.0.1", server.port(), "/api/store/stats");
    ASSERT_TRUE(stats.is_ok());
    ASSERT_EQ(stats->status, 200);
    payload = json::parse(stats->body);
    ASSERT_TRUE(payload.is_ok());
    EXPECT_EQ(payload->find("checkpoints")->find("written")->as_int(), 1);
    EXPECT_GE(payload->find("wal")->find("segments")->as_int(), 1);
    EXPECT_GT(payload->find("appends")->find("records")->as_int(), 0);

    // More traffic after the checkpoint, so recovery must replay a tail.
    const std::string more =
        "user,category,lat,lon,timestamp\n"
        "3002,Eatery,40.73,-73.97,2012-04-11 09:00:00\n";
    const auto second =
        http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", more);
    ASSERT_TRUE(second.is_ok());
    ASSERT_EQ(second->status, 200) << second->body;
    feed_and_settle(*worker, 4);

    const ingest::SnapshotPtr snapshot = worker->hub().current();
    corpus_before = corpus_image(snapshot);
    epoch_before = static_cast<std::int64_t>(snapshot->epoch);

    // Crash image: copied while the worker is live — it never sees the
    // clean shutdown below.
    fs::copy(dir.path(), image.path(), fs::copy_options::recursive);
    server.stop();
    worker->stop();
  }

  // Simulate the crash happening mid-append: a half-written record at
  // the tail of the newest segment (length field says 100 bytes, only 9
  // arrived). Recovery must truncate it and keep everything else.
  {
    fs::path newest;
    for (const auto& entry : fs::directory_iterator(image.path()))
      if (is_wal(entry.path().filename().string()) &&
          (newest.empty() || entry.path() > newest))
        newest = entry.path();
    ASSERT_FALSE(newest.empty());
    auto bytes = data::read_file(newest.string());
    ASSERT_TRUE(bytes.is_ok());
    const std::string torn{"\x64\x00\x00\x00\xde\xad\xbe\xef\x01", 9};
    ASSERT_TRUE(data::write_file(newest.string(), *bytes + torn).is_ok());
  }

  auto worker = core::make_ingest_worker(platform, worker_config(image.str()));
  ASSERT_TRUE(worker->start().is_ok());
  http::Server server(core::make_api_router(platform, {worker.get(), nullptr}));
  ASSERT_TRUE(server.start().is_ok());

  const ingest::SnapshotPtr recovered = worker->hub().current();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(corpus_image(recovered), corpus_before);
  EXPECT_EQ(recovered->live_checkins, 4u);

  const auto stats = http::get("127.0.0.1", server.port(), "/api/ingest/stats");
  ASSERT_TRUE(stats.is_ok());
  auto payload = json::parse(stats->body);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_GE(payload->find("epoch")->as_int(), epoch_before);

  const auto store_stats = http::get("127.0.0.1", server.port(), "/api/store/stats");
  ASSERT_TRUE(store_stats.is_ok());
  payload = json::parse(store_stats->body);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload->find("recovery")->find("truncated_bytes")->as_int(), 9);
  EXPECT_GT(payload->find("recovery")->find("replayed_records")->as_int(), 0);

  // The recovered server is fully live: new traffic still lands.
  const std::string body =
      "user,category,lat,lon,timestamp\n"
      "3003,Eatery,40.72,-73.96,2012-04-12 10:00:00\n";
  const auto posted = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", body);
  ASSERT_TRUE(posted.is_ok());
  EXPECT_EQ(posted->status, 200) << posted->body;
  feed_and_settle(*worker, 5);
  server.stop();
  worker->stop();
}

}  // namespace
}  // namespace crowdweb
