// Write-ahead-log on-disk format: segment files of framed, checksummed
// records.
//
// A segment file is
//
//   +----------------------------- header (16 bytes) ---+
//   | u32 magic "CWAL" | u32 version | u64 segment_seq  |
//   +----------------------------------------------------+
//   | u32 payload_len | u32 crc32(payload) | payload ... |   record 0
//   | u32 payload_len | u32 crc32(payload) | payload ... |   record 1
//   | ...                                                |
//
// and a record payload is
//
//   u64 record_seq | u64 epoch | u32 event_count |
//   event_count x { u32 user | u16 category | f64 lat | f64 lon | i64 ts }
//
// All integers little-endian (see format.hpp). The worker group-commits:
// one record holds the events of one epoch (plus, when a checkpoint
// cuts an epoch short, one record for the part merged before it).
// `record_seq` increases by one per record across the whole log
// (segments included), so a checkpoint can name the exact prefix it
// covers. `epoch` is the worker's last published epoch when the record
// was handed off, i.e. the record's events become visible in epoch + 1;
// recovery resumes the epoch counter past the largest value it sees,
// keeping the `crowdweb_ingest_epoch` gauge monotonic across restarts.
//
// Scanning distinguishes two failure shapes:
//   - a *torn tail* — the final record of the final segment is
//     incomplete or fails its checksum and nothing parseable follows
//     (the classic crash-mid-write shape). Recovery truncates it.
//   - *mid-log corruption* — a record fails its checksum but bytes
//     follow it, or a non-final segment ends mid-record. Recovery
//     refuses with an error naming the file and offset: silently
//     dropping the suffix would discard events of published epochs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/event.hpp"
#include "util/status.hpp"

namespace crowdweb::store {

inline constexpr std::uint32_t kWalMagic = 0x4C41'5743;         // "CWAL"
inline constexpr std::uint32_t kCheckpointMagic = 0x504B'4343;  // "CCKP"
inline constexpr std::uint32_t kFormatVersion = 1;
/// Checkpoint payload version. v2 replaced inline venue-name strings
/// with a names table + per-venue NameId (the interned representation);
/// v1 files are refused with a clear error — see checkpoint.hpp.
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::size_t kSegmentHeaderBytes = 16;
inline constexpr std::size_t kRecordHeaderBytes = 8;

/// One framed WAL record: the events the worker accepted for one epoch.
struct WalRecord {
  std::uint64_t seq = 0;    ///< global record ordinal (1-based, contiguous)
  std::uint64_t epoch = 0;  ///< worker epoch at append time
  std::vector<ingest::IngestEvent> events;

  friend bool operator==(const WalRecord&, const WalRecord&) = default;
};

/// "wal-0000000007.log" (zero-padded so lexical order == numeric order).
[[nodiscard]] std::string wal_segment_name(std::uint64_t segment_seq);
/// Inverse of wal_segment_name; nullopt for foreign file names.
[[nodiscard]] std::optional<std::uint64_t> parse_wal_segment_name(std::string_view name);

/// "checkpoint-0000000003.ckpt".
[[nodiscard]] std::string checkpoint_file_name(std::uint64_t checkpoint_seq);
[[nodiscard]] std::optional<std::uint64_t> parse_checkpoint_file_name(std::string_view name);

/// The 16-byte segment header.
[[nodiscard]] std::string encode_segment_header(std::uint64_t segment_seq);

/// One framed record: header (len + crc) and payload.
[[nodiscard]] std::string encode_wal_record(const WalRecord& record);

/// Appends one framed record for `events` to `out` without building a
/// WalRecord first — the store encodes each epoch's events straight
/// from the worker's buffer into a reused one.
void append_framed_record(std::string& out, std::uint64_t seq, std::uint64_t epoch,
                          std::span<const ingest::IngestEvent> events);

/// Parses a framed record's payload (the bytes the crc covers).
[[nodiscard]] Result<WalRecord> decode_wal_payload(std::string_view payload);

/// Outcome of scanning one segment file's bytes.
struct SegmentScan {
  std::uint64_t segment_seq = 0;
  std::vector<WalRecord> records;
  /// Prefix of the file that parsed cleanly; == file size when intact.
  std::size_t valid_bytes = 0;
  /// Bytes past valid_bytes dropped as a torn tail (0 = clean file).
  std::size_t torn_bytes = 0;
};

/// Scans one segment. `expected_seq` comes from the file name and must
/// match the header. `allow_torn_tail` is true only for the final
/// segment of the log; everywhere else any damage is an error.
[[nodiscard]] Result<SegmentScan> scan_wal_segment(std::string_view bytes,
                                                   const std::string& path,
                                                   std::uint64_t expected_seq,
                                                   bool allow_torn_tail);

}  // namespace crowdweb::store
