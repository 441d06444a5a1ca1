#include "store/wal.hpp"

#include <charconv>

#include "store/crc32.hpp"
#include "store/format.hpp"
#include "util/format.hpp"

namespace crowdweb::store {

namespace {

// Bytes one event occupies inside a record payload.
constexpr std::size_t kEventBytes = 4 + 2 + 8 + 8 + 8;

// Store-file ordinals are always exactly 10 digits — lexical file-name
// order must equal numeric order, so unpadded variants are foreign.
constexpr std::size_t kOrdinalDigits = 10;

std::optional<std::uint64_t> parse_numbered_name(std::string_view name,
                                                 std::string_view prefix,
                                                 std::string_view suffix) {
  if (name.size() != prefix.size() + kOrdinalDigits + suffix.size()) return std::nullopt;
  if (!name.starts_with(prefix) || !name.ends_with(suffix)) return std::nullopt;
  const std::string_view digits = name.substr(prefix.size(), kOrdinalDigits);
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) return std::nullopt;
  return value;
}

// Reads the u32 at `offset` (caller guarantees 4 bytes are available).
std::uint32_t peek_u32(std::string_view bytes, std::size_t offset) {
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i)
    value = (value << 8) | static_cast<unsigned char>(bytes[offset + static_cast<std::size_t>(i)]);
  return value;
}

}  // namespace

std::string wal_segment_name(std::uint64_t segment_seq) {
  return crowdweb::format("wal-{:010}.log", segment_seq);
}

std::optional<std::uint64_t> parse_wal_segment_name(std::string_view name) {
  return parse_numbered_name(name, "wal-", ".log");
}

std::string checkpoint_file_name(std::uint64_t checkpoint_seq) {
  return crowdweb::format("checkpoint-{:010}.ckpt", checkpoint_seq);
}

std::optional<std::uint64_t> parse_checkpoint_file_name(std::string_view name) {
  return parse_numbered_name(name, "checkpoint-", ".ckpt");
}

std::string encode_segment_header(std::uint64_t segment_seq) {
  std::string out;
  out.reserve(kSegmentHeaderBytes);
  put_u32(out, kWalMagic);
  put_u32(out, kFormatVersion);
  put_u64(out, segment_seq);
  return out;
}

std::string encode_wal_record(const WalRecord& record) {
  std::string framed;
  append_framed_record(framed, record.seq, record.epoch, record.events);
  return framed;
}

void append_framed_record(std::string& out, std::uint64_t seq, std::uint64_t epoch,
                          std::span<const ingest::IngestEvent> events) {
  const std::size_t payload_size = 8 + 8 + 4 + events.size() * kEventBytes;
  const std::size_t base = out.size();
  out.resize(base + kRecordHeaderBytes + payload_size);
  // Fields go straight into the sized buffer; the checksum runs over
  // the encoded payload in place, so nothing is copied twice.
  char* p = out.data() + base;
  p = raw_put_u32(p, static_cast<std::uint32_t>(payload_size));
  char* const crc_at = p;
  p = raw_put_u32(p, 0);  // patched below
  p = raw_put_u64(p, seq);
  p = raw_put_u64(p, epoch);
  p = raw_put_u32(p, static_cast<std::uint32_t>(events.size()));
  for (const ingest::IngestEvent& event : events) {
    p = raw_put_u32(p, event.user);
    p = raw_put_u16(p, event.category);
    p = raw_put_f64(p, event.position.lat);
    p = raw_put_f64(p, event.position.lon);
    p = raw_put_i64(p, event.timestamp);
  }
  const std::string_view payload(crc_at + 4, payload_size);
  raw_put_u32(crc_at, crc32(payload));
}

Result<WalRecord> decode_wal_payload(std::string_view payload) {
  ByteReader reader(payload);
  WalRecord record;
  std::uint32_t count = 0;
  if (!reader.read_u64(record.seq) || !reader.read_u64(record.epoch) ||
      !reader.read_u32(count)) {
    return parse_error("WAL record payload shorter than its fixed header");
  }
  if (reader.remaining() != static_cast<std::size_t>(count) * kEventBytes) {
    return parse_error(crowdweb::format(
        "WAL record {} declares {} events but carries {} payload bytes",
        record.seq, count, payload.size()));
  }
  record.events.resize(count);
  for (ingest::IngestEvent& event : record.events) {
    reader.read_u32(event.user);
    reader.read_u16(event.category);
    reader.read_f64(event.position.lat);
    reader.read_f64(event.position.lon);
    reader.read_i64(event.timestamp);
  }
  return record;
}

Result<SegmentScan> scan_wal_segment(std::string_view bytes, const std::string& path,
                                     std::uint64_t expected_seq, bool allow_torn_tail) {
  ByteReader header(bytes);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  SegmentScan scan;
  if (!header.read_u32(magic) || !header.read_u32(version) ||
      !header.read_u64(scan.segment_seq)) {
    return parse_error(
        crowdweb::format("{}: file too short for a WAL segment header "
                         "({} bytes, need {})",
                         path, bytes.size(), kSegmentHeaderBytes));
  }
  if (magic != kWalMagic)
    return parse_error(crowdweb::format("{}: not a WAL segment (bad magic)", path));
  if (version != kFormatVersion) {
    return parse_error(crowdweb::format(
        "{}: unsupported WAL format version {} (supported: {})", path, version,
        kFormatVersion));
  }
  if (scan.segment_seq != expected_seq) {
    return parse_error(crowdweb::format(
        "{}: header names segment {} but the file name says {}", path,
        scan.segment_seq, expected_seq));
  }

  std::size_t offset = kSegmentHeaderBytes;
  scan.valid_bytes = offset;
  while (offset < bytes.size()) {
    // A damaged record is a *torn tail* — truncatable — only if its frame
    // reaches the end of the file: that is what a crash mid-append leaves
    // behind. Damage followed by more bytes means the middle of the log
    // is corrupt, and truncating would also drop the intact suffix.
    std::string damage;
    bool reaches_eof = false;
    std::string_view payload;
    if (bytes.size() - offset < kRecordHeaderBytes) {
      damage = "incomplete record header";
      reaches_eof = true;
    } else {
      const std::uint32_t payload_len = peek_u32(bytes, offset);
      const std::uint32_t stored_crc = peek_u32(bytes, offset + 4);
      const std::size_t frame_end =
          offset + kRecordHeaderBytes + static_cast<std::size_t>(payload_len);
      if (frame_end > bytes.size()) {
        damage = "frame extends past end of file";
        reaches_eof = true;
      } else {
        payload = bytes.substr(offset + kRecordHeaderBytes, payload_len);
        if (crc32(payload) != stored_crc) {
          damage = "checksum mismatch";
          reaches_eof = frame_end == bytes.size();
        }
      }
    }

    if (!damage.empty()) {
      if (allow_torn_tail && reaches_eof) {
        scan.torn_bytes = bytes.size() - offset;
        return scan;
      }
      return io_error(crowdweb::format(
          "{}: corrupt WAL record at offset {} ({}); refusing to drop "
          "events of published epochs — inspect with tools/wal_inspect",
          path, offset, damage));
    }

    Result<WalRecord> record = decode_wal_payload(payload);
    if (!record) {
      // Checksum passed but the payload is malformed: not a torn write
      // but a writer bug or foreign data. Always refuse.
      return io_error(crowdweb::format("{}: record at offset {}: {}", path,
                                       offset, record.status().message()));
    }
    scan.records.push_back(std::move(*record));
    offset += kRecordHeaderBytes + payload.size();
    scan.valid_bytes = offset;
  }
  return scan;
}

}  // namespace crowdweb::store
