// The binary ingest frame: a compact length-prefixed, checksummed,
// versioned wire format for batched check-ins.
//
// One frame is a 24-byte little-endian header followed by the payload:
//
//   offset  size  field
//   0       4     magic 0x31425743 ("CWB1" as bytes on the wire)
//   4       1     version (currently 1)
//   5       1     type (1 = data, 2 = ack)
//   6       2     flags (reserved; must be 0)
//   8       8     seq (producer-chosen; the ack echoes it)
//   16      4     payload byte count
//   20      4     CRC-32 over header bytes [0, 20) ++ payload
//   24      n     payload
//
// The checksum covers the header (excluding itself), so a single bit
// flip anywhere in the frame — magic, seq, length, or payload — is
// refused; a truncated buffer reports kNeedMore, never a partial frame.
// Data payload: u32 event count, then per event u32 user, u16 category,
// f64 lat, f64 lon, i64 timestamp (30 bytes). Ack payload: u32
// accepted, u32 rejected, u32 spooled (reserved, always 0), u32
// invalid.
//
// CRC-32 and byte order are shared with the durable store
// (store/crc32.hpp, store/format.hpp), so external tooling verifies
// frames the same way wal_inspect verifies WAL records.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/event.hpp"

namespace crowdweb::transport {

inline constexpr std::uint32_t kFrameMagic = 0x31425743u;  // "CWB1"
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;
inline constexpr std::size_t kFrameEventBytes = 30;
/// Decoders refuse frames whose payload claims more than this, so a
/// corrupt length field cannot make a listener buffer gigabytes.
inline constexpr std::size_t kMaxFramePayloadBytes = 4u * 1024 * 1024;

enum class FrameType : std::uint8_t { kData = 1, kAck = 2 };

/// The receiver's answer to one data frame (echoing its seq).
struct FrameAck {
  std::uint32_t accepted = 0;
  std::uint32_t rejected = 0;  ///< queue full; the producer retries them
  std::uint32_t spooled = 0;   ///< reserved wire field, always 0
  std::uint32_t invalid = 0;   ///< refused before submission
  friend bool operator==(const FrameAck&, const FrameAck&) = default;
};

struct Frame {
  FrameType type = FrameType::kData;
  std::uint64_t seq = 0;
  std::vector<ingest::IngestEvent> events;  ///< kData frames
  FrameAck ack;                             ///< kAck frames
};

enum class FrameState { kNeedMore, kComplete, kError };

struct FrameDecodeResult {
  FrameState state = FrameState::kNeedMore;
  Frame frame;               ///< valid when state == kComplete
  std::size_t consumed = 0;  ///< bytes consumed from the buffer when complete
  std::string error;         ///< human-readable when state == kError
};

[[nodiscard]] std::string encode_data_frame(std::uint64_t seq,
                                            std::span<const ingest::IngestEvent> events);
[[nodiscard]] std::string encode_ack_frame(std::uint64_t seq, const FrameAck& ack);

/// Attempts to decode one frame from the front of `buffer` (incremental:
/// feed it a growing buffer, consume `consumed` bytes on kComplete).
[[nodiscard]] FrameDecodeResult decode_frame(
    std::string_view buffer, std::size_t max_payload_bytes = kMaxFramePayloadBytes);

}  // namespace crowdweb::transport
