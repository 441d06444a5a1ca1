#include "store/checkpoint.hpp"

#include "store/crc32.hpp"
#include "store/format.hpp"
#include "store/wal.hpp"
#include "util/format.hpp"

namespace crowdweb::store {

namespace {

// Encoded row sizes (see encode_checkpoint). A count claiming more rows
// than the bytes left could hold is refused before anything is sized
// from it, so a corrupt image cannot drive an unbounded allocation.
constexpr std::size_t kMinNameBytes = 4;       // length prefix
constexpr std::size_t kVenueRowBytes = 26;     // id, name, category, lat, lon
constexpr std::size_t kCheckinRowBytes = 34;   // user, venue, category, lat, lon, time
constexpr std::size_t kUserRowBytes = 4;

}  // namespace

std::string encode_checkpoint(const Checkpoint& checkpoint) {
  std::string out;
  put_u32(out, kCheckpointMagic);
  put_u32(out, kCheckpointVersion);
  put_u64(out, checkpoint.seq);
  put_u64(out, checkpoint.epoch);
  put_u64(out, checkpoint.last_record_seq);
  put_u32(out, checkpoint.next_guest_id);
  put_u64(out, checkpoint.base_checkin_count);

  put_u32(out, static_cast<std::uint32_t>(checkpoint.names.size()));
  for (const std::string& name : checkpoint.names) put_bytes(out, name);

  put_u32(out, static_cast<std::uint32_t>(checkpoint.venues.size()));
  for (const data::Venue& venue : checkpoint.venues) {
    put_u32(out, venue.id);
    put_u32(out, venue.name);
    put_u16(out, venue.category);
    put_f64(out, venue.position.lat);
    put_f64(out, venue.position.lon);
  }

  put_u64(out, checkpoint.checkins.size());
  for (const data::CheckIn& checkin : checkpoint.checkins) {
    put_u32(out, checkin.user);
    put_u32(out, checkin.venue);
    put_u16(out, checkin.category);
    put_f64(out, checkin.position.lat);
    put_f64(out, checkin.position.lon);
    put_i64(out, checkin.timestamp);
  }

  put_u32(out, static_cast<std::uint32_t>(checkpoint.touched_users.size()));
  for (const data::UserId user : checkpoint.touched_users) put_u32(out, user);

  put_u32(out, crc32(out));
  return out;
}

Result<Checkpoint> decode_checkpoint(std::string_view bytes, const std::string& path) {
  if (bytes.size() < 4)
    return io_error(crowdweb::format("{}: checkpoint file too short", path));
  const std::string_view payload = bytes.substr(0, bytes.size() - 4);
  const std::uint32_t stored_crc = [&] {
    std::uint32_t value = 0;
    for (int i = 3; i >= 0; --i)
      value = (value << 8) |
              static_cast<unsigned char>(bytes[payload.size() + static_cast<std::size_t>(i)]);
    return value;
  }();
  if (crc32(payload) != stored_crc) {
    return io_error(crowdweb::format(
        "{}: checkpoint checksum mismatch (torn or corrupt write)", path));
  }

  ByteReader reader(payload);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  Checkpoint checkpoint;
  if (!reader.read_u32(magic) || magic != kCheckpointMagic)
    return parse_error(crowdweb::format("{}: not a checkpoint file (bad magic)", path));
  if (!reader.read_u32(version) || version != kCheckpointVersion) {
    return parse_error(crowdweb::format(
        "{}: unsupported checkpoint format version {} (supported: {}); v1 "
        "checkpoints predate interned venue names — delete the store "
        "directory and re-ingest to produce a v{} checkpoint",
        path, version, kCheckpointVersion, kCheckpointVersion));
  }
  reader.read_u64(checkpoint.seq);
  reader.read_u64(checkpoint.epoch);
  reader.read_u64(checkpoint.last_record_seq);
  reader.read_u32(checkpoint.next_guest_id);
  reader.read_u64(checkpoint.base_checkin_count);

  const auto implausible = [&reader](std::uint64_t count, std::size_t row_bytes) {
    return count > reader.remaining() / row_bytes;
  };

  std::uint32_t name_count = 0;
  if (!reader.read_u32(name_count) || implausible(name_count, kMinNameBytes))
    return parse_error(crowdweb::format("{}: implausible checkpoint name count", path));
  checkpoint.names.resize(name_count);
  for (std::string& name : checkpoint.names) reader.read_bytes(name);

  std::uint32_t venue_count = 0;
  if (!reader.read_u32(venue_count))
    return parse_error(crowdweb::format("{}: truncated checkpoint header", path));
  if (implausible(venue_count, kVenueRowBytes))
    return parse_error(crowdweb::format("{}: implausible checkpoint venue count", path));
  checkpoint.venues.resize(venue_count);
  for (data::Venue& venue : checkpoint.venues) {
    reader.read_u32(venue.id);
    reader.read_u32(venue.name);
    reader.read_u16(venue.category);
    reader.read_f64(venue.position.lat);
    reader.read_f64(venue.position.lon);
    if (!reader.truncated() && venue.name >= name_count) {
      return parse_error(crowdweb::format(
          "{}: venue {} references name id {} outside the names table ({} entries)",
          path, venue.id, venue.name, name_count));
    }
  }

  std::uint64_t checkin_count = 0;
  if (!reader.read_u64(checkin_count) || implausible(checkin_count, kCheckinRowBytes)) {
    return parse_error(
        crowdweb::format("{}: implausible checkpoint check-in count", path));
  }
  if (checkpoint.base_checkin_count > checkin_count) {
    return parse_error(crowdweb::format(
        "{}: checkpoint counts {} base check-ins but holds {} check-in rows", path,
        checkpoint.base_checkin_count, checkin_count));
  }
  checkpoint.checkins.resize(checkin_count);
  for (data::CheckIn& checkin : checkpoint.checkins) {
    reader.read_u32(checkin.user);
    reader.read_u32(checkin.venue);
    reader.read_u16(checkin.category);
    reader.read_f64(checkin.position.lat);
    reader.read_f64(checkin.position.lon);
    reader.read_i64(checkin.timestamp);
  }

  std::uint32_t touched_count = 0;
  if (!reader.read_u32(touched_count))
    return parse_error(crowdweb::format("{}: truncated checkpoint user list", path));
  if (implausible(touched_count, kUserRowBytes))
    return parse_error(crowdweb::format("{}: implausible checkpoint user count", path));
  checkpoint.touched_users.resize(touched_count);
  for (data::UserId& user : checkpoint.touched_users) reader.read_u32(user);

  // The checksum already vouches for the bytes; a short or oversized
  // payload past it means the encoder and decoder disagree.
  if (reader.truncated() || !reader.exhausted()) {
    return parse_error(crowdweb::format(
        "{}: checkpoint payload length does not match its contents", path));
  }
  return checkpoint;
}

}  // namespace crowdweb::store
