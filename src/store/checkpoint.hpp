// Binary checkpoint of the merged live corpus.
//
// A checkpoint file is one payload followed by a trailing u32 CRC-32 of
// everything before it:
//
//   u32 magic "CCKP" | u32 version (2) | u64 checkpoint_seq | u64 epoch |
//   u64 last_record_seq | u32 next_guest_id | u64 base_checkin_count |
//   u32 name_count    | name_count    x bytes(name) |
//   u32 venue_count   | venue_count   x venue   |
//   u64 checkin_count | checkin_count x checkin |
//   u32 touched_count | touched_count x u32 user |
//   u32 crc32(payload)
//
// `last_record_seq` names the WAL prefix the checkpoint covers: recovery
// loads the checkpoint, then replays only records with seq greater than
// it. Venues are stored in id order and check-ins in the dataset's
// (user, timestamp) order; since the dataset builder orders records by
// user, then timestamp, then row order, rebuilding the rows reproduces
// the corpus that wrote them byte for byte (images whose rows are in
// any other order, such as the insertion order older writers used,
// rebuild the same way).
//
// The names table is the interning pool in NameId order: entry i is the
// string NameId i resolves to, and each venue row stores a u32 NameId
// into it instead of an inline string. Re-interning the table in order
// into a fresh pool reproduces every id exactly, so a recovered corpus
// resolves names identically to the one that wrote the checkpoint.
// Version 2 introduced the table; v1 files (inline name strings) are
// refused with an error telling the operator to re-ingest.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/checkin.hpp"
#include "util/status.hpp"

namespace crowdweb::store {

/// The durable image of an IngestWorker's live corpus.
struct Checkpoint {
  std::uint64_t seq = 0;    ///< checkpoint ordinal (file name ordinal)
  std::uint64_t epoch = 0;  ///< worker epoch at checkpoint time
  /// Largest WAL record seq folded into this image (0 = none).
  std::uint64_t last_record_seq = 0;
  data::UserId next_guest_id = 0;
  /// How many of `checkins` came from the base corpus, not live
  /// ingestion (a count, not a prefix: rows are in (user, timestamp)
  /// order). Never more than `checkins.size()`; the decoder refuses an
  /// image that claims more.
  std::uint64_t base_checkin_count = 0;
  /// Interning table in NameId order: names[i] is the string behind
  /// NameId i. Every venue row's `name` indexes this table.
  std::vector<std::string> names;
  std::vector<data::Venue> venues;
  std::vector<data::CheckIn> checkins;
  /// Users ever touched by live deltas (feeds incremental re-mining).
  std::vector<data::UserId> touched_users;
};

[[nodiscard]] std::string encode_checkpoint(const Checkpoint& checkpoint);

/// Decodes and checksum-verifies one checkpoint file's bytes. `path`
/// appears in error messages only.
[[nodiscard]] Result<Checkpoint> decode_checkpoint(std::string_view bytes,
                                                   const std::string& path);

}  // namespace crowdweb::store
