// One pinned read view: the state every API route renders from.
//
// A view pins one published epoch per shard slot and exposes what the
// handlers read: the phase-3 crowd model, the grid, a corpus for
// labels, and every user's phase-2 entry next to the corpus it was
// mined from. Every deployment shape builds it with view_of over one
// published epoch per slot:
//   - the static batch build: the Platform's own epoch-0 snapshot,
//     pinned once;
//   - one IngestWorker, or one live shard: a passthrough over that
//     epoch's snapshot, with no merge and no copy;
//   - N >= 2 live shards: the crowd models are k-way merged by user id
//     into a model the view owns (the ShardRouter caches it per epoch
//     vector).
// A handler holds the ViewPtr for the whole request, so a concurrent
// publish cannot change what it renders, and the response carries the
// view's epoch key and tag for the response cache.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "ingest/snapshot.hpp"

namespace crowdweb::core {

struct PinnedView {
  /// Configuration and taxonomy (immutable; outlives the view).
  const Platform* platform = nullptr;
  /// Epoch per shard slot (0 = down / nothing published, or the batch
  /// build).
  std::vector<std::uint64_t> epochs;
  /// Pinned snapshots, parallel to `epochs` (null for down shards). A
  /// live pin's `dataset` and `mobility` are the view's user parts.
  std::vector<ingest::SnapshotPtr> pins;
  /// Ids of shard slots that contributed nothing, ascending.
  std::vector<std::size_t> missing;
  bool degraded = false;  ///< true iff `missing` is non-empty
  /// Response-cache key of this epoch (the epoch itself for one slot,
  /// shard::mix_epoch_vector for several) and its ETag rendition, the
  /// dotted vector ("3.5.2").
  std::uint64_t cache_epoch = 0;
  std::string epoch_tag;
  /// The crowd model handlers render (null when no slot is live).
  const crowd::CrowdModel* crowd = nullptr;
  /// Owns the k-way merge when several slots are live.
  std::shared_ptr<const crowd::CrowdModel> merged_crowd;
  /// Corpus + grid of the first live slot, for labels and geometry.
  /// Venue tables are shared across shards at seed time; they diverge
  /// only once live events mint shard-local venues.
  const data::Dataset* dataset = nullptr;
  const geo::SpatialGrid* grid = nullptr;
  std::size_t live_checkins = 0;    ///< summed over live slots
  std::size_t checkins = 0;         ///< summed corpus size
  std::size_t user_count = 0;       ///< summed corpus users

  /// The user's entry (null when unknown) and, through `home`, the
  /// corpus it was mined from.
  [[nodiscard]] const patterns::UserMobility* find_user(
      data::UserId user, const data::Dataset** home) const noexcept;
  /// Visits every user's entry in ascending user id (k-way over the
  /// live pins; each user lives on one pin).
  void for_each_user(const std::function<void(const patterns::UserMobility&)>& fn) const;
  /// Resident pattern-set footprint across every live pin.
  [[nodiscard]] patterns::MobilityStats mobility_stats() const;
};
using ViewPtr = std::shared_ptr<const PinnedView>;

/// The view over one snapshot per shard slot (null = down), keyed on
/// `cache_epoch`. One live slot is a passthrough; several are merged.
[[nodiscard]] ViewPtr view_of(const Platform& platform, std::vector<ingest::SnapshotPtr> pins,
                              std::uint64_t cache_epoch);

/// Dotted rendition of an epoch vector, e.g. "3.5.2".
[[nodiscard]] std::string epoch_tag_of(std::span<const std::uint64_t> epochs);

}  // namespace crowdweb::core
