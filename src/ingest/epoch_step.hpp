// One epoch of the live pipeline: merge -> mine -> crowd over kept
// per-user state. The ingest worker runs one step per epoch and
// bench_rebuild times step() itself. The step has no thread, queue, WAL
// or telemetry of its own: its two per-user fan-outs run on
// util::parallel_for, and it returns what it did as an EpochReport,
// which the worker records. One thread steps it.
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>

#include "crowd/model.hpp"
#include "data/categories.hpp"
#include "data/dataset.hpp"
#include "mining/seqdb.hpp"
#include "patterns/mobility.hpp"
#include "util/status.hpp"

namespace crowdweb::ingest {

/// What one step() did: stage wall times and the counts the worker
/// exports as its crowdweb_ingest_* and crowdweb_mining_* series.
struct EpochReport {
  double merge_seconds = 0.0;
  double mine_seconds = 0.0;
  double crowd_seconds = 0.0;
  data::DatasetBuilder::BuildStats merge;
  std::size_t appended_users = 0;  ///< indexes that filed only appended records
  std::size_t refiled_users = 0;   ///< indexes refiled from the first record
  std::size_t counted_users = 0;   ///< entries served from kept pattern counts
  std::size_t mined_users = 0;     ///< entries mined in full
  std::size_t patterns_emitted = 0;
  std::size_t truncated_users = 0;  ///< mines cut short at max_patterns
  std::size_t kept_bytes = 0;       ///< heap bytes of the kept state afterwards
};

/// Feeds a delta to `builder`: the step's merge and the worker's
/// checkpoint image share it.
[[nodiscard]] Status add_delta(data::DatasetBuilder& builder,
                               std::span<const data::Venue> venues,
                               std::span<const data::CheckIn> checkins);

class EpochStep {
 public:
  /// Adopts an epoch's state, sharing (not copying) its shards, entries
  /// and windows. No user has kept state yet. `crowd` fixes the grid and
  /// crowd options of every later epoch. `taxonomy` must outlive the
  /// step; `mining_threads` 0 = hardware concurrency.
  EpochStep(data::Dataset dataset, patterns::MobilityTable mobility,
            crowd::CrowdModel crowd, const data::Taxonomy& taxonomy,
            patterns::MobilityOptions options, unsigned mining_threads);

  /// Merges `venues` (ids dense from dataset().venue_count()) and
  /// `checkins`, then re-mines and re-places `changed_users` (the users
  /// the delta touched, plus any others to re-derive; any order, repeats
  /// ignored) from their kept index and tally. The result equals a
  /// from-scratch build over the merged corpus. On failure dataset(),
  /// mobility() and crowd() stay the previous epoch's and the same delta
  /// may be stepped again.
  [[nodiscard]] Result<EpochReport> step(std::span<const data::Venue> venues,
                                         std::span<const data::CheckIn> checkins,
                                         std::span<const data::UserId> changed_users);

  [[nodiscard]] const data::Dataset& dataset() const noexcept { return dataset_; }
  [[nodiscard]] const patterns::MobilityTable& mobility() const noexcept { return mobility_; }
  [[nodiscard]] const crowd::CrowdModel& crowd() const noexcept { return crowd_; }

 private:
  // A re-mined user's kept state, never published. A user missing here
  // refiles and recounts from their first record.
  struct KeptUser {
    explicit KeptUser(const mining::SequenceOptions& sequences) : history(sequences) {}
    mining::HistoryIndex history;
    crowd::VenueTally tally;
  };

  data::Dataset dataset_;
  patterns::MobilityTable mobility_;
  crowd::CrowdModel crowd_;
  const data::Taxonomy* taxonomy_;
  patterns::MobilityOptions options_;
  unsigned mining_threads_;
  std::unordered_map<data::UserId, KeptUser> kept_;
  std::size_t kept_bytes_ = 0;  // resident bytes of kept_
};

}  // namespace crowdweb::ingest
