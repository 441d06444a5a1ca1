// The CrowdWeb platform facade.
//
// Wires the three phases of Figure 2 into one object:
//   1. data acquisition & pre-processing — synthesize (or accept) a
//      check-in corpus, restrict it to the experiment window, and select
//      active users;
//   2. individual mobility pattern detection — modified PrefixSpan per
//      user;
//   3. crowd synchronization & aggregation — the queryable CrowdModel.
// Everything downstream (examples, HTTP API, benches) talks to this
// class. The phase 1-3 output is one immutable ingest::PlatformSnapshot
// at epoch 0 — the same shape every live epoch publishes — so the static
// deployment serves it through the one view constructor, and live
// workers and shards seed from its entries by sharing them. A built
// Platform is immutable, so concurrent readers are safe.
#pragma once

#include <string>

#include "crowd/model.hpp"
#include "data/dataset.hpp"
#include "ingest/snapshot.hpp"
#include "patterns/mobility.hpp"
#include "patterns/place_graph.hpp"
#include "store/store.hpp"
#include "synth/generator.hpp"
#include "telemetry/metrics.hpp"
#include "util/civil_time.hpp"
#include "util/status.hpp"

namespace crowdweb::core {

struct PlatformConfig {
  std::uint64_t seed = 42;
  /// Generate the small fast corpus instead of the paper-scale one.
  bool small_corpus = false;

  // Phase 1 — pre-processing (Section I.1). Literal epoch seconds keep
  // the default constructor constexpr-friendly (and dodge a GCC 12
  // -Wdangling-pointer false positive on the CivilTime temporary).
  std::int64_t experiment_start = 1'333'238'400;  // 2012-04-01 00:00:00
  std::int64_t experiment_end = 1'341'100'800;    // 2012-07-01 00:00:00
  /// Keep users active on more than this many days in the window.
  int min_active_days = 50;
  /// 2h-gap richness rule (0 = any recorded day counts; see
  /// data::ActiveUserCriteria).
  std::int64_t max_gap_seconds = 0;

  // Phase 2 — pattern detection.
  mining::SequenceOptions sequences;
  mining::MiningOptions mining;
  /// Worker threads for per-user mining (0 = hardware concurrency,
  /// 1 = sequential). Output is identical either way.
  unsigned mining_threads = 0;

  // Phase 3 — crowd model.
  double grid_cell_meters = 500.0;
  crowd::CrowdOptions crowd;

  /// Telemetry registry the batch build records onto
  /// (crowdweb_platform_build_stage_duration_seconds{stage}; see
  /// docs/OBSERVABILITY.md). Must outlive the create()/from_*() call.
  /// Null disables platform build telemetry (PhaseTimings still fills).
  telemetry::Registry* metrics = nullptr;

  /// Durable storage for the live ingestion worker: WAL + checkpoints
  /// under `store.dir` (empty = durability off). Consumed by
  /// make_ingest_worker — a worker built from this platform inherits it
  /// unless its own config names a directory. The batch pipeline itself
  /// never touches the store.
  store::StoreConfig store;
};

/// Wall-clock cost of each phase, for the pipeline bench.
struct PhaseTimings {
  double acquisition_ms = 0.0;
  double mining_ms = 0.0;
  double crowd_ms = 0.0;
};

class Platform {
 public:
  /// Generates a synthetic corpus per `config` and runs all phases.
  static Result<Platform> create(const PlatformConfig& config = {});

  /// Runs the pipeline on an externally supplied dataset (e.g. loaded
  /// from CSV).
  static Result<Platform> from_dataset(data::Dataset dataset, const PlatformConfig& config);

  /// Loads a dataset from the CSV interchange files (see
  /// data/dataset_io.hpp — the format `make_dataset` writes) and runs the
  /// pipeline on it.
  static Result<Platform> from_csv_files(const std::string& venues_path,
                                         const std::string& checkins_path,
                                         const PlatformConfig& config);

  [[nodiscard]] const PlatformConfig& config() const noexcept { return config_; }
  [[nodiscard]] const data::Taxonomy& taxonomy() const noexcept;

  /// The full corpus before preprocessing.
  [[nodiscard]] const data::Dataset& full_dataset() const noexcept { return full_; }
  /// The batch build as epoch 0: the experiment corpus, its mined
  /// entries, the grid and the crowd model.
  [[nodiscard]] const ingest::SnapshotPtr& snapshot() const noexcept { return snapshot_; }
  /// The experiment corpus: window-restricted, active users only.
  [[nodiscard]] const data::Dataset& experiment_dataset() const noexcept {
    return snapshot_->dataset;
  }

  [[nodiscard]] const patterns::MobilityTable& mobility() const noexcept {
    return snapshot_->mobility;
  }
  /// A single user's mined mobility (nullptr when unknown).
  [[nodiscard]] const patterns::UserMobility* user_mobility(data::UserId user) const noexcept {
    return mobility().find(user);
  }

  [[nodiscard]] const geo::SpatialGrid& grid() const noexcept { return snapshot_->grid; }
  [[nodiscard]] const crowd::CrowdModel& crowd_model() const noexcept {
    return snapshot_->crowd;
  }
  [[nodiscard]] const PhaseTimings& timings() const noexcept { return timings_; }

  /// Rebuilds a user's day-sequence database (phase 2 input).
  [[nodiscard]] mining::UserSequences sequences_for(data::UserId user) const;

  /// Builds a user's place graph restricted to their mined patterns.
  [[nodiscard]] patterns::PlaceGraph place_graph(data::UserId user) const;
  /// Same, over any epoch's entry (null = unrestricted) and the day
  /// sequences built from the corpus it was mined from.
  [[nodiscard]] patterns::PlaceGraph place_graph(const patterns::UserMobility* mobility,
                                                 const mining::UserSequences& sequences,
                                                 const data::Dataset& dataset) const;

 private:
  Platform() = default;

  /// Runs the three phases over `full`.
  Status run_pipeline(data::Dataset full);

  PlatformConfig config_;
  data::Dataset full_;
  ingest::SnapshotPtr snapshot_;
  PhaseTimings timings_;
};

}  // namespace crowdweb::core
