#include "core/platform.hpp"

#include <chrono>

#include "data/dataset_io.hpp"
#include "util/log.hpp"

namespace crowdweb::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Records one batch-build stage into the shared stage family. Get-or-
/// create keeps call sites independent of construction order (synth runs
/// before run_pipeline); the bounds only apply on first creation.
void observe_stage(telemetry::Registry* metrics, const std::string& stage, double ms) {
  if (metrics == nullptr) return;
  metrics
      ->histogram_family(
          "crowdweb_platform_build_stage_duration_seconds",
          "Wall time of one batch platform build stage: synth (corpus generation), "
          "acquisition (window + active-user filtering), mining (per-user "
          "PrefixSpan), crowd (model aggregation).",
          {"stage"}, telemetry::default_duration_buckets())
      .with_labels({stage})
      .observe(ms / 1e3);
}

}  // namespace

const data::Taxonomy& Platform::taxonomy() const noexcept {
  return data::Taxonomy::foursquare();
}

Result<Platform> Platform::create(const PlatformConfig& config) {
  const auto synth_start = Clock::now();
  auto corpus = config.small_corpus ? synth::small_corpus(config.seed)
                                    : synth::paper_corpus(config.seed);
  if (!corpus) return corpus.status();
  observe_stage(config.metrics, "synth", ms_since(synth_start));
  Platform platform;
  platform.config_ = config;
  const Status status = platform.run_pipeline(std::move(corpus->dataset));
  if (!status.is_ok()) return status;
  return platform;
}

Result<Platform> Platform::from_dataset(data::Dataset dataset, const PlatformConfig& config) {
  Platform platform;
  platform.config_ = config;
  const Status status = platform.run_pipeline(std::move(dataset));
  if (!status.is_ok()) return status;
  return platform;
}

Result<Platform> Platform::from_csv_files(const std::string& venues_path,
                                          const std::string& checkins_path,
                                          const PlatformConfig& config) {
  auto venues = data::read_file(venues_path);
  if (!venues) return venues.status();
  auto checkins = data::read_file(checkins_path);
  if (!checkins) return checkins.status();
  auto dataset =
      data::dataset_from_csv(*venues, *checkins, data::Taxonomy::foursquare());
  if (!dataset) return dataset.status();
  return from_dataset(std::move(dataset).value(), config);
}

Status Platform::run_pipeline(data::Dataset full) {
  if (full.empty()) return failed_precondition("dataset is empty");
  full_ = std::move(full);

  // Phase 1: window restriction + active-user selection.
  const auto phase1_start = Clock::now();
  data::Dataset windowed =
      full_.filter_time_range(config_.experiment_start, config_.experiment_end);
  data::ActiveUserCriteria criteria;
  criteria.from = config_.experiment_start;
  criteria.to = config_.experiment_end;
  criteria.min_days = config_.min_active_days;
  criteria.max_gap_seconds = config_.max_gap_seconds;
  data::Dataset experiment = windowed.filter_active_users(criteria);
  if (experiment.empty())
    return failed_precondition(
        "no active users survive preprocessing; relax min_active_days or widen the window");
  timings_.acquisition_ms = ms_since(phase1_start);
  observe_stage(config_.metrics, "acquisition", timings_.acquisition_ms);

  // Phase 2: per-user PrefixSpan mining.
  const auto phase2_start = Clock::now();
  patterns::MobilityOptions mobility_options;
  mobility_options.sequences = config_.sequences;
  mobility_options.mining = config_.mining;
  patterns::MobilityTable mobility = patterns::MobilityTable::from_entries(
      patterns::mine_all_mobility_parallel(experiment, taxonomy(), mobility_options,
                                           config_.mining_threads));
  timings_.mining_ms = ms_since(phase2_start);
  observe_stage(config_.metrics, "mining", timings_.mining_ms);
  mining::MiningStats mining_totals;
  for (const patterns::UserMobility& entry : mobility) mining_totals.merge(entry.mining_stats);
  if (mining_totals.truncated) {
    log_warn(
        "PrefixSpan hit the max_patterns cap ({}) for at least one user; "
        "mined tables are incomplete — raise max_patterns or min_support",
        config_.mining.max_patterns);
  }

  // Phase 3: crowd synchronization and aggregation.
  const auto phase3_start = Clock::now();
  auto grid = geo::SpatialGrid::create(experiment.bounds().inflated(0.002),
                                       config_.grid_cell_meters);
  if (!grid) return grid.status();
  auto crowd = crowd::CrowdModel::build(experiment, mobility, *grid, config_.crowd);
  if (!crowd) return crowd.status();
  timings_.crowd_ms = ms_since(phase3_start);
  observe_stage(config_.metrics, "crowd", timings_.crowd_ms);

  log_info(
      "platform ready: {} users ({} active), {} check-ins in window, {} placements; "
      "phases {:.0f}/{:.0f}/{:.0f} ms",
      full_.user_count(), experiment.user_count(), experiment.checkin_count(),
      crowd->total_placements(), timings_.acquisition_ms, timings_.mining_ms,
      timings_.crowd_ms);
  snapshot_ = std::make_shared<const ingest::PlatformSnapshot>(ingest::PlatformSnapshot{
      0, 0, 0, 0.0, std::move(experiment), std::move(mobility), std::move(*grid),
      std::move(crowd).value()});
  return Status::ok();
}

mining::UserSequences Platform::sequences_for(data::UserId user) const {
  return mining::build_user_sequences(experiment_dataset(), user, taxonomy(),
                                      config_.sequences);
}

patterns::PlaceGraph Platform::place_graph(data::UserId user) const {
  return place_graph(user_mobility(user), sequences_for(user), experiment_dataset());
}

patterns::PlaceGraph Platform::place_graph(const patterns::UserMobility* mobility,
                                           const mining::UserSequences& sequences,
                                           const data::Dataset& dataset) const {
  patterns::PlaceGraphOptions options;
  if (mobility != nullptr && !mobility->patterns.empty())
    options.restrict_to_patterns = &mobility->patterns;
  return patterns::build_place_graph(sequences, taxonomy(), dataset, config_.sequences.mode,
                                     options);
}

}  // namespace crowdweb::core
