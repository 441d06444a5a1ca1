#include "ingest/epoch_step.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/parallel.hpp"

namespace crowdweb::ingest {

Status add_delta(data::DatasetBuilder& builder, std::span<const data::Venue> venues,
                 std::span<const data::CheckIn> checkins) {
  for (const data::Venue& venue : venues) {
    if (Status status = builder.add_venue(venue); !status.is_ok()) return status;
  }
  for (const data::CheckIn& checkin : checkins) {
    if (Status status = builder.add_checkin(checkin); !status.is_ok()) return status;
  }
  return Status::ok();
}

EpochStep::EpochStep(data::Dataset dataset, patterns::MobilityTable mobility,
                     crowd::CrowdModel crowd, const data::Taxonomy& taxonomy,
                     patterns::MobilityOptions options, unsigned mining_threads)
    : dataset_(std::move(dataset)),
      mobility_(std::move(mobility)),
      crowd_(std::move(crowd)),
      taxonomy_(&taxonomy),
      options_(std::move(options)),
      mining_threads_(mining_threads) {}

Result<EpochReport> EpochStep::step(std::span<const data::Venue> venues,
                                    std::span<const data::CheckIn> checkins,
                                    std::span<const data::UserId> changed_users) {
  EpochReport report;
  // Seconds since the previous lap (or the step's start).
  auto lap_start = std::chrono::steady_clock::now();
  const auto lap = [&lap_start] {
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - std::exchange(lap_start, now)).count();
  };
  data::DatasetBuilder builder(dataset_);
  if (Status status = add_delta(builder, venues, checkins); !status.is_ok()) return status;
  data::Dataset dataset = builder.build();
  report.merge = builder.stats();
  report.merge_seconds = lap();

  // Mine. Every slot exists before the fan-out, so the threads update
  // disjoint entries of a map no thread inserts into. The byte total
  // drops the changed users' state here and adds it back once updated.
  std::vector<data::UserId> changed(changed_users.begin(), changed_users.end());
  std::ranges::sort(changed);
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  std::vector<KeptUser*> kept;
  kept.reserve(changed.size());
  for (const data::UserId user : changed) {
    KeptUser& state = kept_.try_emplace(user, options_.sequences).first->second;
    kept_bytes_ -= state.history.resident_bytes();
    kept.push_back(&state);
  }
  std::vector<patterns::UserMobility> updates(changed.size());
  std::vector<std::uint8_t> appended(changed.size(), 0);
  std::vector<std::uint8_t> counted(changed.size(), 0);
  util::parallel_for(changed.size(), mining_threads_, [&](std::size_t i) {
    mining::HistoryIndex& history = kept[i]->history;
    const data::Dataset::UserColumns records = dataset.checkins_for(changed[i]);
    const std::size_t from = history.resume_point(records);
    history.extend(records, from, *taxonomy_);
    appended[i] = from > 0 ? 1 : 0;
    bool by_count = false;
    updates[i] = patterns::mine_user_mobility(changed[i], history, options_, &by_count);
    counted[i] = by_count ? 1 : 0;
  });
  for (const KeptUser* state : kept) kept_bytes_ += state->history.resident_bytes();
  report.appended_users = static_cast<std::size_t>(std::ranges::count(appended, 1));
  report.refiled_users = changed.size() - report.appended_users;
  report.counted_users = static_cast<std::size_t>(std::ranges::count(counted, 1));
  report.mined_users = changed.size() - report.counted_users;
  for (const patterns::UserMobility& entry : updates) {
    report.patterns_emitted += entry.mining_stats.emitted;
    if (entry.mining_stats.truncated) ++report.truncated_users;
  }
  // With no updates, a new table would only copy every entry pointer.
  patterns::MobilityTable updated;
  if (!changed.empty()) updated = mobility_.with_updates(std::move(updates));
  const patterns::MobilityTable& mobility = changed.empty() ? mobility_ : updated;
  report.mine_seconds = lap();

  // Crowd. A tally's counts do not depend on record order, so a kept
  // one takes the delta's check-ins; a user without one, or whose count
  // disagrees with their column after a failed step, counts the column.
  std::vector<data::CheckIn> merged(checkins.begin(), checkins.end());
  std::ranges::sort(merged, {}, &data::CheckIn::user);
  std::vector<const crowd::VenueTally*> tallies(changed.size());
  const int window_minutes = crowd_.options().window_minutes;
  for (const KeptUser* state : kept) kept_bytes_ -= state->tally.resident_bytes();
  util::parallel_for(changed.size(), mining_threads_, [&](std::size_t i) {
    const auto delta =
        std::ranges::equal_range(merged, changed[i], {}, &data::CheckIn::user);
    const data::Dataset::UserColumns records = dataset.checkins_for(changed[i]);
    crowd::VenueTally& tally = kept[i]->tally;
    if (tally.records() > 0 && tally.records() + delta.size() == records.size()) {
      for (const data::CheckIn& checkin : delta) tally.add(checkin);
    } else {
      tally = crowd::VenueTally(records, window_minutes);
    }
    tallies[i] = &tally;
  });
  for (const KeptUser* state : kept) kept_bytes_ += state->tally.resident_bytes();
  report.kept_bytes = kept_bytes_;
  auto crowd = crowd::CrowdModel::update(crowd_, dataset, mobility, changed, tallies);
  if (!crowd) return crowd.status();
  report.crowd_seconds = lap();

  dataset_ = std::move(dataset);
  if (!changed.empty()) mobility_ = std::move(updated);
  crowd_ = std::move(*crowd);
  return report;
}

}  // namespace crowdweb::ingest
