#include "patterns/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "mining/prefixspan.hpp"
#include "util/format.hpp"
#include "util/parallel.hpp"

namespace crowdweb::patterns {

namespace {

/// The one formula from a pattern's minute sums to its visit times:
/// element p's mean and spread over the `days` days that support the
/// pattern, from sums[2p] (minutes) and sums[2p + 1] (their squares).
/// annotate_pattern and the kept counts both annotate through it.
void set_times(MobilityPattern& pattern, std::span<const double> sums, std::size_t days) {
  if (days == 0) return;
  for (std::size_t p = 0; p < pattern.elements.size(); ++p) {
    const double mean = sums[2 * p] / static_cast<double>(days);
    const double variance =
        std::max(0.0, sums[2 * p + 1] / static_cast<double>(days) - mean * mean);
    pattern.elements[p].mean_minute = mean;
    pattern.elements[p].stddev_minute = std::sqrt(variance);
  }
}

MobilityPattern unannotated(std::span<const mining::Item> items, std::size_t support_count,
                            double support) {
  MobilityPattern out;
  out.support_count = support_count;
  out.support = support;
  out.elements.reserve(items.size());
  for (const mining::Item item : items) out.elements.push_back({item, 0.0, 0.0});
  return out;
}

}  // namespace

MobilityPattern annotate_pattern(const mining::Pattern& pattern,
                                 const mining::DayShapes& shapes) {
  MobilityPattern out = unannotated(pattern.items, pattern.support_count, pattern.support);
  // Minute-of-day per position over the greedy first embedding in every
  // day that contains the pattern. Days of one shape share the
  // embedding, so each shape adds its days' per-position minute sums at
  // once; the sums are exact integers, so the result is bit-identical to
  // a day-by-day walk.
  std::vector<double> sums(2 * pattern.items.size(), 0.0);
  set_times(out, sums, shapes.embedding_sums(pattern.items, sums));
  return out;
}

UserMobility mine_user_mobility(data::UserId user, const mining::DayShapes& shapes,
                                std::size_t day_count, const MobilityOptions& options) {
  UserMobility out;
  out.user = user;
  out.recorded_days = day_count;
  if (day_count == 0) return out;

  const std::vector<mining::Pattern> mined =
      mining::prefixspan(shapes.columns(), options.mining, &out.mining_stats);
  out.patterns.reserve(mined.size());
  for (const mining::Pattern& pattern : mined)
    out.patterns.push_back(annotate_pattern(pattern, shapes));
  return out;
}

UserMobility mine_user_mobility(data::UserId user, mining::HistoryIndex& history,
                                const MobilityOptions& options, bool* counted,
                                std::size_t buffer_days) {
  const std::size_t days = history.day_count();
  if (counted != nullptr) *counted = true;
  if (days == 0) return mine_user_mobility(user, history.shapes(), 0, options);

  const std::size_t threshold = mining::min_count(options.mining.min_support, days);
  std::size_t explored = 0;
  if (!history.kept().exact_at(threshold)) {
    if (counted != nullptr) *counted = false;
    const std::size_t floor = threshold > buffer_days ? threshold - buffer_days : 1;
    mining::MiningStats stats;
    const std::vector<mining::Pattern> mined =
        mining::prefixspan(history.shapes().columns(), floor, options.mining, &stats);
    if (stats.truncated) {
      // A capped set cannot be counted forward: serve today's mine and
      // keep nothing.
      history.drop_kept();
      return mine_user_mobility(user, history.shapes(), days, options);
    }
    history.keep(mined, floor);
    explored = stats.explored;
  }

  // The kept set holds every frequent pattern with its exact count and
  // sums, in the miner's canonical order: serve those at the threshold.
  UserMobility out;
  out.user = user;
  out.recorded_days = days;
  const mining::KeptPatterns& kept = history.kept();
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const std::size_t count = kept.count(k);
    if (count < threshold) continue;
    out.patterns.push_back(
        unannotated(kept.items(k), count, mining::relative_support(count, days)));
    set_times(out.patterns.back(), kept.sums(k), count);
  }
  out.mining_stats.emitted = out.patterns.size();
  out.mining_stats.explored = explored;
  return out;
}

UserMobility mine_user_mobility(const data::Dataset& dataset, data::UserId user,
                                const data::Taxonomy& taxonomy,
                                const MobilityOptions& options) {
  mining::HistoryIndex history(options.sequences);
  history.extend(dataset.checkins_for(user), 0, taxonomy);
  return mine_user_mobility(user, history.shapes(), history.day_count(), options);
}

std::size_t UserMobility::resident_bytes() const noexcept {
  std::size_t bytes = sizeof(UserMobility);
  bytes += patterns.size() * sizeof(MobilityPattern);
  for (const MobilityPattern& pattern : patterns)
    bytes += pattern.elements.size() * sizeof(TimedElement);
  return bytes;
}

std::vector<UserMobility> mine_all_mobility(const data::Dataset& dataset,
                                            const data::Taxonomy& taxonomy,
                                            const MobilityOptions& options) {
  std::vector<UserMobility> out;
  out.reserve(dataset.user_count());
  for (const data::UserId user : dataset.users())
    out.push_back(mine_user_mobility(dataset, user, taxonomy, options));
  return out;
}

std::vector<UserMobility> mine_all_mobility_parallel(const data::Dataset& dataset,
                                                     const data::Taxonomy& taxonomy,
                                                     const MobilityOptions& options,
                                                     unsigned threads) {
  return mine_users_mobility_parallel(dataset, dataset.users(), taxonomy, options, threads);
}

std::vector<UserMobility> mine_users_mobility_parallel(const data::Dataset& dataset,
                                                       std::span<const data::UserId> users,
                                                       const data::Taxonomy& taxonomy,
                                                       const MobilityOptions& options,
                                                       unsigned threads) {
  std::vector<UserMobility> out(users.size());
  util::parallel_for(users.size(), threads, [&](std::size_t i) {
    out[i] = mine_user_mobility(dataset, users[i], taxonomy, options);
  });
  return out;
}

MobilityTable::MobilityTable(std::vector<EntryPtr> entries) : entries_(std::move(entries)) {
  for (const EntryPtr& entry : entries_) stats_.add(*entry);
}

MobilityTable MobilityTable::from_entries(std::vector<UserMobility> entries) {
  std::vector<EntryPtr> owned;
  owned.reserve(entries.size());
  for (UserMobility& entry : entries)
    owned.push_back(std::make_shared<const UserMobility>(std::move(entry)));
  std::sort(owned.begin(), owned.end(), [](const EntryPtr& a, const EntryPtr& b) {
    return a->user < b->user;
  });
  return MobilityTable(std::move(owned));
}

MobilityTable MobilityTable::with_updates(std::vector<UserMobility> updates) const {
  std::sort(updates.begin(), updates.end(),
            [](const UserMobility& a, const UserMobility& b) { return a.user < b.user; });
  std::vector<EntryPtr> merged;
  merged.reserve(entries_.size() + updates.size());
  MobilityStats stats = stats_;
  std::size_t bi = 0;
  std::size_t ui = 0;
  while (bi < entries_.size() || ui < updates.size()) {
    if (ui == updates.size() ||
        (bi < entries_.size() && entries_[bi]->user < updates[ui].user)) {
      merged.push_back(entries_[bi]);  // untouched: share the entry
      ++bi;
      continue;
    }
    if (bi < entries_.size() && entries_[bi]->user == updates[ui].user)
      stats.remove(*entries_[bi++]);
    merged.push_back(std::make_shared<const UserMobility>(std::move(updates[ui])));
    stats.add(*merged.back());
    ++ui;
  }
  return MobilityTable(std::move(merged), stats);
}

const UserMobility* MobilityTable::find(data::UserId user) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), user,
      [](const EntryPtr& entry, data::UserId u) { return entry->user < u; });
  if (it == entries_.end() || (*it)->user != user) return nullptr;
  return it->get();
}

MobilityTable::EntryPtr MobilityTable::entry_for(data::UserId user) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), user,
      [](const EntryPtr& entry, data::UserId u) { return entry->user < u; });
  if (it == entries_.end() || (*it)->user != user) return nullptr;
  return *it;
}

MobilityTable MobilityTable::filter_users(std::span<const data::UserId> users) const {
  const std::unordered_set<data::UserId> wanted(users.begin(), users.end());
  std::vector<EntryPtr> kept;
  for (const EntryPtr& entry : entries_)
    if (wanted.contains(entry->user)) kept.push_back(entry);
  return MobilityTable(std::move(kept));
}

double average_pattern_length(const std::vector<MobilityPattern>& patterns) {
  if (patterns.empty()) return 0.0;
  double total = 0.0;
  for (const MobilityPattern& p : patterns) total += static_cast<double>(p.length());
  return total / static_cast<double>(patterns.size());
}

std::string describe_pattern(const MobilityPattern& pattern, const data::Taxonomy& taxonomy,
                             const data::Dataset& dataset, mining::LabelMode mode) {
  std::string out;
  for (std::size_t i = 0; i < pattern.elements.size(); ++i) {
    if (i > 0) out += " -> ";
    const TimedElement& e = pattern.elements[i];
    const int minute = static_cast<int>(e.mean_minute + 0.5);
    out += crowdweb::format("{}@{:02}:{:02}", mining::label_name(e.label, mode, taxonomy, dataset),
                            minute / 60, minute % 60);
  }
  out += crowdweb::format(" (support {:.2f})", pattern.support);
  return out;
}

}  // namespace crowdweb::patterns
