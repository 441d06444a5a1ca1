#include "patterns/mobility.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "mining/registry.hpp"
#include "util/format.hpp"
#include "util/parallel.hpp"

namespace crowdweb::patterns {

MobilityPattern annotate_pattern(const mining::Pattern& pattern,
                                 const mining::DayShapes& shapes) {
  MobilityPattern out;
  out.support_count = pattern.support_count;
  out.support = pattern.support;
  out.elements.reserve(pattern.items.size());
  for (const mining::Item item : pattern.items) out.elements.push_back({item, 0.0, 0.0});

  // Accumulate minute-of-day per position over the greedy first embedding
  // in every day that contains the pattern. Days of one shape share the
  // embedding, so each shape adds its days' per-position minute sums at
  // once; the sums are exact integers, so the result is bit-identical to
  // a day-by-day walk.
  std::vector<double> sum(pattern.items.size(), 0.0);
  std::vector<double> sum_sq(pattern.items.size(), 0.0);
  std::vector<std::uint32_t> embedding(pattern.items.size(), 0);
  std::size_t matched_days = 0;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto shape = shapes.shape(s);
    std::size_t position = 0;
    for (std::size_t i = 0; i < shape.size() && position < pattern.items.size(); ++i) {
      if (shape[i] == pattern.items[position]) {
        embedding[position] = shapes.offsets[s] + static_cast<std::uint32_t>(i);
        ++position;
      }
    }
    if (position != pattern.items.size()) continue;  // shape does not support it
    matched_days += shapes.days[s];
    for (std::size_t p = 0; p < embedding.size(); ++p) {
      sum[p] += shapes.minute_sum[embedding[p]];
      sum_sq[p] += shapes.minute_sq_sum[embedding[p]];
    }
  }
  if (matched_days > 0) {
    for (std::size_t p = 0; p < out.elements.size(); ++p) {
      const double mean = sum[p] / static_cast<double>(matched_days);
      const double variance =
          std::max(0.0, sum_sq[p] / static_cast<double>(matched_days) - mean * mean);
      out.elements[p].mean_minute = mean;
      out.elements[p].stddev_minute = std::sqrt(variance);
    }
  }
  return out;
}

namespace {

/// Builds the closed-mode placement index: stream the *exact* expanded
/// frequent set (same expansion function and cap as expanded mode, so
/// truncation behaves identically), annotate each pattern transiently,
/// and keep — per (label, int(mean_minute)) key — only the candidates on
/// the support frontier in rank order.
///
/// Why the frontier suffices: the crowd layer places the first element
/// (pattern-major canonical order = ascending rank) whose pattern
/// clears min_pattern_support and whose (window, label) key is unseen.
/// Two candidates with the same (label, minute) map to the same window
/// under *every* window size, so if an earlier-rank same-key candidate
/// has support >= a later one's, the earlier qualifies whenever the
/// later does and always beats it to the dedup set — the later can
/// never be the placed element, at any threshold or window size. The
/// expanded-mode winner itself always survives pruning: any same-key
/// candidate that dominated it would have qualified first in expanded
/// mode too, contradicting the winner being placed.
void build_placement_index(UserMobility& out, std::span<const mining::Pattern> closed,
                           const mining::DayShapes& shapes, std::size_t day_count,
                           const mining::MiningOptions& mining) {
  mining::MiningStats expand_stats;
  const std::vector<mining::Pattern> full =
      mining::expand_closed_patterns(closed, day_count, mining, &expand_stats);
  out.mining_stats.expanded += expand_stats.expanded;
  out.mining_stats.truncated = out.mining_stats.truncated || expand_stats.truncated;
  out.frequent_patterns = full.size();

  std::vector<PlacementCandidate> candidates;
  std::uint32_t rank = 0;
  for (const mining::Pattern& pattern : full) {
    const MobilityPattern annotated = annotate_pattern(pattern, shapes);
    for (const TimedElement& element : annotated.elements) {
      PlacementCandidate candidate;
      candidate.label = element.label;
      candidate.minute = static_cast<std::uint16_t>(
          std::clamp(static_cast<int>(element.mean_minute), 0, 24 * 60 - 1));
      candidate.rank = rank++;
      candidate.support_count = static_cast<std::uint32_t>(pattern.support_count);
      candidate.support = pattern.support;
      candidates.push_back(candidate);
    }
  }

  // Per-key frontier sweep: group by (label, minute), walk each group in
  // rank order, keep a candidate only when it strictly raises the
  // group's running support maximum.
  std::sort(candidates.begin(), candidates.end(),
            [](const PlacementCandidate& a, const PlacementCandidate& b) {
              if (a.label != b.label) return a.label < b.label;
              if (a.minute != b.minute) return a.minute < b.minute;
              return a.rank < b.rank;
            });
  std::vector<PlacementCandidate> kept;
  std::size_t i = 0;
  while (i < candidates.size()) {
    std::uint32_t best = 0;
    std::size_t j = i;
    for (; j < candidates.size() && candidates[j].label == candidates[i].label &&
           candidates[j].minute == candidates[i].minute;
         ++j) {
      if (candidates[j].support_count > best) {
        best = candidates[j].support_count;
        kept.push_back(candidates[j]);
      }
    }
    i = j;
  }
  std::sort(kept.begin(), kept.end(),
            [](const PlacementCandidate& a, const PlacementCandidate& b) {
              return a.rank < b.rank;
            });
  kept.shrink_to_fit();
  out.placement_index = std::move(kept);
}

}  // namespace

UserMobility mine_user_mobility(data::UserId user, const mining::DayShapes& shapes,
                                std::size_t day_count, const MobilityOptions& options) {
  UserMobility out;
  out.user = user;
  out.recorded_days = day_count;
  if (day_count == 0) return out;

  const mining::IMiningAlgorithm& miner = mining::miner_for(options.mining.algorithm);
  const mining::MiningResult mined = miner.mine(shapes.columns(), options.mining);
  out.mining_stats = mined.stats;
  out.patterns.reserve(mined.patterns.size());
  for (const mining::Pattern& pattern : mined.patterns)
    out.patterns.push_back(annotate_pattern(pattern, shapes));
  if (miner.closed_output()) {
    out.closed_only = true;
    build_placement_index(out, mined.patterns, shapes, day_count, options.mining);
  }
  return out;
}

UserMobility mine_user_mobility(const data::Dataset& dataset, data::UserId user,
                                const data::Taxonomy& taxonomy,
                                const MobilityOptions& options) {
  mining::HistoryIndex history(options.sequences);
  history.extend(dataset.checkins_for(user), 0, taxonomy);
  return mine_user_mobility(user, history.shapes(), history.day_count(), options);
}

std::size_t UserMobility::support_count_of(
    std::span<const mining::Item> labels) const noexcept {
  std::size_t best = 0;
  for (const MobilityPattern& pattern : patterns) {
    if (pattern.support_count <= best) continue;  // cannot improve the max
    if (pattern.elements.size() < labels.size()) continue;
    std::size_t n = 0;
    for (const TimedElement& element : pattern.elements) {
      if (n == labels.size()) break;
      if (element.label == labels[n]) ++n;
    }
    if (n == labels.size()) best = pattern.support_count;
  }
  return best;
}

double UserMobility::support_of(std::span<const mining::Item> labels) const noexcept {
  if (recorded_days == 0) return 0.0;
  return static_cast<double>(support_count_of(labels)) /
         static_cast<double>(recorded_days);
}

std::size_t UserMobility::resident_bytes() const noexcept {
  std::size_t bytes = sizeof(UserMobility);
  bytes += patterns.size() * sizeof(MobilityPattern);
  for (const MobilityPattern& pattern : patterns)
    bytes += pattern.elements.size() * sizeof(TimedElement);
  bytes += placement_index.size() * sizeof(PlacementCandidate);
  return bytes;
}

std::vector<MobilityPattern> expand_user_patterns(const UserMobility& mobility,
                                                  const mining::DayShapes& shapes,
                                                  std::size_t day_count,
                                                  const mining::MiningOptions& mining) {
  if (!mobility.closed_only) return mobility.patterns;
  // Reconstitute the closed set in miner form (items + supports; the
  // annotations are not needed to expand), then rerun the exact
  // expansion + annotation the expanded-mode mine would have done.
  std::vector<mining::Pattern> closed;
  closed.reserve(mobility.patterns.size());
  for (const MobilityPattern& pattern : mobility.patterns) {
    mining::Pattern raw;
    raw.items.reserve(pattern.elements.size());
    for (const TimedElement& element : pattern.elements) raw.items.push_back(element.label);
    raw.support_count = pattern.support_count;
    raw.support = pattern.support;
    closed.push_back(std::move(raw));
  }
  const std::vector<mining::Pattern> full =
      mining::expand_closed_patterns(closed, day_count, mining);
  std::vector<MobilityPattern> out;
  out.reserve(full.size());
  for (const mining::Pattern& pattern : full)
    out.push_back(annotate_pattern(pattern, shapes));
  return out;
}

std::vector<MobilityPattern> expand_user_patterns(const UserMobility& mobility,
                                                  const data::Dataset& dataset,
                                                  const data::Taxonomy& taxonomy,
                                                  const MobilityOptions& options) {
  if (!mobility.closed_only) return mobility.patterns;
  mining::HistoryIndex history(options.sequences);
  history.extend(dataset.checkins_for(mobility.user), 0, taxonomy);
  return expand_user_patterns(mobility, history.shapes(), history.day_count(), options.mining);
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
