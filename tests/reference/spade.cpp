#include "reference/spade.hpp"

#include <algorithm>
#include <map>

namespace crowdweb::mining {

namespace {

/// One occurrence: the pattern's *last* element sits at `position` of
/// sequence `sequence`. Lists are kept sorted by (sequence, position).
struct Occurrence {
  std::uint32_t sequence;
  std::uint32_t position;
};

using IdList = std::vector<Occurrence>;

/// Number of distinct sequences in a sorted id-list.
std::size_t support_of(const IdList& list) {
  std::size_t count = 0;
  std::uint32_t previous = 0;
  bool first = true;
  for (const Occurrence& occurrence : list) {
    if (first || occurrence.sequence != previous) {
      ++count;
      previous = occurrence.sequence;
      first = false;
    }
  }
  return count;
}

/// Temporal join: occurrences of `item` that appear *after* some
/// occurrence of the prefix within the same sequence. For each sequence
/// we keep, per position of `item`, one entry when any prefix occurrence
/// precedes it; the earliest suffices because id-lists are position
/// sorted.
IdList temporal_join(const IdList& prefix, const IdList& item) {
  IdList out;
  std::size_t p = 0;
  std::size_t i = 0;
  while (p < prefix.size() && i < item.size()) {
    if (prefix[p].sequence < item[i].sequence) {
      ++p;
      continue;
    }
    if (item[i].sequence < prefix[p].sequence) {
      ++i;
      continue;
    }
    // Same sequence: prefix[p] is the earliest remaining prefix
    // occurrence; emit every later item occurrence in this sequence.
    const std::uint32_t sequence = prefix[p].sequence;
    const std::uint32_t earliest = prefix[p].position;
    while (i < item.size() && item[i].sequence == sequence) {
      if (item[i].position > earliest) out.push_back(item[i]);
      ++i;
    }
    while (p < prefix.size() && prefix[p].sequence == sequence) ++p;
  }
  return out;
}

void grow(const std::vector<Item>& prefix, const IdList& prefix_list,
          const std::vector<std::pair<Item, const IdList*>>& frequent_items,
          std::size_t min_count, std::size_t db_size, const MiningOptions& options,
          std::vector<Pattern>& results, MiningStats& stats) {
  if (prefix.size() >= options.max_pattern_length) return;
  if (stats.truncated) return;
  ++stats.explored;
  for (const auto& [item, item_list] : frequent_items) {
    IdList joined = temporal_join(prefix_list, *item_list);
    const std::size_t count = support_of(joined);
    if (count < min_count) continue;
    if (results.size() >= options.max_patterns) {
      stats.truncated = true;
      return;
    }
    std::vector<Item> extended = prefix;
    extended.push_back(item);
    Pattern pattern;
    pattern.items = extended;
    pattern.support_count = count;
    pattern.support = static_cast<double>(count) / static_cast<double>(db_size);
    results.push_back(std::move(pattern));
    grow(extended, joined, frequent_items, min_count, db_size, options, results, stats);
  }
}

}  // namespace

std::vector<Pattern> spade(const SequenceDb& db, const MiningOptions& options,
                           MiningStats* stats) {
  MiningStats local;
  if (db.empty()) {
    if (stats != nullptr) *stats = local;
    return {};
  }
  const std::size_t min_count = mining::min_count(options.min_support, db.size());

  // Vertical format: id-lists per item.
  std::map<Item, IdList> id_lists;
  for (std::uint32_t s = 0; s < db.size(); ++s) {
    for (std::uint32_t p = 0; p < db[s].size(); ++p)
      id_lists[db[s][p]].push_back({s, p});
  }

  std::vector<Pattern> results;
  std::vector<std::pair<Item, const IdList*>> frequent_items;
  for (const auto& [item, list] : id_lists) {
    if (support_of(list) >= min_count) frequent_items.push_back({item, &list});
  }
  // std::map iterates ascending, so frequent_items is already in the
  // deterministic item order the other miners use.

  local.explored = 1;  // the root (empty-prefix) expansion
  for (const auto& [item, list] : frequent_items) {
    if (results.size() >= options.max_patterns) {
      local.truncated = true;
      break;
    }
    Pattern pattern;
    pattern.items = {item};
    pattern.support_count = support_of(*list);
    pattern.support =
        static_cast<double>(pattern.support_count) / static_cast<double>(db.size());
    results.push_back(pattern);
    grow({item}, *list, frequent_items, min_count, db.size(), options, results, local);
  }
  sort_patterns(results);
  local.emitted = results.size();
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace crowdweb::mining
