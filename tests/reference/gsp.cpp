#include "reference/gsp.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "reference/pattern_oracle.hpp"

namespace crowdweb::mining {

namespace {

std::vector<std::vector<Item>> join_level(const std::vector<std::vector<Item>>& frequent) {
  // GSP join: p and q of length k join into length k+1 when p minus its
  // first item equals q minus its last item.
  std::vector<std::vector<Item>> candidates;
  for (const auto& p : frequent) {
    for (const auto& q : frequent) {
      const bool joins =
          std::equal(p.begin() + 1, p.end(), q.begin(), q.end() - 1);
      if (!joins) continue;
      std::vector<Item> candidate(p);
      candidate.push_back(q.back());
      candidates.push_back(std::move(candidate));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  return candidates;
}

bool all_subpatterns_frequent(const std::vector<Item>& candidate,
                              const std::set<std::vector<Item>>& frequent) {
  // Apriori prune: every contiguous-deletion subpattern must be frequent.
  std::vector<Item> sub;
  sub.reserve(candidate.size() - 1);
  for (std::size_t drop = 0; drop < candidate.size(); ++drop) {
    sub.clear();
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      if (i != drop) sub.push_back(candidate[i]);
    }
    if (!frequent.contains(sub)) return false;
  }
  return true;
}

}  // namespace

std::vector<Pattern> gsp(const SequenceDb& db, const MiningOptions& options,
                         MiningStats* stats) {
  MiningStats local;
  if (db.empty()) {
    if (stats != nullptr) *stats = local;
    return {};
  }
  const std::size_t min_count = mining::min_count(options.min_support, db.size());

  std::vector<Pattern> results;

  // Level 1: scan for frequent items.
  std::unordered_map<Item, std::size_t> item_counts;
  for (const auto& sequence : db) {
    std::vector<Item> seen;
    for (const Item item : sequence) {
      if (std::find(seen.begin(), seen.end(), item) == seen.end()) {
        seen.push_back(item);
        ++item_counts[item];
      }
    }
  }
  std::vector<std::vector<Item>> level;
  for (const auto& [item, count] : item_counts) {
    local.explored += 1;
    if (count >= min_count) level.push_back({item});
  }
  std::sort(level.begin(), level.end());

  std::set<std::vector<Item>> frequent_set;
  const auto emit_level = [&](const std::vector<std::vector<Item>>& patterns) {
    for (const auto& items : patterns) {
      if (results.size() >= options.max_patterns) {
        local.truncated = true;
        return;
      }
      Pattern p;
      p.items = items;
      p.support_count = count_support(items, db);
      p.support = static_cast<double>(p.support_count) / static_cast<double>(db.size());
      results.push_back(std::move(p));
    }
  };
  emit_level(level);

  std::size_t length = 1;
  while (!level.empty() && length < options.max_pattern_length && !local.truncated) {
    frequent_set.clear();
    frequent_set.insert(level.begin(), level.end());

    std::vector<std::vector<Item>> candidates = join_level(level);
    std::vector<std::vector<Item>> next;
    for (auto& candidate : candidates) {
      // Apriori: cut before the counting scan.
      if (!all_subpatterns_frequent(candidate, frequent_set)) continue;
      ++local.explored;
      if (count_support(candidate, db) >= min_count) next.push_back(std::move(candidate));
    }
    emit_level(next);
    level = std::move(next);
    ++length;
  }

  sort_patterns(results);
  local.emitted = results.size();
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace crowdweb::mining
