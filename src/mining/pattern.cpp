#include "mining/pattern.hpp"

#include <algorithm>
#include <unordered_map>

namespace crowdweb::mining {

bool is_subsequence(std::span<const Item> needle, std::span<const Item> haystack) noexcept {
  std::size_t n = 0;
  for (const Item item : haystack) {
    if (n == needle.size()) return true;
    if (item == needle[n]) ++n;
  }
  return n == needle.size();
}

std::size_t SequenceColumns::total_weight() const noexcept {
  if (weights.empty()) return size();
  std::size_t total = 0;
  for (const std::uint32_t weight : weights) total += weight;
  return total;
}

void sort_patterns(std::vector<Pattern>& patterns) {
  std::sort(patterns.begin(), patterns.end(), [](const Pattern& a, const Pattern& b) {
    if (a.items.size() != b.items.size()) return a.items.size() < b.items.size();
    return a.items < b.items;
  });
}

namespace {

/// Hash for item vectors (FNV-1a over the raw items).
struct ItemsHash {
  std::size_t operator()(const std::vector<Item>& items) const noexcept {
    std::size_t hash = 1469598103934665603ull;
    for (const Item item : items) {
      hash ^= item;
      hash *= 1099511628211ull;
    }
    return hash;
  }
};

}  // namespace

std::vector<Pattern> expand_closed_patterns(std::span<const Pattern> closed,
                                            std::size_t db_size,
                                            const MiningOptions& options,
                                            MiningStats* stats) {
  // support(s) = max over closed q >= s of support(q): enumerating every
  // subsequence of every closed pattern and keeping the max per distinct
  // item vector computes exactly that, with no database scans at all —
  // the reason closed mining plus expansion can undercut a full miner
  // even when the caller wants the full set back.
  std::unordered_map<std::vector<Item>, std::size_t, ItemsHash> best;
  bool truncated = false;
  std::vector<Item> scratch;
  for (const Pattern& pattern : closed) {
    scratch.clear();
    // Include/exclude DFS over positions; duplicates (the same
    // subsequence reachable through different position sets) collapse in
    // the map.
    const auto enumerate = [&](auto&& self, std::size_t position) -> void {
      if (position == pattern.items.size()) {
        if (scratch.empty() || scratch.size() > options.max_pattern_length) return;
        const auto it = best.find(scratch);
        if (it != best.end()) {
          it->second = std::max(it->second, pattern.support_count);
        } else if (best.size() < options.max_patterns) {
          best.emplace(scratch, pattern.support_count);
        } else {
          truncated = true;  // cap: supports of admitted patterns stay exact
        }
        return;
      }
      scratch.push_back(pattern.items[position]);
      self(self, position + 1);
      scratch.pop_back();
      self(self, position + 1);
    };
    enumerate(enumerate, 0);
  }
  std::vector<Pattern> out;
  out.reserve(best.size());
  for (auto& [items, support_count] : best) {
    Pattern pattern;
    pattern.items = items;
    pattern.support_count = support_count;
    pattern.support = db_size == 0
                          ? 0.0
                          : static_cast<double>(support_count) / static_cast<double>(db_size);
    out.push_back(std::move(pattern));
  }
  sort_patterns(out);
  if (stats != nullptr) {
    stats->expanded = out.size();
    stats->truncated = stats->truncated || truncated;
  }
  return out;
}

std::size_t subsumed_support_count(std::span<const Item> items,
                                   std::span<const Pattern> closed) noexcept {
  std::size_t best = 0;
  for (const Pattern& pattern : closed) {
    if (pattern.support_count <= best) continue;  // cannot improve the max
    if (pattern.items.size() < items.size()) continue;
    if (is_subsequence(items, pattern.items)) best = pattern.support_count;
  }
  return best;
}

}  // namespace crowdweb::mining
