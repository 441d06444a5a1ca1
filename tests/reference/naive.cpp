#include "reference/naive.hpp"

#include <algorithm>
#include <unordered_map>

#include "reference/pattern_oracle.hpp"

namespace crowdweb::mining {

namespace {

void extend(const SequenceDb& db, const std::vector<Item>& alphabet, std::size_t min_count,
            const MiningOptions& options, std::vector<Item>& prefix,
            std::vector<Pattern>& results, MiningStats& stats) {
  if (prefix.size() >= options.max_pattern_length) return;
  if (stats.truncated) return;
  ++stats.explored;
  for (const Item item : alphabet) {
    prefix.push_back(item);
    const std::size_t count = count_support(prefix, db);
    if (count >= min_count) {
      if (results.size() >= options.max_patterns) {
        stats.truncated = true;
        prefix.pop_back();
        return;
      }
      Pattern p;
      p.items = prefix;
      p.support_count = count;
      p.support = static_cast<double>(count) / static_cast<double>(db.size());
      results.push_back(std::move(p));
      extend(db, alphabet, min_count, options, prefix, results, stats);
    }
    prefix.pop_back();
  }
}

}  // namespace

std::vector<Pattern> naive_miner(const SequenceDb& db, const MiningOptions& options,
                                 MiningStats* stats) {
  MiningStats local;
  if (db.empty()) {
    if (stats != nullptr) *stats = local;
    return {};
  }
  const std::size_t min_count = mining::min_count(options.min_support, db.size());

  // Alphabet: the globally frequent items (anything else cannot appear in
  // a frequent pattern).
  std::unordered_map<Item, std::size_t> counts;
  for (const auto& sequence : db) {
    std::vector<Item> seen;
    for (const Item item : sequence) {
      if (std::find(seen.begin(), seen.end(), item) == seen.end()) {
        seen.push_back(item);
        ++counts[item];
      }
    }
  }
  std::vector<Item> alphabet;
  for (const auto& [item, count] : counts) {
    if (count >= min_count) alphabet.push_back(item);
  }
  std::sort(alphabet.begin(), alphabet.end());

  std::vector<Pattern> results;
  std::vector<Item> prefix;
  extend(db, alphabet, min_count, options, prefix, results, local);
  sort_patterns(results);
  local.emitted = results.size();
  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace crowdweb::mining
