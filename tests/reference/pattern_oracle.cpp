#include "reference/pattern_oracle.hpp"

#include <cstddef>
#include <map>

namespace crowdweb::mining {

std::size_t count_support(std::span<const Item> pattern, const SequenceDb& db) {
  std::size_t count = 0;
  for (const auto& sequence : db) {
    if (is_subsequence(pattern, sequence)) ++count;
  }
  return count;
}

namespace {

/// Candidate indices bucketed by pattern length, ascending. A subsuming
/// super-pattern is strictly longer than its victim, so each candidate
/// only scans the buckets above its own length — typically a thin tail,
/// which keeps the post-filters usable at corpus scale.
std::map<std::size_t, std::vector<std::size_t>> bucket_by_length(
    const std::vector<Pattern>& patterns) {
  std::map<std::size_t, std::vector<std::size_t>> buckets;
  for (std::size_t i = 0; i < patterns.size(); ++i)
    buckets[patterns[i].items.size()].push_back(i);
  return buckets;
}

}  // namespace

std::vector<Pattern> closed_patterns(std::vector<Pattern> patterns) {
  const auto buckets = bucket_by_length(patterns);
  std::vector<Pattern> out;
  for (const Pattern& candidate : patterns) {
    bool subsumed = false;
    for (auto it = buckets.upper_bound(candidate.items.size());
         it != buckets.end() && !subsumed; ++it) {
      for (const std::size_t other_index : it->second) {
        const Pattern& other = patterns[other_index];
        // Equal support first: it rejects most pairs without touching
        // the items at all (closure only cares about support-preserving
        // super-patterns).
        if (other.support_count != candidate.support_count) continue;
        if (is_subsequence(candidate.items, other.items)) {
          subsumed = true;
          break;
        }
      }
    }
    if (!subsumed) out.push_back(candidate);
  }
  return out;
}

std::vector<Pattern> maximal_patterns(std::vector<Pattern> patterns) {
  const auto buckets = bucket_by_length(patterns);
  std::vector<Pattern> out;
  for (const Pattern& candidate : patterns) {
    bool subsumed = false;
    for (auto it = buckets.upper_bound(candidate.items.size());
         it != buckets.end() && !subsumed; ++it) {
      for (const std::size_t other_index : it->second) {
        if (is_subsequence(candidate.items, patterns[other_index].items)) {
          subsumed = true;
          break;
        }
      }
    }
    if (!subsumed) out.push_back(candidate);
  }
  return out;
}

}  // namespace crowdweb::mining
