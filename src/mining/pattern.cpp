#include "mining/pattern.hpp"

#include <algorithm>

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

}  // namespace crowdweb::mining
