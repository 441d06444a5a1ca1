#include "reference/pattern_oracle.hpp"

#include <cstddef>

namespace crowdweb::mining {

std::size_t count_support(std::span<const Item> pattern, const SequenceDb& db) {
  std::size_t count = 0;
  for (const auto& sequence : db) {
    if (is_subsequence(pattern, sequence)) ++count;
  }
  return count;
}

}  // namespace crowdweb::mining
