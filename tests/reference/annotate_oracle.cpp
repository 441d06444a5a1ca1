#include "reference/annotate_oracle.hpp"

#include <algorithm>
#include <cmath>

namespace crowdweb::patterns {

MobilityPattern annotate_pattern_per_day(const mining::Pattern& pattern,
                                         const mining::UserSequences& sequences) {
  MobilityPattern out;
  out.support_count = pattern.support_count;
  out.support = pattern.support;
  out.elements.reserve(pattern.items.size());
  for (const mining::Item item : pattern.items) out.elements.push_back({item, 0.0, 0.0});

  std::vector<double> sum(pattern.items.size(), 0.0);
  std::vector<double> sum_sq(pattern.items.size(), 0.0);
  std::vector<int> embedding(pattern.items.size(), 0);
  std::size_t matched_days = 0;
  for (std::size_t d = 0; d < sequences.day_count(); ++d) {
    const auto day = sequences.day(d);
    const auto minutes = sequences.minutes_of(d);
    std::size_t position = 0;
    for (std::size_t i = 0; i < day.size() && position < pattern.items.size(); ++i) {
      if (day[i] == pattern.items[position]) {
        embedding[position] = minutes[i];
        ++position;
      }
    }
    if (position != pattern.items.size()) continue;  // day does not support it
    ++matched_days;
    for (std::size_t p = 0; p < embedding.size(); ++p) {
      sum[p] += embedding[p];
      sum_sq[p] += static_cast<double>(embedding[p]) * embedding[p];
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

}  // namespace crowdweb::patterns
