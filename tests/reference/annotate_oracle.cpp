#include "reference/annotate_oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

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

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::string entry_difference(const UserMobility& actual, const UserMobility& expected) {
  const auto differs = [](const std::string& what, auto a, auto b) {
    return what + ": " + std::to_string(a) + " vs " + std::to_string(b);
  };
  if (actual.user != expected.user) return differs("user", actual.user, expected.user);
  if (actual.recorded_days != expected.recorded_days)
    return differs("recorded_days", actual.recorded_days, expected.recorded_days);
  if (actual.mining_stats.emitted != expected.mining_stats.emitted)
    return differs("emitted", actual.mining_stats.emitted, expected.mining_stats.emitted);
  if (actual.mining_stats.truncated != expected.mining_stats.truncated)
    return differs("truncated", actual.mining_stats.truncated, expected.mining_stats.truncated);
  if (actual.patterns.size() != expected.patterns.size())
    return differs("patterns", actual.patterns.size(), expected.patterns.size());
  for (std::size_t k = 0; k < actual.patterns.size(); ++k) {
    const MobilityPattern& a = actual.patterns[k];
    const MobilityPattern& b = expected.patterns[k];
    const std::string at = "pattern " + std::to_string(k) + " ";
    if (a.support_count != b.support_count)
      return differs(at + "support_count", a.support_count, b.support_count);
    if (!same_bits(a.support, b.support)) return differs(at + "support", a.support, b.support);
    if (a.elements.size() != b.elements.size())
      return differs(at + "length", a.elements.size(), b.elements.size());
    for (std::size_t p = 0; p < a.elements.size(); ++p) {
      const TimedElement& x = a.elements[p];
      const TimedElement& y = b.elements[p];
      const std::string element = at + "element " + std::to_string(p) + " ";
      if (x.label != y.label) return differs(element + "label", x.label, y.label);
      if (!same_bits(x.mean_minute, y.mean_minute))
        return differs(element + "mean", x.mean_minute, y.mean_minute);
      if (!same_bits(x.stddev_minute, y.stddev_minute))
        return differs(element + "stddev", x.stddev_minute, y.stddev_minute);
    }
  }
  return "";
}

}  // namespace crowdweb::patterns
