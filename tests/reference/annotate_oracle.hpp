// Day-by-day pattern annotation: the oracle the shape-sum annotation in
// patterns::annotate_pattern is checked against. It walks every recorded
// day, finds the pattern's greedy first embedding and accumulates that
// day's minutes, which is what annotate_pattern computes from the
// per-shape minute sums without visiting duplicate days. Beside it, the
// bit-level entry comparison the counted re-mining oracles use.
#pragma once

#include <string>

#include "mining/pattern.hpp"
#include "mining/seqdb.hpp"
#include "patterns/mobility.hpp"

namespace crowdweb::patterns {

/// annotate_pattern computed day by day over sequences.day(d) and
/// sequences.minutes_of(d); the shape index is not read.
[[nodiscard]] MobilityPattern annotate_pattern_per_day(const mining::Pattern& pattern,
                                                       const mining::UserSequences& sequences);

/// The first difference between two mined entries, "" when they agree:
/// every field, doubles by their bits, except mining_stats.explored
/// (0 for an entry served from kept counts).
[[nodiscard]] std::string entry_difference(const UserMobility& actual,
                                           const UserMobility& expected);

}  // namespace crowdweb::patterns
