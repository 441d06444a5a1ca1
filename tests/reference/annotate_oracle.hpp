// Day-by-day pattern annotation: the oracle the shape-sum annotation in
// patterns::annotate_pattern is checked against. It walks every recorded
// day, finds the pattern's greedy first embedding and accumulates that
// day's minutes, which is what annotate_pattern computes from the
// per-shape minute sums without visiting duplicate days.
#pragma once

#include "mining/pattern.hpp"
#include "mining/seqdb.hpp"
#include "patterns/mobility.hpp"

namespace crowdweb::patterns {

/// annotate_pattern computed day by day over sequences.day(d) and
/// sequences.minutes_of(d); the shape index is not read.
[[nodiscard]] MobilityPattern annotate_pattern_per_day(const mining::Pattern& pattern,
                                                       const mining::UserSequences& sequences);

}  // namespace crowdweb::patterns
