// GSP — Generalized Sequential Patterns (Srikant & Agrawal, 1996).
//
// The classic breadth-first baseline CrowdWeb's PrefixSpan is compared
// against: level k+1 candidates are generated by joining frequent level-k
// patterns, pruned by the Apriori property, and counted with a full
// database scan per level. Kept deliberately faithful (including the scan
// cost) so the miner-ablation bench shows the textbook gap. A test-only
// reference: the production pipeline mines with PrefixSpan.
#pragma once

#include <vector>

#include "mining/pattern.hpp"

namespace crowdweb::mining {

/// Mines the same pattern set as `prefixspan` (identical output order).
/// `stats` (optional) receives emitted/explored counts and the
/// max_patterns truncation flag.
[[nodiscard]] std::vector<Pattern> gsp(const SequenceDb& db, const MiningOptions& options = {},
                                       MiningStats* stats = nullptr);

}  // namespace crowdweb::mining
