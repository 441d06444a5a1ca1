// Naive DFS sequence miner.
//
// The simplest correct miner: extend each frequent pattern by every
// frequent item and recount support with a full database scan. Sound and
// complete by the anti-monotonicity of subsequence support, but pays a
// whole-DB scan per candidate — the lower baseline of the miner-ablation
// bench and the ground truth for the property tests. Test-only.
#pragma once

#include <vector>

#include "mining/pattern.hpp"

namespace crowdweb::mining {

/// Mines the same pattern set as `prefixspan` (identical output order).
/// `stats` (optional) receives emitted/explored counts and the
/// max_patterns truncation flag.
[[nodiscard]] std::vector<Pattern> naive_miner(const SequenceDb& db,
                                               const MiningOptions& options = {},
                                               MiningStats* stats = nullptr);

}  // namespace crowdweb::mining
