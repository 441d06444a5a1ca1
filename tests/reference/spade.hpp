// SPADE — Sequential PAttern Discovery using Equivalence classes
// (Zaki, Machine Learning 2001), single-item-element variant.
//
// Works in the *vertical* format: every item carries an id-list of
// (sequence, position) occurrences; a pattern's id-list is computed by a
// temporal join of its prefix's id-list with the extending item's, and
// support falls out as the number of distinct sequences in the list.
// Completes the classic miner trio next to PrefixSpan (projection-based)
// and GSP (candidate generation); all three are output-equivalent, which
// the property tests enforce. A test-only reference, like GSP and naive.
#pragma once

#include <vector>

#include "mining/pattern.hpp"

namespace crowdweb::mining {

/// Mines the same pattern set as `prefixspan` (identical output order).
/// `stats` (optional) receives emitted/explored counts and the
/// max_patterns truncation flag.
[[nodiscard]] std::vector<Pattern> spade(const SequenceDb& db,
                                         const MiningOptions& options = {},
                                         MiningStats* stats = nullptr);

}  // namespace crowdweb::mining
