// BIDE — BI-Directional Extension closed-pattern mining
// (Wang & Han, ICDE 2004), single-item-element variant.
//
// Mines exactly the *closed* frequent patterns — those with no
// super-pattern of equal support — without keeping the full frequent set
// around for a post-filter. A PrefixSpan-style projection tree is walked
// forward; at every node a backward scan over the supporting sequences'
// maximum periods decides closure (no backward extension item and no
// forward extension item with the same support), and the BackScan check
// over semi-maximum periods prunes whole subtrees that can only produce
// non-closed patterns. On the paper's mobility corpora the closed set is
// several times smaller than the frequent set at the same support, which
// is the point: smaller tables, faster epochs.
//
// Weighted databases (SequenceColumns::weights) count weight wherever
// BIDE counts support: the min_count threshold, extension counts, the
// forward-extension test and the emitted support. The BackScan and
// backward-extension tests ask whether an item lies in a period of
// *every* supporting sequence, which copies of one sequence answer
// alike, so those stay per distinct sequence. A weighted run therefore
// emits exactly what the expanded database would, with the same
// explored/pruned counts and truncation point.
#pragma once

#include <vector>

#include "mining/pattern.hpp"

namespace crowdweb::mining {

/// Mines the closed subset of the patterns `prefixspan` would emit, in
/// the same canonical order. `stats` (optional) receives
/// emitted/explored counts, BackScan-pruned subtrees, and the
/// max_patterns truncation flag.
///
/// Caveat: at max_pattern_length the node is emitted whether or not it
/// is closed, so that expand_closed_patterns() can still reconstruct the
/// capped frequent set. A pattern whose only equal-support super-pattern
/// lies beyond the cap is therefore reported as closed; irrelevant for
/// day-sequences (far shorter than the default cap of 12), but worth
/// knowing when lowering the cap.
[[nodiscard]] std::vector<Pattern> bide(const SequenceColumns& db,
                                        const MiningOptions& options = {},
                                        MiningStats* stats = nullptr);

/// Convenience overload that flattens `db` into columns first.
[[nodiscard]] std::vector<Pattern> bide(const SequenceDb& db, const MiningOptions& options = {},
                                        MiningStats* stats = nullptr);

}  // namespace crowdweb::mining
