// PrefixSpan sequential-pattern mining (Pei et al., TKDE 2004).
//
// Depth-first pattern growth over pseudo-projected databases: for a
// current prefix, the projection holds (sequence, offset) pairs pointing
// at the suffix after the prefix's first embedding. Extending by item `x`
// keeps only sequences whose suffix contains `x` and advances the offset —
// no sequence data is ever copied, which is the algorithm's contribution
// over Apriori/GSP-style candidate generation.
//
// The miner walks the columnar SequenceColumns view (one contiguous
// item array + offsets), so projections index straight into a flat
// buffer; the nested SequenceDb overload flattens once and delegates.
// A projected sequence adds its weight (SequenceColumns::weights) to
// every item it contains, so mining a user's distinct day shapes
// weighted by their day counts walks each repeated day once and returns
// exactly the per-day patterns, supports and stats.
//
// This is the miner behind the paper's "modified PrefixSpan" (the
// modifications — location abstraction, per-day sequences, relative
// support, time annotation — live in `seqdb` and `patterns`).
#pragma once

#include <vector>

#include "mining/pattern.hpp"

namespace crowdweb::mining {

/// Mines all frequent sequential patterns of `db` at `options.min_support`
/// (relative to db.total_weight(): at least min_count(min_support,
/// total weight) weighted sequences). Results are in canonical order (see
/// sort_patterns). When
/// `stats` is non-null it receives emitted/explored counts and the
/// truncated flag (max_patterns suppressed an emission).
[[nodiscard]] std::vector<Pattern> prefixspan(const SequenceColumns& db,
                                              const MiningOptions& options = {},
                                              MiningStats* stats = nullptr);

/// The same mine at an absolute weighted count instead of
/// options.min_support: every pattern whose support_count is at least
/// `min_count` (1 when 0). Supports stay relative to db.total_weight().
/// The kept pattern set of a HistoryIndex is mined below the serving
/// threshold through it.
[[nodiscard]] std::vector<Pattern> prefixspan(const SequenceColumns& db,
                                              std::size_t min_count,
                                              const MiningOptions& options,
                                              MiningStats* stats = nullptr);

/// Nested-vector convenience overload: flattens `db` and delegates.
[[nodiscard]] std::vector<Pattern> prefixspan(const SequenceDb& db,
                                              const MiningOptions& options = {},
                                              MiningStats* stats = nullptr);

}  // namespace crowdweb::mining
