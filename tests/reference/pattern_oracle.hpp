// Brute-force pattern oracles the miner tests check against: support by
// a full database scan, and the closed / maximal post-filters over a
// full frequent set. The production miner never calls these; the
// reference miners GSP and naive DFS count support with count_support.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mining/pattern.hpp"

namespace crowdweb::mining {

/// Number of sequences in `db` containing `pattern` (each counts once).
[[nodiscard]] std::size_t count_support(std::span<const Item> pattern, const SequenceDb& db);

/// Keeps only *closed* patterns: those with no super-pattern of equal
/// support in `patterns`. Candidates are bucketed by length (and, within
/// a length, only equal-support candidates are swept), so the filter
/// stays usable on large pattern sets.
[[nodiscard]] std::vector<Pattern> closed_patterns(std::vector<Pattern> patterns);

/// Keeps only *maximal* patterns: those with no frequent super-pattern in
/// `patterns` at all. Bucketed by length like closed_patterns.
[[nodiscard]] std::vector<Pattern> maximal_patterns(std::vector<Pattern> patterns);

}  // namespace crowdweb::mining
