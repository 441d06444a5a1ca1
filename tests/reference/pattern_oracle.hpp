// Brute-force support oracle the miner tests check against: support by
// a full database scan. The production miner never calls it; the
// reference miners GSP and naive DFS count support with count_support.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mining/pattern.hpp"

namespace crowdweb::mining {

/// Number of sequences in `db` containing `pattern` (each counts once).
[[nodiscard]] std::size_t count_support(std::span<const Item> pattern, const SequenceDb& db);

}  // namespace crowdweb::mining
