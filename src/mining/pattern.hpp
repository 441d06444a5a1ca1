// Sequential-pattern vocabulary shared by the miners.
//
// A *sequence* is one day of a user's visits, reduced to labels (items).
// A *pattern* is a subsequence that occurs in at least `min_support`
// fraction of the user's day-sequences (relative support, as the paper
// sweeps it from 0.25 to 0.75). The production miner (PrefixSpan) and
// the test-only reference miners emit the same `Pattern` type so tests
// can cross-check them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace crowdweb::mining {

/// A mined label. Wide enough for venue ids in raw-venue mode.
using Item = std::uint32_t;

/// One sequence database: items[d] is day d's time-ordered label sequence.
using SequenceDb = std::vector<std::vector<Item>>;

/// Columnar (structure-of-arrays) view of a sequence database: every
/// sequence's items live in one contiguous array, and sequence `s`
/// spans items[offsets[s], offsets[s+1]). `offsets` holds size()+1
/// entries (or none for an empty database). The miners walk this view
/// directly; UserSequences::columns() produces one with no copying.
///
/// `weights` is the multiplicity column: sequence `s` stands for
/// weights[s] identical sequences of the database. Empty means every
/// sequence weighs 1. Supports, min_support thresholds and the
/// support fraction's denominator all count weight, so a database of
/// distinct sequences weighted by their multiplicities mines to exactly
/// the patterns, supports and stats of the expanded database.
struct SequenceColumns {
  std::span<const Item> items;
  std::span<const std::uint32_t> offsets;
  std::span<const std::uint32_t> weights = {};

  [[nodiscard]] std::size_t size() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Sequence `s` as a contiguous span (no bounds check).
  [[nodiscard]] std::span<const Item> sequence(std::size_t s) const noexcept {
    return items.subspan(offsets[s], offsets[s + 1] - offsets[s]);
  }
  /// How many database sequences sequence `s` stands for.
  [[nodiscard]] std::size_t weight(std::size_t s) const noexcept {
    return weights.empty() ? 1 : weights[s];
  }
  /// Sum of all weights: the size of the database this view expands to.
  [[nodiscard]] std::size_t total_weight() const noexcept;
};

/// A frequent sequential pattern.
struct Pattern {
  std::vector<Item> items;
  std::size_t support_count = 0;  ///< sequences containing the pattern (by weight)
  double support = 0.0;           ///< support_count / total weight of the db

  friend bool operator==(const Pattern&, const Pattern&) = default;
};

/// A pattern's relative support: its weighted count over the database's
/// total weight. The miner and the kept pattern counts both take it
/// from here, so their supports agree bit for bit.
[[nodiscard]] inline double relative_support(std::size_t count, std::size_t total) noexcept {
  return static_cast<double>(count) / static_cast<double>(total);
}

/// True when `needle` is a (not necessarily contiguous) subsequence of
/// `haystack`.
[[nodiscard]] bool is_subsequence(std::span<const Item> needle,
                                  std::span<const Item> haystack) noexcept;

/// The weighted count a pattern needs to be frequent: the smallest
/// integer c >= support x weight, where `support` is read as the
/// shortest decimal that rounds to it (what a user wrote: 0.55 is 55/100,
/// not the binary double just above it), so min_count(0.55, 100) is 55.
/// Never below 1; every miner and oracle thresholds through it.
[[nodiscard]] std::size_t min_count(double support, std::size_t weight) noexcept;

/// Canonical order: by length, then lexicographically by items. Makes
/// miner outputs directly comparable.
void sort_patterns(std::vector<Pattern>& patterns);

/// What one mine call did, beyond the patterns it returned. Every miner
/// fills one of these through its optional out-param, so callers can
/// tell a complete result from a capped one instead of silently losing
/// patterns.
struct MiningStats {
  std::size_t emitted = 0;   ///< patterns the miner itself returned
  std::size_t explored = 0;  ///< search nodes / candidates support-counted
  /// True when the max_patterns cap suppressed at least one emission —
  /// the returned set is incomplete.
  bool truncated = false;

  /// Accumulates another mine's stats (counts add, truncated ORs).
  void merge(const MiningStats& other) noexcept {
    emitted += other.emitted;
    explored += other.explored;
    truncated = truncated || other.truncated;
  }

  friend bool operator==(const MiningStats&, const MiningStats&) = default;
};

/// Shared mining parameters.
struct MiningOptions {
  /// Relative minimum support in (0, 1]: fraction of day-sequences that
  /// must contain a pattern.
  double min_support = 0.5;
  /// Longest pattern to emit.
  std::size_t max_pattern_length = 12;
  /// Hard cap on emitted patterns (safety valve for tiny supports).
  std::size_t max_patterns = 200'000;
};

}  // namespace crowdweb::mining
