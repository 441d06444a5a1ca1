// Miner registry: the two sequential-pattern miners production runs,
// behind one name-keyed interface.
//
// The pipeline (patterns::mine_user_mobility, the ingest worker, the
// shard workers, the /api/analyze handler) picks its miner by the string
// in MiningOptions::algorithm instead of hard-wiring a call, so swapping
// PrefixSpan for BIDE is a config change, not a rebuild. Each miner has
// one serving mode: PrefixSpan serves the full frequent set, and BIDE,
// a closed-output miner, serves its closed set compactly (the pattern
// layer answers full-set questions from it by subsumption and
// expansion). Both take weighted columns, so every caller mines a
// user's distinct day shapes, not each day. The classic reference miners
// the tests check these two against (GSP, SPADE, naive) live in
// tests/reference/, not here.
#pragma once

#include <string_view>
#include <vector>

#include "mining/pattern.hpp"
#include "util/status.hpp"

namespace crowdweb::mining {

/// Patterns plus the bookkeeping of the mine that produced them.
struct MiningResult {
  std::vector<Pattern> patterns;
  MiningStats stats;
};

/// One registered mining algorithm. Implementations are stateless
/// singletons owned by the registry; mine() is const and safe to call
/// from many threads at once.
class IMiningAlgorithm {
 public:
  virtual ~IMiningAlgorithm() = default;

  /// Registry key, e.g. "prefixspan" or "bide".
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True when mine() returns only closed patterns (a subset of the
  /// frequent set; expand with expand_closed_patterns to recover it).
  /// Downstream layers that need any subsequence's support then answer
  /// it by subsumption (see subsumed_support_count) instead of assuming
  /// the full frequent set is materialized.
  [[nodiscard]] virtual bool closed_output() const noexcept = 0;

  /// Mines `db` under `options`; `options.algorithm` is ignored here —
  /// the caller already chose by resolving this object. `db.weights`
  /// are multiplicities: sequence s counts as db.weight(s) identical
  /// sequences, so the distinct day shapes of UserSequences::columns()
  /// mine to exactly the result of the per-day database (patterns,
  /// supports, stats and truncation point alike).
  [[nodiscard]] virtual MiningResult mine(const SequenceColumns& db,
                                          const MiningOptions& options) const = 0;
};

/// The algorithm registered under `name`, or nullptr when unknown.
[[nodiscard]] const IMiningAlgorithm* find_miner(std::string_view name) noexcept;

/// Like find_miner, but an unknown name becomes an invalid_argument
/// Status listing the registered names.
[[nodiscard]] Result<const IMiningAlgorithm*> resolve_miner(std::string_view name);

/// Registered names in registration order: "prefixspan", then "bide".
[[nodiscard]] std::vector<std::string_view> miner_names();

/// The miner the pipeline runs for `name`: the one registered under it,
/// or PrefixSpan when the name is unknown. A closed-output miner's
/// result stays compact; expand_closed_patterns recovers the full
/// frequent set where a caller needs it. Validate the name up front
/// (see resolve_miner) where an error can still be reported.
[[nodiscard]] const IMiningAlgorithm& miner_for(std::string_view name) noexcept;

}  // namespace crowdweb::mining
