#include "mining/prefixspan.hpp"

#include <algorithm>
#include <unordered_map>

namespace crowdweb::mining {

namespace {

/// One entry of a pseudo-projected database: the suffix of sequence
/// `sequence` starting at element `offset` (an index local to the
/// sequence, not into the flat item array).
struct Projection {
  std::uint32_t sequence;
  std::uint32_t offset;
};

class Miner {
 public:
  Miner(const SequenceColumns& db, std::size_t min_count, const MiningOptions& options)
      : db_(db),
        options_(options),
        total_weight_(db.total_weight()),
        min_count_(std::max<std::size_t>(1, min_count)) {}

  std::vector<Pattern> run(MiningStats* stats) {
    // Root projection: every sequence from offset 0.
    std::vector<Projection> root;
    root.reserve(db_.size());
    for (std::uint32_t i = 0; i < db_.size(); ++i) root.push_back({i, 0});
    grow(root);
    sort_patterns(results_);
    if (stats != nullptr) {
      stats_.emitted = results_.size();
      *stats = stats_;
    }
    return std::move(results_);
  }

 private:
  /// Extends the current prefix by every frequent item of `projection`.
  void grow(const std::vector<Projection>& projection) {
    if (prefix_.size() >= options_.max_pattern_length) return;
    if (stats_.truncated) return;  // cap already hit; nothing more can be emitted

    // Count each item once per projected sequence, by that sequence's
    // weight, walking the flat item column directly.
    ++stats_.explored;
    counts_.clear();
    for (const Projection& p : projection) {
      const auto sequence = db_.sequence(p.sequence);
      const std::size_t weight = db_.weight(p.sequence);
      seen_.clear();
      for (std::size_t i = p.offset; i < sequence.size(); ++i) {
        const Item item = sequence[i];
        if (seen_.insert(item).second) counts_[item] += weight;
      }
    }

    // Deterministic order: ascending item id. Local because the recursive
    // grow() below reuses the shared scratch buffers.
    std::vector<std::pair<Item, std::size_t>> frequent;
    for (const auto& [item, count] : counts_) {
      if (count >= min_count_) frequent.push_back({item, count});
    }
    std::sort(frequent.begin(), frequent.end());

    for (const auto& [item, count] : frequent) {
      if (results_.size() >= options_.max_patterns) {
        // A frequent extension exists but the cap refuses it: the
        // returned set is incomplete, and callers deserve to know.
        stats_.truncated = true;
        return;
      }
      prefix_.push_back(item);
      Pattern pattern;
      pattern.items = prefix_;
      pattern.support_count = count;
      pattern.support = relative_support(count, total_weight_);
      results_.push_back(std::move(pattern));

      // Project: advance each sequence past its first occurrence of item.
      std::vector<Projection> next;
      next.reserve(std::min(count, projection.size()));
      for (const Projection& p : projection) {
        const auto sequence = db_.sequence(p.sequence);
        for (std::size_t i = p.offset; i < sequence.size(); ++i) {
          if (sequence[i] == item) {
            next.push_back({p.sequence, static_cast<std::uint32_t>(i + 1)});
            break;
          }
        }
      }
      grow(next);
      prefix_.pop_back();
    }
  }

  const SequenceColumns& db_;
  const MiningOptions& options_;
  std::size_t total_weight_ = 0;
  std::size_t min_count_ = 1;
  std::vector<Item> prefix_;
  std::vector<Pattern> results_;
  MiningStats stats_;
  // Scratch buffers reused across calls to avoid churn; only used before
  // the recursion point of grow().
  std::unordered_map<Item, std::size_t> counts_;
  struct SeenSet {
    std::vector<Item> items;
    void clear() { items.clear(); }
    std::pair<int, bool> insert(Item item) {
      if (std::find(items.begin(), items.end(), item) != items.end()) return {0, false};
      items.push_back(item);
      return {0, true};
    }
  } seen_;
};

}  // namespace

std::vector<Pattern> prefixspan(const SequenceColumns& db, const MiningOptions& options,
                                MiningStats* stats) {
  return prefixspan(db, min_count(options.min_support, db.total_weight()), options, stats);
}

std::vector<Pattern> prefixspan(const SequenceColumns& db, std::size_t min_count,
                                const MiningOptions& options, MiningStats* stats) {
  if (stats != nullptr) *stats = {};
  if (db.empty()) return {};
  return Miner(db, min_count, options).run(stats);
}

std::vector<Pattern> prefixspan(const SequenceDb& db, const MiningOptions& options,
                                MiningStats* stats) {
  // Flatten once; the miner only ever reads through the view.
  std::vector<Item> items;
  std::vector<std::uint32_t> offsets;
  offsets.reserve(db.size() + 1);
  std::size_t total = 0;
  for (const auto& sequence : db) total += sequence.size();
  items.reserve(total);
  offsets.push_back(0);
  for (const auto& sequence : db) {
    items.insert(items.end(), sequence.begin(), sequence.end());
    offsets.push_back(static_cast<std::uint32_t>(items.size()));
  }
  return prefixspan(SequenceColumns{items, offsets}, options, stats);
}

}  // namespace crowdweb::mining
