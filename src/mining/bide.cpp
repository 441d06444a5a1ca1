#include "mining/bide.hpp"

#include <algorithm>
#include <cmath>

namespace crowdweb::mining {

namespace {

/// One entry of a pseudo-projected database: the suffix of sequence
/// `sequence` starting at element `offset`, which is one past the end of
/// the prefix's first instance in that sequence.
struct Projection {
  std::uint32_t sequence;
  std::uint32_t offset;
};

class Miner {
 public:
  Miner(const SequenceColumns& db, const MiningOptions& options)
      : db_(db), options_(options), total_weight_(db.total_weight()) {
    min_count_ = static_cast<std::size_t>(
        std::ceil(options.min_support * static_cast<double>(total_weight_)));
    if (min_count_ == 0) min_count_ = 1;

    // Translate the database onto a dense local alphabet. Per-user
    // mobility databases use a handful of distinct labels out of a much
    // larger global id space; dense ids turn every count table below
    // into a flat stamped array — no hashing on the hot path. The remap
    // is order-preserving (sorted uniques), so growth order and the
    // final canonical sort are unaffected by the translation.
    alphabet_.assign(db.items.begin(), db.items.end());
    std::sort(alphabet_.begin(), alphabet_.end());
    alphabet_.erase(std::unique(alphabet_.begin(), alphabet_.end()), alphabet_.end());
    translated_.reserve(db.items.size());
    for (const Item item : db.items)
      translated_.push_back(static_cast<Item>(
          std::lower_bound(alphabet_.begin(), alphabet_.end(), item) - alphabet_.begin()));

    const std::size_t a = alphabet_.size();
    forward_count_.resize(a);
    forward_count_stamp_.assign(a, 0);
    forward_vote_stamp_.assign(a, 0);
    const std::size_t periods = std::min<std::size_t>(options.max_pattern_length,
                                                      a == 0 ? 0 : db.items.size());
    period_count_.resize(periods * a);
    period_count_stamp_.assign(periods * a, 0);
    period_vote_stamp_.assign(periods * a, 0);
    first_pos_.resize(a * db.size());
    first_pos_stamp_.assign(a * db.size(), 0);
  }

  std::vector<Pattern> run(MiningStats* stats) {
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
  /// Sequence `s` in dense-alphabet form.
  [[nodiscard]] std::span<const Item> sequence(std::size_t s) const noexcept {
    return std::span<const Item>(translated_)
        .subspan(db_.offsets[s], db_.offsets[s + 1] - db_.offsets[s]);
  }

  /// True when some item occurs in the i-th maximum period of *every*
  /// supporting sequence, for some i — i.e. the current prefix has a
  /// backward extension of equal support and cannot be closed. With
  /// `semi` the last-in-first appearances bound the periods instead of
  /// the last-in-last ones; that is the BackScan condition, and a hit
  /// means the whole subtree can be pruned.
  ///
  /// Positions per supporting sequence C for prefix P of length n:
  ///   f[i]  — first instance of P in C (greedy left-to-right scan);
  ///   last[n-1] — last occurrence of P[n-1] in C (or f[n-1] for semi);
  ///   last[i]   — last occurrence of P[i] before last[i+1];
  ///   i-th period — C[0, last[0]) for i == 0, else C[f[i-1]+1, last[i]).
  ///
  /// Counts live in a flat (period, item) array; a per-call stamp lazily
  /// resets counts and a per-sequence stamp makes each sequence vote at
  /// most once per (period, item). Votes are per distinct sequence, not
  /// by weight: copies of one sequence have the same periods, so "in
  /// every distinct sequence" and "in every weighted copy" agree.
  bool backward_item_exists(const std::vector<Projection>& supporting, bool semi) {
    const std::size_t n = prefix_.size();
    const std::size_t a = alphabet_.size();
    const std::size_t distinct = supporting.size();
    const std::uint64_t call = ++call_token_;
    std::vector<std::size_t>& f = first_instance_;
    std::vector<std::size_t>& last = last_appearance_;
    f.resize(n);
    last.resize(n);

    for (const Projection& p : supporting) {
      const auto seq = sequence(p.sequence);
      const std::uint64_t voter = ++sequence_token_;
      std::size_t pos = 0;
      for (std::size_t i = 0; i < n; ++i) {
        while (seq[pos] != prefix_[i]) ++pos;
        f[i] = pos++;
      }
      if (semi) {
        last[n - 1] = f[n - 1];
      } else {
        pos = seq.size();
        while (seq[--pos] != prefix_[n - 1]) {
        }
        last[n - 1] = pos;
      }
      for (std::size_t i = n - 1; i-- > 0;) {
        pos = last[i + 1];
        while (seq[--pos] != prefix_[i]) {
        }
        last[i] = pos;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t begin = (i == 0) ? 0 : f[i - 1] + 1;
        const std::size_t end = last[i];  // exclusive
        const std::size_t row = i * a;
        for (std::size_t j = begin; j < end; ++j) {
          const std::size_t idx = row + seq[j];
          if (period_vote_stamp_[idx] == voter) continue;
          period_vote_stamp_[idx] = voter;
          if (period_count_stamp_[idx] != call) {
            period_count_stamp_[idx] = call;
            period_count_[idx] = 0;
          }
          // The count can only reach `distinct` once every sequence
          // agrees on this (period, item).
          if (++period_count_[idx] == distinct) return true;
        }
      }
    }
    return false;
  }

  void emit(std::size_t support_count) {
    if (results_.size() >= options_.max_patterns) {
      stats_.truncated = true;
      return;
    }
    Pattern pattern;
    pattern.items.reserve(prefix_.size());
    for (const Item dense : prefix_) pattern.items.push_back(alphabet_[dense]);
    pattern.support_count = support_count;
    pattern.support = static_cast<double>(support_count) / static_cast<double>(total_weight_);
    results_.push_back(std::move(pattern));
  }

  void grow(const std::vector<Projection>& projection) {
    if (stats_.truncated) return;
    ++stats_.explored;
    std::size_t support = 0;
    for (const Projection& p : projection) support += db_.weight(p.sequence);

    // Count forward items, once per projected sequence and by its
    // weight (stamped flat counters, same scheme as the period table).
    // The first occurrence of each item in each suffix is recorded as it
    // is found, so projecting a frequent extension below is a table
    // lookup instead of a second scan over every suffix.
    const std::uint64_t call = ++call_token_;
    const std::size_t db_size = db_.size();
    for (std::size_t k = 0; k < projection.size(); ++k) {
      const Projection& p = projection[k];
      const auto seq = sequence(p.sequence);
      const std::size_t weight = db_.weight(p.sequence);
      const std::uint64_t voter = ++sequence_token_;
      for (std::size_t i = p.offset; i < seq.size(); ++i) {
        const Item item = seq[i];
        if (forward_vote_stamp_[item] == voter) continue;
        forward_vote_stamp_[item] = voter;
        if (forward_count_stamp_[item] != call) {
          forward_count_stamp_[item] = call;
          forward_count_[item] = 0;
        }
        forward_count_[item] += weight;
        const std::size_t slot = item * db_size + k;
        first_pos_[slot] = static_cast<std::uint32_t>(i);
        first_pos_stamp_[slot] = call;
      }
    }
    // Dense ids ascend with the original item values, so scanning the
    // alphabet in order recovers the canonical growth order for free.
    std::vector<std::pair<Item, std::size_t>> frequent;
    bool forward_extension = false;
    for (Item item = 0; item < alphabet_.size(); ++item) {
      if (forward_count_stamp_[item] != call) continue;
      const std::size_t count = forward_count_[item];
      if (count >= min_count_) frequent.push_back({item, count});
      if (count == support) forward_extension = true;
    }

    if (!prefix_.empty()) {
      const bool at_cap = prefix_.size() >= options_.max_pattern_length;
      // Closed iff no forward extension and no backward extension carry
      // the full support. At the length cap emit regardless, so the
      // capped frequent set stays reconstructible (header caveat).
      if (at_cap ||
          (!forward_extension && !backward_item_exists(projection, /*semi=*/false))) {
        emit(support);
      }
      if (at_cap) return;
    }

    // Project every frequent extension now, while the table written by
    // the counting pass is still valid — recursion below re-stamps it.
    // Each projection advances its sequences one past the item's first
    // occurrence in the suffix.
    std::vector<std::vector<Projection>> extensions;
    extensions.reserve(frequent.size());
    for (const auto& [item, count] : frequent) {
      std::vector<Projection> next;
      next.reserve(std::min(count, projection.size()));
      for (std::size_t k = 0; k < projection.size(); ++k) {
        const std::size_t slot = item * db_size + k;
        if (first_pos_stamp_[slot] == call)
          next.push_back({projection[k].sequence, first_pos_[slot] + 1});
      }
      extensions.push_back(std::move(next));
    }

    for (std::size_t e = 0; e < frequent.size(); ++e) {
      prefix_.push_back(frequent[e].first);
      if (backward_item_exists(extensions[e], /*semi=*/true)) {
        ++stats_.pruned;  // BackScan: subtree yields no closed patterns
      } else {
        grow(extensions[e]);
      }
      prefix_.pop_back();
    }
  }

  const SequenceColumns& db_;
  const MiningOptions& options_;
  std::size_t total_weight_ = 0;
  std::size_t min_count_ = 1;
  std::vector<Item> alphabet_;    ///< sorted distinct items; dense id -> item
  std::vector<Item> translated_;  ///< db_.items remapped onto dense ids
  std::vector<Item> prefix_;      ///< current prefix, dense ids
  std::vector<Pattern> results_;
  MiningStats stats_;
  // Stamped scratch tables (see backward_item_exists). Tokens are
  // monotone across the whole mine, so stale entries never collide.
  std::uint64_t call_token_ = 0;
  std::uint64_t sequence_token_ = 0;
  std::vector<std::size_t> forward_count_;
  std::vector<std::uint64_t> forward_count_stamp_;
  std::vector<std::uint64_t> forward_vote_stamp_;
  std::vector<std::size_t> period_count_;
  std::vector<std::uint64_t> period_count_stamp_;
  std::vector<std::uint64_t> period_vote_stamp_;
  // (item, projection-entry) -> first occurrence in that suffix, valid
  // when its stamp matches the grow() call that wrote it.
  std::vector<std::uint32_t> first_pos_;
  std::vector<std::uint64_t> first_pos_stamp_;
  std::vector<std::size_t> first_instance_;
  std::vector<std::size_t> last_appearance_;
};

}  // namespace

std::vector<Pattern> bide(const SequenceColumns& db, const MiningOptions& options,
                          MiningStats* stats) {
  if (stats != nullptr) *stats = {};
  if (db.empty()) return {};
  return Miner(db, options).run(stats);
}

std::vector<Pattern> bide(const SequenceDb& db, const MiningOptions& options,
                          MiningStats* stats) {
  if (stats != nullptr) *stats = {};
  if (db.empty()) return {};
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
  const SequenceColumns view{items, offsets};
  return Miner(view, options).run(stats);
}

}  // namespace crowdweb::mining
