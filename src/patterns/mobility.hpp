// Individual mobility patterns — the output of the paper's phase 2.
//
// A mobility pattern is a frequent sequential pattern of labeled places
// annotated with representative times of day: "Eatery ~08:20 -> Office
// ~09:05" with its support among the user's recorded days. The time
// annotation is what lets phase 3 place users on the city map for a
// selected time window.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "mining/pattern.hpp"
#include "mining/seqdb.hpp"
#include "util/status.hpp"

namespace crowdweb::patterns {

/// One element of a mobility pattern: a labeled place and its typical
/// visit time.
struct TimedElement {
  mining::Item label = 0;
  double mean_minute = 0.0;    ///< mean minute-of-day across occurrences
  double stddev_minute = 0.0;  ///< spread across occurrences

  friend bool operator==(const TimedElement&, const TimedElement&) = default;
};

/// A time-annotated frequent movement pattern of one user.
struct MobilityPattern {
  std::vector<TimedElement> elements;
  std::size_t support_count = 0;  ///< days containing the pattern
  double support = 0.0;           ///< fraction of recorded days

  [[nodiscard]] std::size_t length() const noexcept { return elements.size(); }

  friend bool operator==(const MobilityPattern&, const MobilityPattern&) = default;
};

/// Everything phase 2 derives for one user.
struct UserMobility {
  data::UserId user = 0;
  std::size_t recorded_days = 0;  ///< sequences in the user's database
  std::vector<MobilityPattern> patterns;
  /// What the miner did for this user (emitted/explored counts and the
  /// max_patterns truncation flag). Carried per user so the pipeline can
  /// aggregate an epoch's mining telemetry from the entries it re-mined.
  mining::MiningStats mining_stats;

  /// Heap bytes this entry keeps resident (patterns and elements).
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  friend bool operator==(const UserMobility&, const UserMobility&) = default;
};

struct MobilityOptions {
  mining::SequenceOptions sequences;
  mining::MiningOptions mining;
};

/// Phase 2 of the framework over a user's indexed days (`day_count`
/// recorded days filed into `shapes`, e.g. a mining::HistoryIndex):
/// mines them with PrefixSpan, annotating each pattern with times.
[[nodiscard]] UserMobility mine_user_mobility(data::UserId user,
                                              const mining::DayShapes& shapes,
                                              std::size_t day_count,
                                              const MobilityOptions& options = {});

/// Phase 2 over a kept history index, the ingest worker's path: the same
/// entry as mining the index's shapes above, bit for bit, but served
/// from the index's kept pattern set (mining::KeptPatterns) by counting
/// when that set is exact at today's threshold c = min_count(
/// min_support, day_count). Otherwise mines in full at the floor
/// max(1, c - buffer_days), keeps that set and serves its patterns with
/// count >= c; a floor mine cut short by max_patterns keeps nothing and
/// serves the mine at c instead. `*counted` (when non-null) is set to
/// whether no PrefixSpan ran. A counted entry's mining_stats are
/// {emitted = patterns served, explored = 0, truncated = false}; a full
/// mine's report patterns served (not kept) and the floor mine's
/// explored nodes. Call with the same options every time; production
/// keeps buffer_days at mining::kKeptBufferDays (bench_mining sweeps it).
[[nodiscard]] UserMobility mine_user_mobility(data::UserId user, mining::HistoryIndex& history,
                                              const MobilityOptions& options,
                                              bool* counted = nullptr,
                                              std::size_t buffer_days = mining::kKeptBufferDays);

/// Phase 2 for one user of `dataset`: indexes the user's days from
/// scratch, then mines them as above.
[[nodiscard]] UserMobility mine_user_mobility(const data::Dataset& dataset,
                                              data::UserId user,
                                              const data::Taxonomy& taxonomy,
                                              const MobilityOptions& options = {});

/// Phase 2 over every user of the dataset (sequential).
[[nodiscard]] std::vector<UserMobility> mine_all_mobility(const data::Dataset& dataset,
                                                          const data::Taxonomy& taxonomy,
                                                          const MobilityOptions& options = {});

/// Phase 2 over every user, sharded across `threads` worker threads
/// (0 = hardware concurrency). Users are independent, so the result is
/// identical to the sequential version, in the same order.
[[nodiscard]] std::vector<UserMobility> mine_all_mobility_parallel(
    const data::Dataset& dataset, const data::Taxonomy& taxonomy,
    const MobilityOptions& options = {}, unsigned threads = 0);

/// Phase 2 for the given users only (result order matches `users`),
/// sharded across `threads` worker threads (0 = hardware concurrency).
/// This is the delta form: an epoch re-mines just the users its events
/// touched instead of the whole corpus.
[[nodiscard]] std::vector<UserMobility> mine_users_mobility_parallel(
    const data::Dataset& dataset, std::span<const data::UserId> users,
    const data::Taxonomy& taxonomy, const MobilityOptions& options = {},
    unsigned threads = 0);

/// Aggregate size of a set of mobility entries — what /api/status and
/// bench_mining report per epoch.
struct MobilityStats {
  std::size_t entries = 0;   ///< users with a mined entry
  std::size_t patterns = 0;  ///< resident annotated patterns
  std::size_t bytes = 0;     ///< resident heap bytes

  void add(const UserMobility& entry) noexcept {
    ++entries;
    patterns += entry.patterns.size();
    bytes += entry.resident_bytes();
  }

  /// Takes back what add(entry) counted (an entry a table replaced).
  void remove(const UserMobility& entry) noexcept {
    --entries;
    patterns -= entry.patterns.size();
    bytes -= entry.resident_bytes();
  }

  /// Folds another table's totals in (shard scatter-gather status).
  void merge(const MobilityStats& other) noexcept {
    entries += other.entries;
    patterns += other.patterns;
    bytes += other.bytes;
  }

  friend bool operator==(const MobilityStats&, const MobilityStats&) = default;
};

/// Immutable per-user mobility entries in ascending user order, each
/// behind a shared_ptr so successive epochs share the entries of every
/// user the delta did not touch. `with_updates` is the maintenance
/// operation: it replaces or inserts the freshly mined entries and
/// shares everything else with the previous table by pointer.
class MobilityTable {
 public:
  using EntryPtr = std::shared_ptr<const UserMobility>;

  /// Iterates entries as `const UserMobility&` in ascending user order.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = UserMobility;
    using difference_type = std::ptrdiff_t;
    using pointer = const UserMobility*;
    using reference = const UserMobility&;

    const_iterator() = default;
    [[nodiscard]] reference operator*() const noexcept { return **it_; }
    [[nodiscard]] pointer operator->() const noexcept { return it_->get(); }
    [[nodiscard]] reference operator[](difference_type n) const noexcept { return *it_[n]; }
    const_iterator& operator++() noexcept { ++it_; return *this; }
    const_iterator operator++(int) noexcept { return const_iterator{it_++}; }
    const_iterator& operator--() noexcept { --it_; return *this; }
    const_iterator operator--(int) noexcept { return const_iterator{it_--}; }
    const_iterator& operator+=(difference_type n) noexcept { it_ += n; return *this; }
    const_iterator& operator-=(difference_type n) noexcept { it_ -= n; return *this; }
    [[nodiscard]] friend const_iterator operator+(const_iterator it, difference_type n) noexcept {
      return it += n;
    }
    [[nodiscard]] friend const_iterator operator-(const_iterator it, difference_type n) noexcept {
      return it -= n;
    }
    [[nodiscard]] friend difference_type operator-(const_iterator a, const_iterator b) noexcept {
      return a.it_ - b.it_;
    }
    [[nodiscard]] friend bool operator==(const_iterator, const_iterator) = default;
    [[nodiscard]] friend auto operator<=>(const_iterator, const_iterator) = default;

   private:
    friend class MobilityTable;
    explicit const_iterator(const EntryPtr* it) noexcept : it_(it) {}
    const EntryPtr* it_ = nullptr;
  };

  MobilityTable() = default;

  /// Adopts freshly mined entries (any order; sorted by user here).
  [[nodiscard]] static MobilityTable from_entries(std::vector<UserMobility> entries);

  /// New table where each update replaces (or inserts) its user's
  /// entry; every untouched entry is shared with this table by pointer.
  [[nodiscard]] MobilityTable with_updates(std::vector<UserMobility> updates) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const UserMobility& operator[](std::size_t index) const noexcept {
    return *entries_[index];
  }
  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator{entries_.data()};
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator{entries_.data() + entries_.size()};
  }

  /// The user's entry, or null when the user has never been mined.
  [[nodiscard]] const UserMobility* find(data::UserId user) const noexcept;

  /// The shared entry object (pointer equality across tables proves the
  /// entry was reused, not recomputed).
  [[nodiscard]] EntryPtr entry_for(data::UserId user) const noexcept;

  /// New table keeping only the given users' entries, shared with this
  /// table by pointer (mirrors data::Dataset::filter_users).
  [[nodiscard]] MobilityTable filter_users(std::span<const data::UserId> users) const;

  /// Aggregate entry/pattern/byte counts over every entry. Kept with
  /// the table: built once by from_entries/filter_users and adjusted by
  /// with_updates for the entries it replaces and inserts, so reading it
  /// does not walk the users.
  [[nodiscard]] const MobilityStats& stats() const noexcept { return stats_; }

 private:
  /// Adopts `entries` and counts them.
  explicit MobilityTable(std::vector<EntryPtr> entries);
  MobilityTable(std::vector<EntryPtr> entries, const MobilityStats& stats)
      : entries_(std::move(entries)), stats_(stats) {}

  std::vector<EntryPtr> entries_;  // ascending by user
  MobilityStats stats_;            // over entries_
};

/// Annotates an already-mined pattern with per-position visit times: the
/// mean and spread of the minutes at the greedy first embedding in every
/// supporting day. Walks the distinct day shapes and their minute sums,
/// not the days themselves.
[[nodiscard]] MobilityPattern annotate_pattern(const mining::Pattern& pattern,
                                               const mining::DayShapes& shapes);

/// Mean pattern length of a user (0 for no patterns) — the Figure 7/8
/// metric.
[[nodiscard]] double average_pattern_length(const std::vector<MobilityPattern>& patterns);

/// "Eatery@08:20 -> Office@09:05 (support 0.62)".
[[nodiscard]] std::string describe_pattern(const MobilityPattern& pattern,
                                           const data::Taxonomy& taxonomy,
                                           const data::Dataset& dataset,
                                           mining::LabelMode mode);

}  // namespace crowdweb::patterns
