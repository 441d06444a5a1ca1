// Sequence-database construction — the "modified" half of the paper's
// modified PrefixSpan.
//
// Raw check-ins become mineable sequences through three steps:
//   1. *Location abstraction*: each check-in is reduced to a label — the
//      venue's root category ("Eatery"), its leaf category ("Thai
//      Restaurant"), or the raw venue id. Root-category labels are what
//      make flexible patterns detectable (the paper's central idea).
//   2. *Per-day sequencing*: a user's check-ins are grouped by calendar
//      day and ordered by time; each day is one sequence.
//   3. *Time retention*: the minute-of-day of every element is kept so
//      mined patterns can be annotated with representative time windows
//      (needed later for crowd synchronization).
//
// The per-user database is stored flat (structure-of-arrays): all days'
// labels in one contiguous `items` array with parallel minutes, and a
// `day_offsets` index delimiting days.
//
// A routine user's days repeat, so beside the days the database keeps a
// *shape index*, built as days are appended: each distinct day label
// sequence once, in first-seen order, with the number of days of that
// shape and per-position sums of their minutes. The miners consume the
// shapes weighted by their day counts (SequenceColumns::weights), which
// yields exactly the per-day result, and pattern annotation walks shapes
// instead of days.
//
// One day builder (DaySplitter) turns time-ordered records into days for
// every consumer: the per-day columns of build_user_sequences and
// /api/analyze, and the HistoryIndex — the shape index alone, which the
// ingest worker keeps per user across epochs and extends with only the
// records each epoch appends.
//
// A HistoryIndex also keeps a pattern set (KeptPatterns, after IncSpan:
// Cheng, Yan and Han, KDD 2004): the patterns just below the serving
// threshold at the last full mine, whose counts and minute sums every
// filed day updates, so an epoch can serve the frequent set by counting
// instead of mining while the counts are provably complete.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "mining/pattern.hpp"
#include "util/civil_time.hpp"
#include "util/status.hpp"

namespace crowdweb::mining {

enum class LabelMode {
  kRootCategory,  ///< the paper's abstraction (default)
  kLeafCategory,  ///< venue type ("Thai Restaurant")
  kVenue,         ///< raw venue id (the ablation baseline)
};

/// The label phase 2 mines for one check-in under `mode`.
[[nodiscard]] inline Item label_of(data::VenueId venue, data::CategoryId category,
                                   LabelMode mode, const data::Taxonomy& taxonomy) {
  switch (mode) {
    case LabelMode::kRootCategory:
      return taxonomy.root_of(category);
    case LabelMode::kLeafCategory:
      return category;
    case LabelMode::kVenue:
      return venue;
  }
  return category;
}

struct SequenceOptions {
  LabelMode mode = LabelMode::kRootCategory;
  /// Collapse immediately repeated labels within a day ("Eatery, Eatery"
  /// from two nearby check-ins becomes one element).
  bool collapse_repeats = true;
  /// Ignore days with fewer check-ins than this (0/1 keeps everything).
  std::size_t min_day_length = 1;
};

/// The distinct label sequences ("shapes") among a user's days, in
/// first-seen order. Shape `s` spans items[offsets[s], offsets[s+1]);
/// `days[s]` days have exactly that label sequence, and minute_sum /
/// minute_sq_sum hold, per shape position, the sum of those days'
/// minute-of-day values and of their squares. Minutes are integers below
/// 1440, so both sums are integer-valued doubles far below 2^53: they are
/// exact, any summation order gives the same bits, and taking a day back
/// out (remove_last) leaves exactly the bits a build without it has.
/// Filled by add().
struct DayShapes {
  std::vector<Item> items;
  std::vector<std::uint32_t> offsets;  ///< size()+1 entries (or none)
  std::vector<std::uint32_t> days;     ///< days per shape (the mining weight)
  std::vector<double> minute_sum;      ///< parallel to items
  std::vector<double> minute_sq_sum;   ///< parallel to items

  [[nodiscard]] std::size_t size() const noexcept { return days.size(); }

  /// Shape `s`'s label sequence (no bounds check).
  [[nodiscard]] std::span<const Item> shape(std::size_t s) const noexcept {
    return std::span<const Item>(items).subspan(offsets[s], offsets[s + 1] - offsets[s]);
  }

  /// The miner-facing view: each shape weighted by its day count.
  [[nodiscard]] SequenceColumns columns() const noexcept { return {items, offsets, days}; }

  /// Reserves room for `item_count` labels across all shapes.
  void reserve(std::size_t item_count);

  /// Files one day under its shape (a new shape when unseen) and adds
  /// its minutes to the shape's sums.
  void add(std::span<const Item> day_items, std::span<const int> day_minutes);

  /// Takes the most recently added day back out: its weight and minutes
  /// leave its shape's sums, and a shape left with no days (it can only
  /// be the newest) is dropped with its table slot. Afterwards every
  /// field equals a build that never saw the day.
  void remove_last(std::span<const Item> day_items, std::span<const int> day_minutes);

  /// Counts `pattern` over the shapes at its greedy first embedding:
  /// for every shape that contains it, adds the shape's per-position
  /// minute sum and squares at the embedded positions into sums[2p] and
  /// sums[2p + 1] (`sums` holds 2 x pattern.size() entries), and returns
  /// those shapes' days, the pattern's weighted count.
  std::size_t embedding_sums(std::span<const Item> pattern, std::span<double> sums) const;

  /// Heap bytes held (every column and the lookup table, by capacity).
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

 private:
  /// The slot holding the shape equal to `day_items`, or the empty slot
  /// that ends its probe run when no shape equals it.
  [[nodiscard]] std::size_t probe(std::uint64_t hash,
                                  std::span<const Item> day_items) const noexcept;

  /// Open-addressed table over the shapes: a slot holds shape index + 1,
  /// 0 when empty; `hashes_[s]` is shape s's label hash. Load <= 1/2.
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> hashes_;
};

/// Days of slack below the serving threshold a full mine keeps patterns
/// for (IncSpan's buffer): a mine that serves count c keeps every
/// pattern with count >= max(1, c - kKeptBufferDays), so about that many
/// appended days can be served by counting before the next full mine.
inline constexpr std::size_t kKeptBufferDays = 8;

/// A pattern set kept across appended days (IncSpan): every pattern
/// whose weighted count reached floor() at the last full mine, with its
/// count and, per position, the sums of the minutes (and of their
/// squares) at its greedy first embedding in every recorded day that
/// contains it. Each day filed since then added to the counts and sums
/// of the patterns it contains, each day taken back out subtracted, and
/// A counts the filings (a refiled open day again). A pattern outside
/// the set had count <= floor() - 1 at that mine and has gained at most
/// A since, so while A + floor() <= c (exact_at(c)) the set holds every
/// pattern with count >= c, with exact counts and sums. Minutes are
/// integers, so the sums are exact integer-valued doubles, equal to the
/// shapes' sums whatever order they were added in.
///
/// Stored flat: pattern k spans items[offsets[k], offsets[k+1]), in the
/// miner's canonical order, and its sums interleave (sum, squares) per
/// position, parallel to its items.
class KeptPatterns {
 public:
  /// Whether a full mine filled the set (it was not dropped since).
  [[nodiscard]] bool valid() const noexcept { return valid_; }
  [[nodiscard]] std::size_t size() const noexcept { return counts_.size(); }
  /// Pattern k's labels (no bounds check).
  [[nodiscard]] std::span<const Item> items(std::size_t k) const noexcept {
    return std::span<const Item>(items_).subspan(offsets_[k], offsets_[k + 1] - offsets_[k]);
  }
  /// Pattern k's weighted count: recorded days containing it.
  [[nodiscard]] std::size_t count(std::size_t k) const noexcept { return counts_[k]; }
  /// Pattern k's minute sums: (sum, squares) per position.
  [[nodiscard]] std::span<const double> sums(std::size_t k) const noexcept {
    return std::span<const double>(sums_).subspan(2 * offsets_[k],
                                                  2 * (offsets_[k + 1] - offsets_[k]));
  }
  /// The count every kept pattern had at the last full mine.
  [[nodiscard]] std::size_t floor() const noexcept { return floor_; }
  /// Whether the set holds every pattern with count >= `min_count`.
  [[nodiscard]] bool exact_at(std::size_t min_count) const noexcept {
    return valid_ && added_ + floor_ <= min_count;
  }

  /// Keeps `patterns`, a full mine of `shapes` at absolute count
  /// `floor`, counting their sums over the shapes; A restarts at 0.
  void reset(std::span<const Pattern> patterns, const DayShapes& shapes, std::size_t floor);
  /// Drops the set (not valid until the next reset).
  void clear() noexcept;
  /// A day was filed: adds it to the patterns it contains.
  void add_day(std::span<const Item> day_items, std::span<const int> day_minutes);
  /// A filed day was taken back out: subtracts it.
  void remove_day(std::span<const Item> day_items, std::span<const int> day_minutes);

  /// Heap bytes held (by capacity).
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

 private:
  /// Adds (sign 1) or subtracts (sign -1) one day to the patterns it
  /// contains.
  void count_day(std::span<const Item> day_items, std::span<const int> day_minutes,
                 double sign);

  std::vector<Item> items_;
  std::vector<std::uint32_t> offsets_;  ///< size()+1 entries (or none)
  std::vector<std::uint32_t> counts_;
  std::vector<double> sums_;            ///< 2 per item: sum, squares
  std::size_t floor_ = 0;
  std::size_t added_ = 0;  ///< A: days filed since the last full mine
  bool valid_ = false;
};

/// The one rule that turns a user's time-ordered, labelled check-ins
/// into recorded days, shared by every day builder (build_day_sequences,
/// HistoryIndex): records group by calendar day; under collapse_repeats
/// an element equal to the previous one of its day is dropped; a day is
/// recorded once it holds min_day_length elements. The splitter keeps
/// the open (latest) day, so a caller can file it early and take it
/// back when later records extend it.
class DaySplitter {
 public:
  explicit DaySplitter(const SequenceOptions& options = {}) noexcept
      : min_length_(std::max<std::size_t>(1, options.min_day_length)),
        collapse_(options.collapse_repeats) {}

  /// Adds one record, not earlier than the previous one. When it opens a
  /// new day, the open day goes to `file(items, minutes)` first (see
  /// file_open). A filed open day must be reopened before a record of
  /// its own day is pushed.
  template <typename File>
  void push(Item label, std::int64_t timestamp, File&& file) {
    const std::int64_t day = day_index(timestamp);
    if (!open_ || day != day_) {
      file_open(file);
      items_.clear();
      minutes_.clear();
      day_ = day;
      open_ = true;
      filed_ = false;
    }
    if (collapse_ && !items_.empty() && items_.back() == label) return;
    items_.push_back(label);
    minutes_.push_back(minute_of_day(timestamp));
  }

  /// Hands the open day to `file(items, minutes)` when it is recorded
  /// (long enough) and not filed yet. The day stays open.
  template <typename File>
  void file_open(File&& file) {
    if (!open_ || filed_ || items_.size() < min_length_) return;
    file(std::span<const Item>(items_), std::span<const int>(minutes_));
    filed_ = true;
  }

  /// Whether `timestamp` falls on the open day.
  [[nodiscard]] bool on_open_day(std::int64_t timestamp) const noexcept {
    return open_ && day_index(timestamp) == day_;
  }
  /// Whether the open day has been handed to a file callback.
  [[nodiscard]] bool filed() const noexcept { return filed_; }
  /// Marks the open day unfiled: the caller took it back out of what it
  /// was filed into. Its elements stay, so later records extend it.
  void reopen() noexcept { filed_ = false; }

  [[nodiscard]] std::span<const Item> open_items() const noexcept { return items_; }
  [[nodiscard]] std::span<const int> open_minutes() const noexcept { return minutes_; }

  /// Heap bytes held by the open day.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return items_.capacity() * sizeof(Item) + minutes_.capacity() * sizeof(int);
  }

 private:
  std::size_t min_length_ = 1;
  bool collapse_ = true;
  bool open_ = false;
  bool filed_ = false;
  std::int64_t day_ = 0;
  std::vector<Item> items_;  ///< the open day's elements
  std::vector<int> minutes_;
};

/// A user's mineable history in columnar form: one sequence per day
/// with >= min_day_length check-ins. `items` and `item_minutes` are
/// parallel flat arrays over all days; day `d` spans
/// [day_offsets[d], day_offsets[d+1]). `shapes` indexes the distinct
/// days; append_day keeps it in step, so build histories through it.
struct UserSequences {
  data::UserId user = 0;
  std::vector<Item> items;                 ///< all days' labels, concatenated
  std::vector<int> item_minutes;           ///< minute-of-day per element
  std::vector<std::uint32_t> day_offsets;  ///< day_count()+1 entries (or none)
  DayShapes shapes;                        ///< the distinct days, weighted

  [[nodiscard]] std::size_t day_count() const noexcept {
    return day_offsets.empty() ? 0 : day_offsets.size() - 1;
  }
  [[nodiscard]] bool empty() const noexcept { return day_count() == 0; }

  /// Day `d`'s label sequence (no bounds check).
  [[nodiscard]] std::span<const Item> day(std::size_t d) const noexcept {
    return std::span<const Item>(items).subspan(day_offsets[d],
                                                day_offsets[d + 1] - day_offsets[d]);
  }
  /// Day `d`'s minute-of-day values, parallel to day(d).
  [[nodiscard]] std::span<const int> minutes_of(std::size_t d) const noexcept {
    return std::span<const int>(item_minutes)
        .subspan(day_offsets[d], day_offsets[d + 1] - day_offsets[d]);
  }

  /// The miner-facing view: the distinct day shapes, each weighted by
  /// its day count (no copying). Mines to exactly what the per-day
  /// columns {items, day_offsets} would.
  [[nodiscard]] SequenceColumns columns() const noexcept { return shapes.columns(); }

  /// Appends one day's elements and files the day under its shape.
  void append_day(std::span<const Item> day_items, std::span<const int> day_minutes);

  /// Days [begin, end) as a new flat history (train/test splits).
  [[nodiscard]] UserSequences slice_days(std::size_t begin, std::size_t end) const;
};

/// One user's recorded days as a shape index only (no per-day columns),
/// kept across appends. extend() files the user's records from a given
/// position on: the ingest worker keeps one per touched user and files
/// only each epoch's new records, and a one-shot mine files from 0.
/// Records landing on the open (latest) day take it back out of the
/// shapes first (DayShapes::remove_last) and refile it, so after every
/// extend the index equals a from-scratch build over the same records,
/// bit for bit.
///
/// Beside the shapes it keeps a pattern set (KeptPatterns) that every
/// filed and every taken-back day updates; a refile (extend from 0)
/// drops it. patterns::mine_user_mobility over a HistoryIndex serves
/// from it while it is exact and refills it (keep) on a full mine.
class HistoryIndex {
 public:
  explicit HistoryIndex(const SequenceOptions& options = {}) noexcept
      : options_(options), splitter_(options) {}

  [[nodiscard]] const DayShapes& shapes() const noexcept { return shapes_; }
  /// Recorded days filed (the shapes' total weight).
  [[nodiscard]] std::size_t day_count() const noexcept { return days_; }
  /// Records of the user's column filed so far.
  [[nodiscard]] std::size_t filed_records() const noexcept { return filed_; }

  /// Where extend() may resume over `records`, the user's current
  /// time-ordered column: filed_records() when every record past the
  /// filed prefix is strictly later than the last filed one (then the
  /// prefix is exactly what was filed), else 0 (refile).
  [[nodiscard]] std::size_t resume_point(const data::Dataset::UserColumns& records) const noexcept;

  /// Files records [from, records.size()). `from` is 0 (start over) or
  /// resume_point(records).
  void extend(const data::Dataset::UserColumns& records, std::size_t from,
              const data::Taxonomy& taxonomy);

  /// The kept pattern set, updated by every extend.
  [[nodiscard]] const KeptPatterns& kept() const noexcept { return kept_; }
  /// Keeps `patterns`, a full mine of shapes() at absolute count `floor`.
  void keep(std::span<const Pattern> patterns, std::size_t floor) {
    kept_.reset(patterns, shapes_, floor);
  }
  /// Drops the kept pattern set: the next mine is a full one.
  void drop_kept() noexcept { kept_.clear(); }

  /// Heap bytes held (shapes, lookup table, open day and kept patterns)
  /// plus the object.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

 private:
  SequenceOptions options_;
  DaySplitter splitter_;
  DayShapes shapes_;
  KeptPatterns kept_;
  std::size_t days_ = 0;
  std::size_t filed_ = 0;
  std::int64_t last_timestamp_ = 0;
};

/// The day builder over already-labelled records in time order: per-day
/// columns plus their shape index (what /api/analyze mines).
[[nodiscard]] UserSequences build_day_sequences(std::span<const Item> labels,
                                                std::span<const std::int64_t> timestamps,
                                                const SequenceOptions& options = {});

/// Builds the per-day sequence database of one user.
[[nodiscard]] UserSequences build_user_sequences(const data::Dataset& dataset,
                                                 data::UserId user,
                                                 const data::Taxonomy& taxonomy,
                                                 const SequenceOptions& options = {});

/// Builds sequence databases for every user of the dataset.
[[nodiscard]] std::vector<UserSequences> build_all_sequences(
    const data::Dataset& dataset, const data::Taxonomy& taxonomy,
    const SequenceOptions& options = {});

/// Human-readable name of a mined item under the given mode.
[[nodiscard]] std::string label_name(Item item, LabelMode mode,
                                     const data::Taxonomy& taxonomy,
                                     const data::Dataset& dataset);

}  // namespace crowdweb::mining
