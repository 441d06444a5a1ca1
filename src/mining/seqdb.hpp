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
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "mining/pattern.hpp"
#include "util/status.hpp"

namespace crowdweb::mining {

enum class LabelMode {
  kRootCategory,  ///< the paper's abstraction (default)
  kLeafCategory,  ///< venue type ("Thai Restaurant")
  kVenue,         ///< raw venue id (the ablation baseline)
};

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
/// exact, and any summation order gives the same bits. Filled by add().
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

  /// Reserves room for `item_count` labels across all shapes.
  void reserve(std::size_t item_count);

  /// Files one day under its shape (a new shape when unseen) and adds
  /// its minutes to the shape's sums.
  void add(std::span<const Item> day_items, std::span<const int> day_minutes);

 private:
  /// Open-addressed table over the shapes: a slot holds shape index + 1,
  /// 0 when empty; `hashes_[s]` is shape s's label hash. Load <= 1/2.
  std::vector<std::uint32_t> slots_;
  std::vector<std::uint64_t> hashes_;
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
  [[nodiscard]] SequenceColumns columns() const noexcept {
    return {shapes.items, shapes.offsets, shapes.days};
  }

  /// Appends one day's elements and files the day under its shape.
  void append_day(std::span<const Item> day_items, std::span<const int> day_minutes);

  /// Closes the day whose elements were pushed onto `items` and
  /// `item_minutes` since the last day ended (append_day without the
  /// copy): records its offset and files it under its shape.
  void end_day();
  /// Where the day being pushed starts in `items`.
  [[nodiscard]] std::size_t open_day_start() const noexcept {
    return day_offsets.empty() ? 0 : day_offsets.back();
  }

  /// Days [begin, end) as a new flat history (train/test splits).
  [[nodiscard]] UserSequences slice_days(std::size_t begin, std::size_t end) const;
};

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
