#include "mining/seqdb.hpp"

#include <algorithm>

#include "util/civil_time.hpp"
#include "util/format.hpp"

namespace crowdweb::mining {

namespace {

std::uint64_t hash_labels(std::span<const Item> labels) noexcept {
  std::uint64_t hash = 0x9E3779B97F4A7C15ull ^ labels.size();
  for (const Item label : labels) {
    hash = (hash ^ label) * 0xFF51AFD7ED558CCDull;
    hash ^= hash >> 32;
  }
  return hash;
}

/// When `pattern` is a subsequence of `haystack`, calls visit(p, i) for
/// each pattern position p with the index i of the element its greedy
/// first embedding matches, and returns true.
template <typename Visit>
bool embed(std::span<const Item> pattern, std::span<const Item> haystack, Visit&& visit) {
  if (!is_subsequence(pattern, haystack)) return false;
  for (std::size_t i = 0, p = 0; p < pattern.size(); ++i) {
    if (haystack[i] == pattern[p]) visit(p++, i);
  }
  return true;
}

}  // namespace

void DayShapes::reserve(std::size_t item_count) {
  items.reserve(item_count);
  minute_sum.reserve(item_count);
  minute_sq_sum.reserve(item_count);
}

std::size_t DayShapes::probe(std::uint64_t hash,
                             std::span<const Item> day_items) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = hash & mask;
  for (; slots_[slot] != 0; slot = (slot + 1) & mask) {
    const std::size_t s = slots_[slot] - 1;
    if (hashes_[s] == hash && std::ranges::equal(shape(s), day_items)) break;
  }
  return slot;
}

void DayShapes::add(std::span<const Item> day_items, std::span<const int> day_minutes) {
  const std::uint64_t hash = hash_labels(day_items);
  if (2 * (size() + 1) > slots_.size()) {
    // Grow and re-file every shape from its stored hash.
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = 0; s < size(); ++s) {
      std::size_t slot = hashes_[s] & mask;
      while (slots_[slot] != 0) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::uint32_t>(s + 1);
    }
  }
  const std::size_t slot = probe(hash, day_items);
  if (slots_[slot] != 0) {
    const std::size_t s = slots_[slot] - 1;
    ++days[s];
    for (std::size_t i = 0; i < day_minutes.size(); ++i) {
      const double minute = day_minutes[i];
      minute_sum[offsets[s] + i] += minute;
      minute_sq_sum[offsets[s] + i] += minute * minute;
    }
    return;
  }
  slots_[slot] = static_cast<std::uint32_t>(size() + 1);
  hashes_.push_back(hash);
  days.push_back(1);
  if (offsets.empty()) offsets.push_back(0);
  items.insert(items.end(), day_items.begin(), day_items.end());
  for (const int minute : day_minutes) {
    minute_sum.push_back(minute);
    minute_sq_sum.push_back(static_cast<double>(minute) * minute);
  }
  offsets.push_back(static_cast<std::uint32_t>(items.size()));
}

void DayShapes::remove_last(std::span<const Item> day_items,
                            std::span<const int> day_minutes) {
  const std::size_t slot = probe(hash_labels(day_items), day_items);
  const std::size_t s = slots_[slot] - 1;
  if (--days[s] > 0) {
    // Integer-valued sums: subtracting restores the exact earlier bits.
    for (std::size_t i = 0; i < day_minutes.size(); ++i) {
      const double minute = day_minutes[i];
      minute_sum[offsets[s] + i] -= minute;
      minute_sq_sum[offsets[s] + i] -= minute * minute;
    }
    return;
  }
  // The day was the shape's only one, so the shape was created when the
  // day was added, after every other: it is the newest, and no probe
  // run of another shape passes its slot, so clearing the slot is safe.
  slots_[slot] = 0;
  hashes_.pop_back();
  days.pop_back();
  items.resize(offsets[s]);
  minute_sum.resize(offsets[s]);
  minute_sq_sum.resize(offsets[s]);
  offsets.pop_back();
  if (offsets.size() == 1) offsets.clear();
}

std::size_t DayShapes::embedding_sums(std::span<const Item> pattern,
                                      std::span<double> sums) const {
  std::size_t count = 0;
  for (std::size_t s = 0; s < size(); ++s) {
    const std::size_t base = offsets[s];
    if (embed(pattern, shape(s), [&](std::size_t p, std::size_t i) {
          sums[2 * p] += minute_sum[base + i];
          sums[2 * p + 1] += minute_sq_sum[base + i];
        }))
      count += days[s];
  }
  return count;
}

std::size_t DayShapes::resident_bytes() const noexcept {
  return items.capacity() * sizeof(Item) + offsets.capacity() * sizeof(std::uint32_t) +
         days.capacity() * sizeof(std::uint32_t) +
         (minute_sum.capacity() + minute_sq_sum.capacity()) * sizeof(double) +
         slots_.capacity() * sizeof(std::uint32_t) + hashes_.capacity() * sizeof(std::uint64_t);
}

void KeptPatterns::reset(std::span<const Pattern> patterns, const DayShapes& shapes,
                         std::size_t floor) {
  // Fresh columns at exact sizes: the set's capacity follows its size.
  std::size_t item_count = 0;
  for (const Pattern& pattern : patterns) item_count += pattern.items.size();
  std::vector<Item> items;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> counts;
  std::vector<double> sums(2 * item_count, 0.0);
  items.reserve(item_count);
  counts.reserve(patterns.size());
  if (!patterns.empty()) {
    offsets.reserve(patterns.size() + 1);
    offsets.push_back(0);
  }
  for (const Pattern& pattern : patterns) {
    const std::size_t begin = items.size();
    items.insert(items.end(), pattern.items.begin(), pattern.items.end());
    offsets.push_back(static_cast<std::uint32_t>(items.size()));
    counts.push_back(static_cast<std::uint32_t>(shapes.embedding_sums(
        pattern.items, std::span<double>(sums).subspan(2 * begin, 2 * pattern.items.size()))));
  }
  items_ = std::move(items);
  offsets_ = std::move(offsets);
  counts_ = std::move(counts);
  sums_ = std::move(sums);
  floor_ = floor;
  added_ = 0;
  valid_ = true;
}

void KeptPatterns::clear() noexcept { *this = KeptPatterns{}; }

void KeptPatterns::add_day(std::span<const Item> day_items, std::span<const int> day_minutes) {
  if (!valid_) return;
  ++added_;
  count_day(day_items, day_minutes, 1.0);
}

void KeptPatterns::remove_day(std::span<const Item> day_items,
                              std::span<const int> day_minutes) {
  // Integer-valued sums: subtracting restores the exact earlier bits.
  if (valid_) count_day(day_items, day_minutes, -1.0);
}

void KeptPatterns::count_day(std::span<const Item> day_items, std::span<const int> day_minutes,
                             double sign) {
  for (std::size_t k = 0; k < size(); ++k) {
    double* sums = sums_.data() + 2 * offsets_[k];
    if (embed(items(k), day_items, [&](std::size_t p, std::size_t i) {
          const double minute = day_minutes[i];
          sums[2 * p] += sign * minute;
          sums[2 * p + 1] += sign * (minute * minute);
        })) {
      if (sign > 0) {
        ++counts_[k];
      } else {
        --counts_[k];
      }
    }
  }
}

std::size_t KeptPatterns::resident_bytes() const noexcept {
  return items_.capacity() * sizeof(Item) +
         (offsets_.capacity() + counts_.capacity()) * sizeof(std::uint32_t) +
         sums_.capacity() * sizeof(double);
}

void UserSequences::append_day(std::span<const Item> day_items,
                               std::span<const int> day_minutes) {
  if (day_offsets.empty()) day_offsets.push_back(0);
  items.insert(items.end(), day_items.begin(), day_items.end());
  item_minutes.insert(item_minutes.end(), day_minutes.begin(), day_minutes.end());
  day_offsets.push_back(static_cast<std::uint32_t>(items.size()));
  shapes.add(day_items, day_minutes);
}

UserSequences UserSequences::slice_days(std::size_t begin, std::size_t end) const {
  UserSequences out;
  out.user = user;
  for (std::size_t d = begin; d < end; ++d) out.append_day(day(d), minutes_of(d));
  return out;
}

std::size_t HistoryIndex::resume_point(
    const data::Dataset::UserColumns& records) const noexcept {
  // Records only ever join a user's column, in (timestamp, arrival)
  // order. If one joined at or before the last filed timestamp, it sits
  // at or before position filed_, so that position is no longer
  // strictly later than the last filed record.
  if (filed_ == 0 || records.size() < filed_) return 0;
  if (records.size() > filed_ && records.timestamp(filed_) <= last_timestamp_) return 0;
  return filed_;
}

void HistoryIndex::extend(const data::Dataset::UserColumns& records, std::size_t from,
                          const data::Taxonomy& taxonomy) {
  if (from == 0) {
    splitter_ = DaySplitter(options_);
    shapes_ = DayShapes{};
    kept_.clear();
    days_ = 0;
  }
  const auto timestamps = records.timestamps();
  const auto venues = records.venues();
  if (from < records.size() && splitter_.filed() && splitter_.on_open_day(timestamps[from])) {
    // The new records extend the open day: take it back out, refile it
    // once it is complete again.
    shapes_.remove_last(splitter_.open_items(), splitter_.open_minutes());
    kept_.remove_day(splitter_.open_items(), splitter_.open_minutes());
    --days_;
    splitter_.reopen();
  }
  const auto file = [this](std::span<const Item> day_items, std::span<const int> day_minutes) {
    shapes_.add(day_items, day_minutes);
    kept_.add_day(day_items, day_minutes);
    ++days_;
  };
  for (std::size_t i = from; i < records.size(); ++i)
    splitter_.push(label_of(venues[i], records.category(i), options_.mode, taxonomy),
                   timestamps[i], file);
  splitter_.file_open(file);
  filed_ = records.size();
  if (filed_ > 0) last_timestamp_ = timestamps[filed_ - 1];
}

std::size_t HistoryIndex::resident_bytes() const noexcept {
  return sizeof(HistoryIndex) + shapes_.resident_bytes() + splitter_.resident_bytes() +
         kept_.resident_bytes();
}

UserSequences build_day_sequences(std::span<const Item> labels,
                                  std::span<const std::int64_t> timestamps,
                                  const SequenceOptions& options) {
  UserSequences out;
  // Upper bounds (collapsing and dropped days only shrink them), so the
  // columns grow without reallocating.
  out.items.reserve(labels.size());
  out.item_minutes.reserve(labels.size());
  out.day_offsets.reserve(labels.size() + 1);
  out.shapes.reserve(labels.size());
  DaySplitter splitter(options);
  const auto file = [&out](std::span<const Item> day_items, std::span<const int> day_minutes) {
    out.append_day(day_items, day_minutes);
  };
  for (std::size_t i = 0; i < labels.size(); ++i) splitter.push(labels[i], timestamps[i], file);
  splitter.file_open(file);
  return out;
}

UserSequences build_user_sequences(const data::Dataset& dataset, data::UserId user,
                                   const data::Taxonomy& taxonomy,
                                   const SequenceOptions& options) {
  const auto records = dataset.checkins_for(user);  // already time-sorted
  const auto venues = records.venues();
  std::vector<Item> labels(records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    labels[i] = label_of(venues[i], records.category(i), options.mode, taxonomy);
  UserSequences out = build_day_sequences(labels, records.timestamps(), options);
  out.user = user;
  return out;
}

std::vector<UserSequences> build_all_sequences(const data::Dataset& dataset,
                                               const data::Taxonomy& taxonomy,
                                               const SequenceOptions& options) {
  std::vector<UserSequences> out;
  out.reserve(dataset.user_count());
  for (const data::UserId user : dataset.users())
    out.push_back(build_user_sequences(dataset, user, taxonomy, options));
  return out;
}

std::string label_name(Item item, LabelMode mode, const data::Taxonomy& taxonomy,
                       const data::Dataset& dataset) {
  switch (mode) {
    case LabelMode::kRootCategory:
    case LabelMode::kLeafCategory:
      if (item < taxonomy.size()) return taxonomy.name(static_cast<data::CategoryId>(item));
      return crowdweb::format("category#{}", item);
    case LabelMode::kVenue:
      if (dataset.venue(static_cast<data::VenueId>(item)) != nullptr)
        return std::string(dataset.venue_name(static_cast<data::VenueId>(item)));
      return crowdweb::format("venue#{}", item);
  }
  return crowdweb::format("label#{}", item);
}

}  // namespace crowdweb::mining
