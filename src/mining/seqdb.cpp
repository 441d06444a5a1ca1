#include "mining/seqdb.hpp"

#include <algorithm>

#include "util/civil_time.hpp"
#include "util/format.hpp"

namespace crowdweb::mining {

namespace {

Item label_of(data::VenueId venue, data::CategoryId category, LabelMode mode,
              const data::Taxonomy& taxonomy) {
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

std::uint64_t hash_labels(std::span<const Item> labels) noexcept {
  std::uint64_t hash = 0x9E3779B97F4A7C15ull ^ labels.size();
  for (const Item label : labels) {
    hash = (hash ^ label) * 0xFF51AFD7ED558CCDull;
    hash ^= hash >> 32;
  }
  return hash;
}

}  // namespace

void DayShapes::reserve(std::size_t item_count) {
  items.reserve(item_count);
  minute_sum.reserve(item_count);
  minute_sq_sum.reserve(item_count);
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
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = hash & mask;
  for (; slots_[slot] != 0; slot = (slot + 1) & mask) {
    const std::size_t s = slots_[slot] - 1;
    if (hashes_[s] != hash || !std::ranges::equal(shape(s), day_items)) continue;
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

void UserSequences::append_day(std::span<const Item> day_items,
                               std::span<const int> day_minutes) {
  items.insert(items.end(), day_items.begin(), day_items.end());
  item_minutes.insert(item_minutes.end(), day_minutes.begin(), day_minutes.end());
  end_day();
}

void UserSequences::end_day() {
  const std::size_t start = open_day_start();
  if (day_offsets.empty()) day_offsets.push_back(0);
  day_offsets.push_back(static_cast<std::uint32_t>(items.size()));
  shapes.add(std::span<const Item>(items).subspan(start),
             std::span<const int>(item_minutes).subspan(start));
}

UserSequences UserSequences::slice_days(std::size_t begin, std::size_t end) const {
  UserSequences out;
  out.user = user;
  for (std::size_t d = begin; d < end; ++d) out.append_day(day(d), minutes_of(d));
  return out;
}

UserSequences build_user_sequences(const data::Dataset& dataset, data::UserId user,
                                   const data::Taxonomy& taxonomy,
                                   const SequenceOptions& options) {
  UserSequences out;
  out.user = user;

  const auto records = dataset.checkins_for(user);  // already time-sorted
  const auto timestamps = records.timestamps();
  const auto venues = records.venues();
  // Upper bounds (collapsing and dropped days only shrink them), so the
  // columns grow without reallocating.
  out.items.reserve(records.size());
  out.item_minutes.reserve(records.size());
  out.day_offsets.reserve(records.size() + 1);
  out.shapes.reserve(records.size());
  // Each day is written straight into the flat columns; a day that
  // turns out too short is cut off again when the next one starts.
  const std::size_t min_length = std::max<std::size_t>(1, options.min_day_length);
  std::int64_t current_day = 0;
  bool have_day = false;

  const auto flush = [&] {
    const std::size_t start = out.open_day_start();
    if (out.items.size() - start >= min_length) {
      out.end_day();
    } else {
      out.items.resize(start);
      out.item_minutes.resize(start);
    }
  };

  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::int64_t day = day_index(timestamps[i]);
    if (!have_day || day != current_day) {
      flush();
      current_day = day;
      have_day = true;
    }
    const Item item = label_of(venues[i], records.category(i), options.mode, taxonomy);
    if (options.collapse_repeats && out.items.size() > out.open_day_start() &&
        out.items.back() == item)
      continue;
    out.items.push_back(item);
    out.item_minutes.push_back(minute_of_day(timestamps[i]));
  }
  flush();
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
