#include "reference/venue_oracle.hpp"

#include <utility>

#include "data/categories.hpp"
#include "mining/seqdb.hpp"
#include "util/civil_time.hpp"

namespace crowdweb::crowd {

namespace {

/// Windows are below 2^16 (at most 1,440 a day).
std::uint64_t key(mining::Item label, int window) noexcept {
  return (static_cast<std::uint64_t>(label) << 16) | static_cast<std::uint16_t>(window);
}

}  // namespace

RepresentativeVenues::RepresentativeVenues(const data::Dataset::UserColumns& records,
                                           int window_minutes)
    : venues_(records.venues()) {
  const std::span<const std::int64_t> timestamps = records.timestamps();
  keys_.resize(timestamps.size());
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    const mining::Item label =
        mining::label_of(venues_[i], records.category(i), mining::LabelMode::kRootCategory,
                         data::Taxonomy::foursquare());
    keys_[i] = key(label, minute_of_day(timestamps[i]) / window_minutes);
  }
}

std::optional<data::VenueId> RepresentativeVenues::pick(mining::Item label, int window) const {
  // Per-venue counts of the matching records, in first-seen order.
  std::vector<std::pair<data::VenueId, std::size_t>> counts;
  const auto bump = [&counts](data::VenueId venue) {
    for (auto& [seen, count] : counts) {
      if (seen == venue) {
        ++count;
        return;
      }
    }
    counts.emplace_back(venue, 1);
  };
  const std::uint64_t wanted = key(label, window);
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == wanted) bump(venues_[i]);
  }
  if (counts.empty()) {
    // Fallback: the user's most-visited venue of this label at any time.
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] >> 16 == label) bump(venues_[i]);
    }
  }
  if (counts.empty()) return std::nullopt;
  data::VenueId best_venue = counts.front().first;
  std::size_t best_count = 0;
  for (const auto& [venue, count] : counts) {
    if (count > best_count || (count == best_count && venue < best_venue)) {
      best_count = count;
      best_venue = venue;
    }
  }
  return best_venue;
}

}  // namespace crowdweb::crowd
