// Representative venues by scanning: the oracle crowd::VenueTally's
// picks are checked against. It keys every record of a user's column
// by (label, window) once and answers each pick by scanning that key
// column, which is what phase 3 did before the counts were kept.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "mining/pattern.hpp"

namespace crowdweb::crowd {

/// Picks, per (label, window), the venue the user checked into most
/// often during that window; falls back to their most-visited venue of
/// that label at any time. Highest count wins, ties break toward the
/// smallest venue id. Labels are root categories. Reads `records`'
/// columns, which must outlive it.
class RepresentativeVenues {
 public:
  RepresentativeVenues(const data::Dataset::UserColumns& records, int window_minutes);

  [[nodiscard]] std::optional<data::VenueId> pick(mining::Item label, int window) const;

 private:
  std::span<const data::VenueId> venues_;  ///< the user's venue column
  std::vector<std::uint64_t> keys_;        ///< (label << 16) | window of each record
};

}  // namespace crowdweb::crowd
