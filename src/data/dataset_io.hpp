// Dataset (de)serialization in the CrowdWeb interchange format.
//
// Two CSV files mirror the Foursquare dump layout the paper ingests:
//
//   venues:   venue_id,name,category,lat,lon
//   checkins: user_id,venue_id,category,lat,lon,timestamp
//
// `category` is the category *name* (resolved against a taxonomy) and
// `timestamp` is "YYYY-MM-DD HH:MM:SS". Both files carry a header row.
#pragma once

#include <string>
#include <string_view>

#include "data/categories.hpp"
#include "data/dataset.hpp"

namespace crowdweb::data {

/// Serializes the venue table.
[[nodiscard]] std::string venues_to_csv(const Dataset& dataset, const Taxonomy& taxonomy);

/// Serializes the check-in table.
[[nodiscard]] std::string checkins_to_csv(const Dataset& dataset, const Taxonomy& taxonomy);

/// Parses both tables back into a dataset in one streaming pass: each
/// row goes into the builder as it is read, so no copy of the text is
/// kept. Fails on unknown categories, malformed rows, or check-ins
/// referencing missing venues. When an input has several faults, the
/// first in reading order wins: the venues file top to bottom, then the
/// check-ins file.
[[nodiscard]] Result<Dataset> dataset_from_csv(std::string_view venues_csv,
                                               std::string_view checkins_csv,
                                               const Taxonomy& taxonomy);

/// Writes `content` to `path` (overwrites).
[[nodiscard]] Status write_file(const std::string& path, std::string_view content);

/// Reads a whole file, up to EOF (procfs files, which report size 0,
/// included).
[[nodiscard]] Result<std::string> read_file(const std::string& path);

}  // namespace crowdweb::data
