// The two-pass corpus load: the oracles the streaming load is checked
// against. parse_csv_per_char is the character loop that copied every
// field into a std::string; dataset_from_rows parses those rows into a
// dataset after the whole document is split, looking each category up
// by a linear scan of the taxonomy; parse_timestamp_by_fields parses
// every timestamp field with parse_int.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "data/categories.hpp"
#include "data/csv.hpp"
#include "data/dataset.hpp"
#include "util/status.hpp"

namespace crowdweb::data {

/// The whole document split into rows, one char at a time.
[[nodiscard]] Result<std::vector<CsvRow>> parse_csv_per_char(std::string_view text,
                                                             CsvOptions options = {});

/// dataset_from_csv as two passes: split both files, then build.
[[nodiscard]] Result<Dataset> dataset_from_rows(std::string_view venues_csv,
                                                std::string_view checkins_csv,
                                                const Taxonomy& taxonomy);

}  // namespace crowdweb::data

namespace crowdweb {

/// parse_timestamp with no fixed-width fast path.
[[nodiscard]] Result<std::int64_t> parse_timestamp_by_fields(std::string_view text);

}  // namespace crowdweb
