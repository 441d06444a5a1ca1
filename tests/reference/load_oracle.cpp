#include "reference/load_oracle.hpp"

#include <initializer_list>
#include <optional>

#include "util/civil_time.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace crowdweb::data {

Result<std::vector<CsvRow>> parse_csv_per_char(std::string_view text, CsvOptions options) {
  std::vector<CsvRow> rows;
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool field_was_quoted = false;
  std::size_t line = 1;

  const auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_was_quoted = false;
  };
  const auto end_row = [&] {
    end_field();
    rows.push_back(std::move(row));
    row.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty() || field_was_quoted)
          return parse_error(crowdweb::format("stray quote at line {}", line));
        in_quotes = true;
        field_was_quoted = true;
        break;
      case '\r':
        // Swallow CR of CRLF; a bare CR is treated as a row break too.
        if (i + 1 < text.size() && text[i + 1] == '\n') break;
        [[fallthrough]];
      case '\n':
        end_row();
        ++line;
        break;
      default:
        if (c == options.delimiter) {
          end_field();
        } else {
          field += c;
        }
    }
  }
  if (in_quotes) return parse_error(crowdweb::format("unterminated quote at line {}", line));
  // Flush a final row without trailing newline.
  if (!field.empty() || field_was_quoted || !row.empty()) end_row();
  return rows;
}

namespace {

std::optional<CategoryId> find_by_scan(const Taxonomy& taxonomy, std::string_view name) {
  for (std::size_t id = 0; id < taxonomy.size(); ++id) {
    const Category& category = taxonomy.category(static_cast<CategoryId>(id));
    if (category.name == name) return category.id;
  }
  return std::nullopt;
}

Status check_header(const CsvRow& row, std::initializer_list<std::string_view> expected,
                    std::string_view what) {
  if (row.size() != expected.size())
    return parse_error(crowdweb::format("{} header has {} fields, expected {}", what,
                                        row.size(), expected.size()));
  std::size_t i = 0;
  for (const std::string_view name : expected) {
    if (row[i] != name)
      return parse_error(
          crowdweb::format("{} header field {} is '{}', expected '{}'", what, i, row[i], name));
    ++i;
  }
  return Status::ok();
}

}  // namespace

Result<Dataset> dataset_from_rows(std::string_view venues_csv, std::string_view checkins_csv,
                                  const Taxonomy& taxonomy) {
  auto venue_rows = parse_csv_per_char(venues_csv);
  if (!venue_rows) return venue_rows.status();
  auto checkin_rows = parse_csv_per_char(checkins_csv);
  if (!checkin_rows) return checkin_rows.status();
  if (venue_rows->empty()) return parse_error("venues file is empty");
  if (checkin_rows->empty()) return parse_error("checkins file is empty");

  Status status =
      check_header((*venue_rows)[0], {"venue_id", "name", "category", "lat", "lon"}, "venues");
  if (!status.is_ok()) return status;
  status = check_header((*checkin_rows)[0],
                        {"user_id", "venue_id", "category", "lat", "lon", "timestamp"},
                        "checkins");
  if (!status.is_ok()) return status;

  DatasetBuilder builder;
  for (std::size_t i = 1; i < venue_rows->size(); ++i) {
    const CsvRow& row = (*venue_rows)[i];
    if (row.size() != 5)
      return parse_error(crowdweb::format("venues row {} has {} fields", i + 1, row.size()));
    const auto id = parse_int(row[0]);
    const auto lat = parse_double(row[3]);
    const auto lon = parse_double(row[4]);
    const auto category = find_by_scan(taxonomy, row[2]);
    if (!id || !lat || !lon)
      return parse_error(crowdweb::format("venues row {} is malformed", i + 1));
    if (!category)
      return parse_error(crowdweb::format("venues row {}: unknown category '{}'", i + 1, row[2]));
    VenueSpec venue;
    venue.id = static_cast<VenueId>(*id);
    venue.name = row[1];
    venue.category = *category;
    venue.position = {*lat, *lon};
    status = builder.add_venue(venue);
    if (!status.is_ok()) return status;
  }

  for (std::size_t i = 1; i < checkin_rows->size(); ++i) {
    const CsvRow& row = (*checkin_rows)[i];
    if (row.size() != 6)
      return parse_error(crowdweb::format("checkins row {} has {} fields", i + 1, row.size()));
    const auto user = parse_int(row[0]);
    const auto venue = parse_int(row[1]);
    const auto category = find_by_scan(taxonomy, row[2]);
    const auto lat = parse_double(row[3]);
    const auto lon = parse_double(row[4]);
    const auto timestamp = parse_timestamp_by_fields(row[5]);
    if (!user || !venue || !lat || !lon || !timestamp)
      return parse_error(crowdweb::format("checkins row {} is malformed", i + 1));
    if (!category)
      return parse_error(
          crowdweb::format("checkins row {}: unknown category '{}'", i + 1, row[2]));
    CheckIn checkin;
    checkin.user = static_cast<UserId>(*user);
    checkin.venue = static_cast<VenueId>(*venue);
    checkin.category = *category;
    checkin.position = {*lat, *lon};
    checkin.timestamp = *timestamp;
    status = builder.add_checkin(checkin);
    if (!status.is_ok())
      return parse_error(
          crowdweb::format("checkins row {}: {}", i + 1, status.to_string()));
  }
  return builder.build();
}

}  // namespace crowdweb::data

namespace crowdweb {

Result<std::int64_t> parse_timestamp_by_fields(std::string_view text) {
  const std::string_view body = trim(text);
  if (body.size() != 10 && body.size() != 19)
    return parse_error(crowdweb::format("bad timestamp length: '{}'", text));

  const auto field = [&](std::size_t pos, std::size_t len) -> Result<std::int64_t> {
    return parse_int(body.substr(pos, len));
  };

  const auto year = field(0, 4);
  const auto month = field(5, 2);
  const auto day = field(8, 2);
  if (!year || !month || !day || body[4] != '-' || body[7] != '-')
    return parse_error(crowdweb::format("bad date: '{}'", text));

  CivilTime civil;
  civil.year = static_cast<int>(*year);
  civil.month = static_cast<int>(*month);
  civil.day = static_cast<int>(*day);
  if (civil.month < 1 || civil.month > 12)
    return out_of_range(crowdweb::format("month out of range: '{}'", text));
  if (civil.day < 1 || civil.day > days_in_month(civil.year, civil.month))
    return out_of_range(crowdweb::format("day out of range: '{}'", text));

  if (body.size() == 19) {
    if (body[10] != ' ' && body[10] != 'T')
      return parse_error(crowdweb::format("bad separator: '{}'", text));
    const auto hour = field(11, 2);
    const auto minute = field(14, 2);
    const auto second = field(17, 2);
    if (!hour || !minute || !second || body[13] != ':' || body[16] != ':')
      return parse_error(crowdweb::format("bad time: '{}'", text));
    civil.hour = static_cast<int>(*hour);
    civil.minute = static_cast<int>(*minute);
    civil.second = static_cast<int>(*second);
    if (civil.hour > 23 || civil.minute > 59 || civil.second > 59 || civil.hour < 0 ||
        civil.minute < 0 || civil.second < 0)
      return out_of_range(crowdweb::format("time out of range: '{}'", text));
  }
  return to_epoch_seconds(civil);
}

}  // namespace crowdweb
