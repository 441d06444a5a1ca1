#include "data/dataset_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "data/csv.hpp"
#include "util/civil_time.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace crowdweb::data {

namespace {

std::string double_to_string(double value) {
  return crowdweb::format("{:.7f}", value);
}

}  // namespace

std::string venues_to_csv(const Dataset& dataset, const Taxonomy& taxonomy) {
  std::vector<CsvRow> rows;
  rows.push_back({"venue_id", "name", "category", "lat", "lon"});
  for (const Venue& v : dataset.venues()) {
    rows.push_back({std::to_string(v.id), std::string(dataset.name(v.name)),
                    taxonomy.name(v.category), double_to_string(v.position.lat),
                    double_to_string(v.position.lon)});
  }
  return write_csv(rows);
}

std::string checkins_to_csv(const Dataset& dataset, const Taxonomy& taxonomy) {
  std::vector<CsvRow> rows;
  rows.push_back({"user_id", "venue_id", "category", "lat", "lon", "timestamp"});
  for (const CheckIn& c : dataset.checkins()) {
    rows.push_back({std::to_string(c.user), std::to_string(c.venue),
                    taxonomy.name(c.category), double_to_string(c.position.lat),
                    double_to_string(c.position.lon), format_timestamp(c.timestamp)});
  }
  return write_csv(rows);
}

namespace {

Status check_header(std::span<const std::string_view> row,
                    std::initializer_list<std::string_view> expected, std::string_view what) {
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

/// Reads one table: checks its header row against `header`, then hands
/// every data row to `add_row` with its 1-based row number.
template <typename AddRow>
Status read_table(std::string_view text, std::initializer_list<std::string_view> header,
                  std::string_view what, AddRow add_row) {
  CsvReader reader(text);
  auto row = reader.next();
  if (!row) return row.status();
  if (row->empty()) return parse_error(crowdweb::format("{} file is empty", what));
  if (Status status = check_header(*row, header, what); !status.is_ok()) return status;
  for (;;) {
    row = reader.next();
    if (!row) return row.status();
    if (row->empty()) return Status::ok();
    if (Status status = add_row(*row, reader.row_number()); !status.is_ok()) return status;
  }
}

Status add_venue_row(std::span<const std::string_view> row, std::size_t number,
                     const Taxonomy& taxonomy, DatasetBuilder& builder) {
  if (row.size() != 5)
    return parse_error(crowdweb::format("venues row {} has {} fields", number, row.size()));
  const auto id = parse_int(row[0]);
  const auto lat = parse_double(row[3]);
  const auto lon = parse_double(row[4]);
  const auto category = taxonomy.find(row[2]);
  if (!id || !lat || !lon)
    return parse_error(crowdweb::format("venues row {} is malformed", number));
  if (!category)
    return parse_error(
        crowdweb::format("venues row {}: unknown category '{}'", number, row[2]));
  VenueSpec venue;
  venue.id = static_cast<VenueId>(*id);
  venue.name = row[1];
  venue.category = *category;
  venue.position = {*lat, *lon};
  return builder.add_venue(venue);
}

Status add_checkin_row(std::span<const std::string_view> row, std::size_t number,
                       const Taxonomy& taxonomy, DatasetBuilder& builder) {
  if (row.size() != 6)
    return parse_error(crowdweb::format("checkins row {} has {} fields", number, row.size()));
  const auto user = parse_int(row[0]);
  const auto venue = parse_int(row[1]);
  const auto category = taxonomy.find(row[2]);
  const auto lat = parse_double(row[3]);
  const auto lon = parse_double(row[4]);
  const auto timestamp = parse_timestamp(row[5]);
  if (!user || !venue || !lat || !lon || !timestamp)
    return parse_error(crowdweb::format("checkins row {} is malformed", number));
  if (!category)
    return parse_error(
        crowdweb::format("checkins row {}: unknown category '{}'", number, row[2]));
  CheckIn checkin;
  checkin.user = static_cast<UserId>(*user);
  checkin.venue = static_cast<VenueId>(*venue);
  checkin.category = *category;
  checkin.position = {*lat, *lon};
  checkin.timestamp = *timestamp;
  if (Status status = builder.add_checkin(checkin); !status.is_ok())
    return parse_error(crowdweb::format("checkins row {}: {}", number, status.to_string()));
  return Status::ok();
}

}  // namespace

Result<Dataset> dataset_from_csv(std::string_view venues_csv, std::string_view checkins_csv,
                                 const Taxonomy& taxonomy) {
  DatasetBuilder builder;
  Status status = read_table(
      venues_csv, {"venue_id", "name", "category", "lat", "lon"}, "venues",
      [&](std::span<const std::string_view> row, std::size_t number) {
        return add_venue_row(row, number, taxonomy, builder);
      });
  if (!status.is_ok()) return status;
  status = read_table(
      checkins_csv, {"user_id", "venue_id", "category", "lat", "lon", "timestamp"},
      "checkins", [&](std::span<const std::string_view> row, std::size_t number) {
        return add_checkin_row(row, number, taxonomy, builder);
      });
  if (!status.is_ok()) return status;
  return builder.build();
}

Status write_file(const std::string& path, std::string_view content) {
  // Atomic replace: write a temp file in the same directory, fsync it,
  // rename over the target, then fsync the directory so the rename
  // itself survives a crash. Readers never observe a half-written file.
  const std::filesystem::path target(path);
  const std::filesystem::path dir =
      target.has_parent_path() ? target.parent_path() : std::filesystem::path(".");
  const std::string tmp_path =
      (dir / (target.filename().string() + ".tmp." +
              crowdweb::format("{}", static_cast<unsigned long long>(::getpid()))))
          .string();

  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return io_error(crowdweb::format("cannot open '{}' for writing: {}", tmp_path,
                                     std::strerror(errno)));
  }
  std::string_view rest = content;
  while (!rest.empty()) {
    const ssize_t n = ::write(fd, rest.data(), rest.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status =
          io_error(crowdweb::format("write to '{}': {}", tmp_path, std::strerror(errno)));
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return status;
    }
    rest.remove_prefix(static_cast<std::size_t>(n));
  }
  if (::fsync(fd) != 0) {
    const Status status =
        io_error(crowdweb::format("fsync '{}': {}", tmp_path, std::strerror(errno)));
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return status;
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status status = io_error(
        crowdweb::format("rename '{}' -> '{}': {}", tmp_path, path, std::strerror(errno)));
    ::unlink(tmp_path.c_str());
    return status;
  }
  const int dir_fd = ::open(dir.string().c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // best effort: some filesystems refuse directory fsync
    ::close(dir_fd);
  }
  return Status::ok();
}

Result<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return io_error(crowdweb::format("cannot open '{}'", path));
  // Size the buffer from the file, one byte over so the EOF read lands
  // in it, but read until EOF: procfs files report size 0.
  struct stat info {};
  std::size_t capacity = 4096;
  if (::fstat(fd, &info) == 0 && info.st_size > 0)
    capacity = static_cast<std::size_t>(info.st_size) + 1;
  std::string content(capacity, '\0');
  std::size_t size = 0;
  for (;;) {
    if (size == content.size()) content.resize(2 * content.size());
    const ssize_t n = ::read(fd, content.data() + size, content.size() - size);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return io_error(crowdweb::format("read error on '{}'", path));
    }
    if (n == 0) break;
    size += static_cast<std::size_t>(n);
  }
  ::close(fd);
  content.resize(size);
  return content;
}

}  // namespace crowdweb::data
