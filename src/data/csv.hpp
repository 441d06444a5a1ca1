// RFC 4180-style CSV reading and writing.
//
// Used to persist datasets and benchmark series. Fields containing the
// delimiter, quotes, or newlines are quoted; quotes are doubled. The
// reader handles quoted fields spanning lines and reports the line on
// failure.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace crowdweb::data {

using CsvRow = std::vector<std::string>;

struct CsvOptions {
  char delimiter = ',';
};

/// Streams a CSV document one row at a time, without copying it.
///
/// Rules: a field that starts with '"' is quoted and may hold the
/// delimiter, CR and LF; '""' inside it is one quote, and text after
/// its closing quote (up to the delimiter or row end) is appended. A
/// quote anywhere else is an error. CRLF and a bare CR end a row like
/// LF does; a final row needs no newline; empty input has no rows.
/// '"', CR and LF are never delimiters.
///
/// Lifetime: an unquoted field is a view into the input, which must
/// outlive the reader. A quoted field is unescaped into a buffer the
/// reader owns. Every view of a row stays valid only until the next
/// call to next().
class CsvReader {
 public:
  explicit CsvReader(std::string_view text, CsvOptions options = {}) noexcept;

  /// The next row's fields (a row has at least one), or an empty span
  /// at the end of the input. Fails with "stray quote at line N" or
  /// "unterminated quote at line N", N counting physical lines from 1;
  /// after a failure the reader is at the end.
  [[nodiscard]] Result<std::span<const std::string_view>> next();

  /// 1-based number of the row next() returned last (0 before the
  /// first row).
  [[nodiscard]] std::size_t row_number() const noexcept { return rows_; }

 private:
  /// A quoted field's place in the row and in `unescaped_`; its view is
  /// made once the row is complete, as appending may move the buffer.
  struct OwnedField {
    std::size_t index;
    std::size_t offset;
    std::size_t size;
  };

  Status fail(std::string_view what);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t rows_ = 0;
  std::array<bool, 256> ends_field_{};  ///< delimiter, '"', CR, LF
  std::vector<std::string_view> fields_;
  std::vector<OwnedField> owned_;
  std::string unescaped_;
};

/// Parses a full CSV document into rows (CsvReader's rules), copying
/// every field.
[[nodiscard]] Result<std::vector<CsvRow>> parse_csv(std::string_view text,
                                                    CsvOptions options = {});

/// Serializes rows; every output row ends with '\n'.
[[nodiscard]] std::string write_csv(const std::vector<CsvRow>& rows, CsvOptions options = {});

/// Quotes a single field if needed.
[[nodiscard]] std::string csv_escape(std::string_view field, char delimiter = ',');

}  // namespace crowdweb::data
