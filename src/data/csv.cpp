#include "data/csv.hpp"

#include "util/format.hpp"

namespace crowdweb::data {

CsvReader::CsvReader(std::string_view text, CsvOptions options) noexcept
    : text_(text) {
  for (const char c : {options.delimiter, '"', '\r', '\n'})
    ends_field_[static_cast<unsigned char>(c)] = true;
}

Status CsvReader::fail(std::string_view what) {
  pos_ = text_.size();
  return parse_error(crowdweb::format("{} at line {}", what, line_));
}

Result<std::span<const std::string_view>> CsvReader::next() {
  fields_.clear();
  owned_.clear();
  unescaped_.clear();
  const std::size_t n = text_.size();
  std::size_t i = pos_;
  if (i >= n) return std::span<const std::string_view>{};

  for (;;) {
    if (text_[i] == '"') {
      // Quoted: unescape into the owned buffer up to the closing quote.
      const std::size_t offset = unescaped_.size();
      for (++i;; ++i) {
        if (i >= n) return fail("unterminated quote");
        const char c = text_[i];
        if (c == '"') {
          if (i + 1 < n && text_[i + 1] == '"') {
            ++i;
          } else {
            break;
          }
        } else if (c == '\n') {
          ++line_;
        }
        unescaped_ += c;
      }
      // Text after the closing quote joins the field.
      for (++i; i < n; ++i) {
        const char c = text_[i];
        if (c == '"') return fail("stray quote");
        if (ends_field_[static_cast<unsigned char>(c)]) break;
        unescaped_ += c;
      }
      owned_.push_back({fields_.size(), offset, unescaped_.size() - offset});
      fields_.emplace_back();
    } else {
      const std::size_t begin = i;
      while (i < n && !ends_field_[static_cast<unsigned char>(text_[i])]) ++i;
      if (i < n && text_[i] == '"') return fail("stray quote");
      fields_.push_back(text_.substr(begin, i - begin));
    }

    if (i >= n) break;  // a final row without a newline
    const char c = text_[i++];
    if (c == '\r' || c == '\n') {
      if (c == '\r' && i < n && text_[i] == '\n') ++i;  // CRLF is one break
      ++line_;
      break;
    }
    // The delimiter: another field follows, empty at the end of input.
    if (i >= n) {
      fields_.emplace_back();
      break;
    }
  }
  pos_ = i;
  for (const OwnedField& field : owned_)
    fields_[field.index] = std::string_view(unescaped_).substr(field.offset, field.size);
  ++rows_;
  return std::span<const std::string_view>(fields_);
}

Result<std::vector<CsvRow>> parse_csv(std::string_view text, CsvOptions options) {
  CsvReader reader(text, options);
  std::vector<CsvRow> rows;
  for (;;) {
    const auto row = reader.next();
    if (!row) return row.status();
    if (row->empty()) return rows;
    rows.emplace_back(row->begin(), row->end());
  }
}

std::string csv_escape(std::string_view field, char delimiter) {
  const bool needs_quoting =
      field.find_first_of("\"\r\n") != std::string_view::npos ||
      field.find(delimiter) != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string write_csv(const std::vector<CsvRow>& rows, CsvOptions options) {
  std::string out;
  for (const CsvRow& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += options.delimiter;
      out += csv_escape(row[i], options.delimiter);
    }
    out += '\n';
  }
  return out;
}

}  // namespace crowdweb::data
