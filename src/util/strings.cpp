#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include "util/format.hpp"

namespace crowdweb {

std::vector<std::string_view> split(std::string_view text, char delim) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.push_back(text.substr(start));
      return fields;
    }
    fields.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) --end;
  return text.substr(begin, end - begin);
}

namespace {

template <typename Range>
std::string join_impl(const Range& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& part : parts) {
    if (!first) out += sep;
    first = false;
    out += part;
  }
  return out;
}

}  // namespace

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}

std::string join(const std::vector<std::string_view>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}

std::string to_lower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text)
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

Result<std::int64_t> parse_int(std::string_view text) {
  const std::string_view body = trim(text);
  if (body.empty()) return parse_error("empty integer");
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(body.data(), body.data() + body.size(), value);
  if (ec != std::errc{} || ptr != body.data() + body.size())
    return parse_error(crowdweb::format("not an integer: '{}'", text));
  return value;
}

Result<double> parse_double(std::string_view text) {
  const std::string_view body = trim(text);
  if (body.empty()) return parse_error("empty number");
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(body.data(), body.data() + body.size(), value);
  if (ec != std::errc{} || ptr != body.data() + body.size())
    return parse_error(crowdweb::format("not a number: '{}'", text));
  // "nan" and "inf" parse, but no caller has a use for them, and NaN
  // slips past every range check.
  if (!std::isfinite(value)) return parse_error(crowdweb::format("not finite: '{}'", text));
  return value;
}

namespace {

int hex_digit(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool is_unreserved(char c) noexcept {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '-' || c == '.' ||
         c == '_' || c == '~';
}

}  // namespace

Result<std::string> url_decode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%') {
      if (i + 2 >= text.size()) return parse_error("truncated percent escape");
      const int hi = hex_digit(text[i + 1]);
      const int lo = hex_digit(text[i + 2]);
      if (hi < 0 || lo < 0) return parse_error("invalid percent escape");
      out += static_cast<char>(hi * 16 + lo);
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

std::string url_encode(std::string_view text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (is_unreserved(c)) {
      out += c;
    } else {
      const auto byte = static_cast<unsigned char>(c);
      out += '%';
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    }
  }
  return out;
}

}  // namespace crowdweb
