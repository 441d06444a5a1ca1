#include "json/json.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include "util/format.hpp"

namespace crowdweb::json {

const Value* Value::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Value::set(std::string key, Value value) {
  if (is_null()) storage_ = Object{};
  assert(is_object() && "Value::set on a non-object");
  for (auto& [k, v] : as_object()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  as_object().emplace_back(std::move(key), std::move(value));
}

void Value::push_back(Value value) {
  if (is_null()) storage_ = Array{};
  assert(is_array() && "Value::push_back on a non-array");
  as_array().push_back(std::move(value));
}

Value object(std::initializer_list<std::pair<std::string, Value>> members) {
  Object obj;
  obj.reserve(members.size());
  for (const auto& member : members) obj.push_back(member);
  return Value{std::move(obj)};
}

Value array(std::initializer_list<Value> items) {
  return Value{Array(items)};
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, const ParseOptions& options)
      : text_(text), options_(options) {}

  Result<Value> run() {
    auto value = parse_value();
    if (!value) return value;
    skip_whitespace();
    if (pos_ != text_.size())
      return fail("trailing characters after JSON document");
    return value;
  }

 private:
  Status fail_status(std::string_view what) const {
    return parse_error(crowdweb::format("{} at offset {}", what, pos_));
  }
  Result<Value> fail(std::string_view what) const { return fail_status(what); }

  void skip_whitespace() noexcept {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) noexcept {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) noexcept {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<Value> parse_value() {
    if (++depth_ > options_.max_depth) return fail("nesting too deep");
    struct DepthGuard {
      std::size_t& depth;
      ~DepthGuard() { --depth; }
    } guard{depth_};

    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (consume_literal("null")) return Value{nullptr};
        return fail("invalid literal");
      case 't':
        if (consume_literal("true")) return Value{true};
        return fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value{false};
        return fail("invalid literal");
      case '"':
        return parse_string_value();
      case '[':
        return parse_array();
      case '{':
        return parse_object();
      default:
        return parse_number();
    }
  }

  Result<Value> parse_array() {
    ++pos_;  // '['
    Array items;
    skip_whitespace();
    if (consume(']')) return Value{std::move(items)};
    while (true) {
      auto item = parse_value();
      if (!item) return item;
      items.push_back(std::move(item).value());
      skip_whitespace();
      if (consume(']')) return Value{std::move(items)};
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  Result<Value> parse_object() {
    ++pos_;  // '{'
    Object members;
    skip_whitespace();
    if (consume('}')) return Value{std::move(members)};
    while (true) {
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected string key in object");
      auto key = parse_raw_string();
      if (!key) return key.status();
      skip_whitespace();
      if (!consume(':')) return fail("expected ':' after object key");
      auto value = parse_value();
      if (!value) return value;
      members.emplace_back(std::move(key).value(), std::move(value).value());
      skip_whitespace();
      if (consume('}')) return Value{std::move(members)};
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  Result<Value> parse_string_value() {
    auto raw = parse_raw_string();
    if (!raw) return raw.status();
    return Value{std::move(raw).value()};
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Result<std::uint32_t> parse_hex4() {
    if (pos_ + 4 > text_.size()) return fail_status("truncated \\u escape");
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      cp <<= 4;
      if (c >= '0' && c <= '9')
        cp |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        return fail_status("invalid \\u escape");
    }
    pos_ += 4;
    return cp;
  }

  Result<std::string> parse_raw_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return fail_status("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail_status("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail_status("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          auto cp = parse_hex4();
          if (!cp) return cp.status();
          std::uint32_t code = *cp;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: require a following \uXXXX low surrogate.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
              return fail_status("unpaired surrogate");
            pos_ += 2;
            auto low = parse_hex4();
            if (!low) return low.status();
            if (*low < 0xDC00 || *low > 0xDFFF) return fail_status("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (*low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail_status("unpaired surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          return fail_status("invalid escape character");
      }
    }
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
      // sign consumed
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
      return fail("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    bool is_floating = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_floating = true;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        return fail("invalid fraction");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_floating = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        return fail("invalid exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!is_floating) {
      std::int64_t integer = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), integer);
      if (ec == std::errc{} && ptr == token.data() + token.size()) return Value{integer};
      // Fall through to double on overflow.
    }
    double number = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), number);
    if (ec != std::errc{} || ptr != token.data() + token.size())
      return fail("invalid number");
    return Value{number};
  }

  std::string_view text_;
  ParseOptions options_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

void dump_value(const Value& value, const DumpOptions& options, int level, std::string& out);

void append_indent(const DumpOptions& options, int level, std::string& out) {
  if (options.indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(options.indent) * static_cast<std::size_t>(level), ' ');
}

void dump_value(const Value& value, const DumpOptions& options, int level, std::string& out) {
  switch (value.type()) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case Type::kInt:
      append_int(out, value.as_int());
      return;
    case Type::kDouble:
      append_double(out, value.as_double());
      return;
    case Type::kString:
      out += '"';
      append_escaped(out, value.as_string());
      out += '"';
      return;
    case Type::kArray: {
      const Array& items = value.as_array();
      if (items.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        append_indent(options, level + 1, out);
        dump_value(items[i], options, level + 1, out);
      }
      append_indent(options, level, out);
      out += ']';
      return;
    }
    case Type::kObject: {
      const Object& members = value.as_object();
      if (members.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += ',';
        append_indent(options, level + 1, out);
        out += '"';
        append_escaped(out, members[i].first);
        out += "\":";
        if (options.indent > 0) out += ' ';
        dump_value(members[i].second, options, level + 1, out);
      }
      append_indent(options, level, out);
      out += '}';
      return;
    }
  }
}

}  // namespace

Result<Value> parse(std::string_view text, ParseOptions options) {
  return Parser(text, options).run();
}

std::string dump(const Value& value, DumpOptions options) {
  std::string out;
  dump_value(value, options, 0, out);
  return out;
}

void append_int(std::string& out, std::int64_t value) {
  char buffer[24];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, end);
}

void append_double(std::string& out, double value) {
  if (std::isnan(value) || std::isinf(value)) {
    // JSON has no NaN/Inf; emit null (matches common library behaviour).
    out += "null";
    return;
  }
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  const std::string_view token(buffer, static_cast<std::size_t>(end - buffer));
  out += token;
  if (token.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

void append_escaped(std::string& out, std::string_view text) {
  // Clean runs are copied whole; only '"', '\\' and control bytes are
  // rewritten.
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
}

}  // namespace crowdweb::json
