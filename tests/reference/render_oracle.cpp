#include "reference/render_oracle.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/format.hpp"

namespace crowdweb::json {

namespace {

void append_indent(const DumpOptions& options, int level, std::string& out) {
  if (options.indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(options.indent) * static_cast<std::size_t>(level), ' ');
}

void dump_double(double d, std::string& out) {
  if (std::isnan(d) || std::isinf(d)) {
    out += "null";
    return;
  }
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, d);
  std::string_view token(buffer, static_cast<std::size_t>(ptr - buffer));
  out += token;
  if (token.find_first_of(".eE") == std::string_view::npos) out += ".0";
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
      out += crowdweb::format("{}", value.as_int());
      return;
    case Type::kDouble:
      dump_double(value.as_double(), out);
      return;
    case Type::kString:
      out += '"';
      out += escape_string_per_char(value.as_string());
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
        out += escape_string_per_char(members[i].first);
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

std::string dump_per_token(const Value& value, DumpOptions options) {
  std::string out;
  dump_value(value, options, 0, out);
  return out;
}

std::string escape_string_per_char(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += crowdweb::format("\\u{:04x}", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace crowdweb::json

namespace crowdweb::telemetry {

namespace {

json::Value labels_json(const std::vector<std::string>& names,
                        const std::vector<std::string>& values) {
  json::Value labels = json::Value(json::Object{});
  for (std::size_t i = 0; i < names.size(); ++i)
    labels.set(names[i], i < values.size() ? values[i] : std::string());
  return labels;
}

}  // namespace

json::Value render_json_tree(const Registry& registry) {
  json::Value root = json::Value(json::Object{});
  registry.for_each_family([&](const Registry::Entry& entry) {
    json::Value metric = json::Value(json::Object{});
    metric.set("help", entry.help);
    json::Value series_list = json::Value(json::Array{});
    switch (entry.kind) {
      case Registry::Kind::kCounter:
        metric.set("type", "counter");
        entry.counters->for_each_series(
            [&](const std::vector<std::string>& values, const Counter& series) {
              series_list.push_back(json::object(
                  {{"labels", labels_json(entry.counters->label_names(), values)},
                   {"value", static_cast<std::int64_t>(series.value())}}));
            });
        break;
      case Registry::Kind::kGauge:
        metric.set("type", "gauge");
        entry.gauges->for_each_series(
            [&](const std::vector<std::string>& values, const Gauge& series) {
              series_list.push_back(json::object(
                  {{"labels", labels_json(entry.gauges->label_names(), values)},
                   {"value", series.value()}}));
            });
        break;
      case Registry::Kind::kHistogram:
        metric.set("type", "histogram");
        entry.histograms->for_each_series(
            [&](const std::vector<std::string>& values, const Histogram& series) {
              const std::vector<double>& bounds = series.bounds();
              json::Value buckets = json::Value(json::Array{});
              std::uint64_t cumulative = 0;
              for (std::size_t i = 0; i < bounds.size(); ++i) {
                cumulative += series.cell(i);
                buckets.push_back(
                    json::object({{"le", bounds[i]},
                                  {"count", static_cast<std::int64_t>(cumulative)}}));
              }
              cumulative += series.cell(bounds.size());
              series_list.push_back(json::object(
                  {{"labels", labels_json(entry.histograms->label_names(), values)},
                   {"count", static_cast<std::int64_t>(cumulative)},
                   {"sum", series.sum()},
                   {"buckets", std::move(buckets)}}));
            });
        break;
    }
    metric.set("series", std::move(series_list));
    root.set(entry.name, std::move(metric));
  });
  return root;
}

}  // namespace crowdweb::telemetry

namespace crowdweb::viz {

std::string format_number_2f(double value) {
  if (!std::isfinite(value)) return "0";
  return crowdweb::format("{:.2f}", value);
}

}  // namespace crowdweb::viz
