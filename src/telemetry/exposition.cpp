#include "telemetry/exposition.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace crowdweb::telemetry {

namespace {

/// Shortest round-trip decimal for a double, with Prometheus spellings
/// for the specials.
std::string number(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("NaN");
}

std::string number(std::uint64_t value) {
  char buffer[24];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("0");
}

/// Escapes a label value: backslash, double quote, newline.
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// Renders `{a="x",b="y"}` (empty when there are no labels). `extra` is
/// an optional trailing pair rendered verbatim-escaped (used for `le`).
std::string label_block(const std::vector<std::string>& names,
                        const std::vector<std::string>& values,
                        std::string_view extra_name = {}, std::string_view extra_value = {}) {
  if (names.empty() && extra_name.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ',';
    out += names[i];
    out += "=\"";
    append_escaped(out, i < values.size() ? values[i] : std::string());
    out += '"';
  }
  if (!extra_name.empty()) {
    if (!names.empty()) out += ',';
    out += extra_name;
    out += "=\"";
    append_escaped(out, extra_value);
    out += '"';
  }
  out += '}';
  return out;
}

void append_header(std::string& out, const std::string& name, const std::string& help,
                   std::string_view type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  for (const char c : help) {  // HELP escapes backslash and newline only
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  out += '\n';
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

json::Value labels_json(const std::vector<std::string>& names,
                        const std::vector<std::string>& values) {
  json::Value labels = json::Value(json::Object{});
  for (std::size_t i = 0; i < names.size(); ++i)
    labels.set(names[i], i < values.size() ? values[i] : std::string());
  return labels;
}

}  // namespace

/// Friend of Registry: walks the entries under the registry mutex and
/// renders each family in registration order.
class ExpositionWalker {
 public:
  static std::string prometheus(const Registry& registry) {
    const std::lock_guard<std::mutex> lock(registry.mutex_);
    std::string out;
    out.reserve(4096);
    for (const auto& entry : registry.entries_) {
      switch (entry->kind) {
        case Registry::Kind::kCounter: {
          append_header(out, entry->name, entry->help, "counter");
          for (const auto& [values, series] : entry->counters->snapshot()) {
            out += entry->name;
            out += label_block(entry->counters->label_names(), values);
            out += ' ';
            out += number(series->value());
            out += '\n';
          }
          break;
        }
        case Registry::Kind::kGauge: {
          append_header(out, entry->name, entry->help, "gauge");
          for (const auto& [values, series] : entry->gauges->snapshot()) {
            out += entry->name;
            out += label_block(entry->gauges->label_names(), values);
            out += ' ';
            out += number(series->value());
            out += '\n';
          }
          break;
        }
        case Registry::Kind::kHistogram: {
          append_header(out, entry->name, entry->help, "histogram");
          const auto& names = entry->histograms->label_names();
          for (const auto& [values, series] : entry->histograms->snapshot()) {
            const std::vector<double>& bounds = series->bounds();
            // One cell snapshot so cumulative buckets and _count agree.
            std::uint64_t cumulative = 0;
            std::vector<std::uint64_t> cells(bounds.size() + 1);
            for (std::size_t i = 0; i <= bounds.size(); ++i) cells[i] = series->cell(i);
            for (std::size_t i = 0; i < bounds.size(); ++i) {
              cumulative += cells[i];
              out += entry->name;
              out += "_bucket";
              out += label_block(names, values, "le", number(bounds[i]));
              out += ' ';
              out += number(cumulative);
              out += '\n';
            }
            cumulative += cells[bounds.size()];
            out += entry->name;
            out += "_bucket";
            out += label_block(names, values, "le", "+Inf");
            out += ' ';
            out += number(cumulative);
            out += '\n';
            out += entry->name;
            out += "_sum";
            out += label_block(names, values);
            out += ' ';
            out += number(series->sum());
            out += '\n';
            out += entry->name;
            out += "_count";
            out += label_block(names, values);
            out += ' ';
            out += number(cumulative);
            out += '\n';
          }
          break;
        }
      }
    }
    return out;
  }

  static json::Value json(const Registry& registry) {
    const std::lock_guard<std::mutex> lock(registry.mutex_);
    json::Value root = json::Value(json::Object{});
    for (const auto& entry : registry.entries_) {
      json::Value metric = json::Value(json::Object{});
      metric.set("help", entry->help);
      switch (entry->kind) {
        case Registry::Kind::kCounter: {
          metric.set("type", "counter");
          json::Value series_list = json::Value(json::Array{});
          for (const auto& [values, series] : entry->counters->snapshot()) {
            series_list.push_back(json::object(
                {{"labels", labels_json(entry->counters->label_names(), values)},
                 {"value", static_cast<std::int64_t>(series->value())}}));
          }
          metric.set("series", std::move(series_list));
          break;
        }
        case Registry::Kind::kGauge: {
          metric.set("type", "gauge");
          json::Value series_list = json::Value(json::Array{});
          for (const auto& [values, series] : entry->gauges->snapshot()) {
            series_list.push_back(json::object(
                {{"labels", labels_json(entry->gauges->label_names(), values)},
                 {"value", series->value()}}));
          }
          metric.set("series", std::move(series_list));
          break;
        }
        case Registry::Kind::kHistogram: {
          metric.set("type", "histogram");
          json::Value series_list = json::Value(json::Array{});
          for (const auto& [values, series] : entry->histograms->snapshot()) {
            const std::vector<double>& bounds = series->bounds();
            json::Value buckets = json::Value(json::Array{});
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < bounds.size(); ++i) {
              cumulative += series->cell(i);
              buckets.push_back(
                  json::object({{"le", bounds[i]},
                                {"count", static_cast<std::int64_t>(cumulative)}}));
            }
            cumulative += series->cell(bounds.size());
            series_list.push_back(json::object(
                {{"labels", labels_json(entry->histograms->label_names(), values)},
                 {"count", static_cast<std::int64_t>(cumulative)},
                 {"sum", series->sum()},
                 {"buckets", std::move(buckets)}}));
          }
          metric.set("series", std::move(series_list));
          break;
        }
      }
      root.set(entry->name, std::move(metric));
    }
    return root;
  }
};

std::string render_prometheus(const Registry& registry) {
  return ExpositionWalker::prometheus(registry);
}

json::Value render_json(const Registry& registry) {
  return ExpositionWalker::json(registry);
}

}  // namespace crowdweb::telemetry
