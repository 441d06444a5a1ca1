#include "telemetry/exposition.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"

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

void append_json_key(std::string& out, std::string_view key) {
  out += '"';
  json::append_escaped(out, key);
  out += "\":";
}

/// `"labels":{"name":"value",...}` for one series.
void append_json_labels(std::string& out, const std::vector<std::string>& names,
                        const std::vector<std::string>& values) {
  out += "\"labels\":{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ',';
    append_json_key(out, names[i]);
    out += '"';
    json::append_escaped(out, i < values.size() ? std::string_view(values[i]) : "");
    out += '"';
  }
  out += '}';
}

/// Appends `"series":[{"labels":{...}<rest>},...]` for a family;
/// `rest(series)` appends the members after the labels, each led by a
/// comma.
template <typename T, typename Rest>
void append_json_series(std::string& out, const Family<T>& family, Rest&& rest) {
  out += "\"series\":[";
  bool first = true;
  family.for_each_series([&](const std::vector<std::string>& values, const T& series) {
    if (!first) out += ',';
    first = false;
    out += '{';
    append_json_labels(out, family.label_names(), values);
    rest(series);
    out += '}';
  });
  out += ']';
}

}  // namespace

std::string render_prometheus(const Registry& registry) {
  std::string out;
  out.reserve(4096);
  registry.for_each_family([&](const Registry::Entry& entry) {
    switch (entry.kind) {
      case Registry::Kind::kCounter: {
        append_header(out, entry.name, entry.help, "counter");
        const auto& names = entry.counters->label_names();
        entry.counters->for_each_series(
            [&](const std::vector<std::string>& values, const Counter& series) {
              out += entry.name;
              out += label_block(names, values);
              out += ' ';
              out += number(series.value());
              out += '\n';
            });
        break;
      }
      case Registry::Kind::kGauge: {
        append_header(out, entry.name, entry.help, "gauge");
        const auto& names = entry.gauges->label_names();
        entry.gauges->for_each_series(
            [&](const std::vector<std::string>& values, const Gauge& series) {
              out += entry.name;
              out += label_block(names, values);
              out += ' ';
              out += number(series.value());
              out += '\n';
            });
        break;
      }
      case Registry::Kind::kHistogram: {
        append_header(out, entry.name, entry.help, "histogram");
        const auto& names = entry.histograms->label_names();
        std::vector<std::uint64_t> cells;
        entry.histograms->for_each_series([&](const std::vector<std::string>& values,
                                              const Histogram& series) {
          const std::vector<double>& bounds = series.bounds();
          // One cell snapshot so cumulative buckets and _count agree.
          std::uint64_t cumulative = 0;
          cells.resize(bounds.size() + 1);
          for (std::size_t i = 0; i <= bounds.size(); ++i) cells[i] = series.cell(i);
          for (std::size_t i = 0; i < bounds.size(); ++i) {
            cumulative += cells[i];
            out += entry.name;
            out += "_bucket";
            out += label_block(names, values, "le", number(bounds[i]));
            out += ' ';
            out += number(cumulative);
            out += '\n';
          }
          cumulative += cells[bounds.size()];
          out += entry.name;
          out += "_bucket";
          out += label_block(names, values, "le", "+Inf");
          out += ' ';
          out += number(cumulative);
          out += '\n';
          out += entry.name;
          out += "_sum";
          out += label_block(names, values);
          out += ' ';
          out += number(series.sum());
          out += '\n';
          out += entry.name;
          out += "_count";
          out += label_block(names, values);
          out += ' ';
          out += number(cumulative);
          out += '\n';
        });
        break;
      }
    }
  });
  return out;
}

void render_json(const Registry& registry, std::string& out) {
  out += '{';
  bool first = true;
  std::vector<std::uint64_t> cells;
  registry.for_each_family([&](const Registry::Entry& entry) {
    if (!first) out += ',';
    first = false;
    append_json_key(out, entry.name);
    out += "{\"help\":\"";
    json::append_escaped(out, entry.help);
    out += "\",";
    switch (entry.kind) {
      case Registry::Kind::kCounter:
        out += "\"type\":\"counter\",";
        append_json_series(out, *entry.counters, [&](const Counter& series) {
          out += ",\"value\":";
          json::append_int(out, static_cast<std::int64_t>(series.value()));
        });
        break;
      case Registry::Kind::kGauge:
        out += "\"type\":\"gauge\",";
        append_json_series(out, *entry.gauges, [&](const Gauge& series) {
          out += ",\"value\":";
          json::append_double(out, series.value());
        });
        break;
      case Registry::Kind::kHistogram: {
        out += "\"type\":\"histogram\",";
        // Every series of a family has the family's bounds: spell each
        // bucket's `{"le":<bound>,"count":` once per family, not per series.
        std::vector<std::string> heads;
        append_json_series(out, *entry.histograms, [&](const Histogram& series) {
          const std::vector<double>& bounds = series.bounds();
          if (heads.size() != bounds.size()) {
            heads.clear();
            for (const double bound : bounds) {
              std::string& head = heads.emplace_back("{\"le\":");
              json::append_double(head, bound);
              head += ",\"count\":";
            }
          }
          // Each cell is read once; "count" is the last cumulative count.
          std::uint64_t total = 0;
          cells.resize(bounds.size() + 1);
          for (std::size_t i = 0; i <= bounds.size(); ++i) {
            cells[i] = series.cell(i);
            total += cells[i];
          }
          out += ",\"count\":";
          json::append_int(out, static_cast<std::int64_t>(total));
          out += ",\"sum\":";
          json::append_double(out, series.sum());
          out += ",\"buckets\":[";
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < bounds.size(); ++i) {
            cumulative += cells[i];
            if (i > 0) out += ',';
            out += heads[i];
            json::append_int(out, static_cast<std::int64_t>(cumulative));
            out += '}';
          }
          out += ']';
        });
        break;
      }
    }
    out += '}';
  });
  out += '}';
}

}  // namespace crowdweb::telemetry
