// Per-token body writers: the oracles the direct writers are checked
// against. Each builds its output the way the serving path did before it
// appended into the body: json::dump formatted every integer and escaped
// every string into a temporary, the telemetry mirror built a json::Value
// tree that json::dump then walked, and the SVG writer spelled each
// number through crowdweb::format("{:.2f}").
#pragma once

#include <string>

#include "json/json.hpp"
#include "telemetry/metrics.hpp"

namespace crowdweb::json {

/// dump() with one crowdweb::format("{}") per integer and one escaped
/// temporary per string and key.
[[nodiscard]] std::string dump_per_token(const Value& value, DumpOptions options = {});

/// The escaped contents of a JSON string, built char by char.
[[nodiscard]] std::string escape_string_per_char(std::string_view text);

}  // namespace crowdweb::json

namespace crowdweb::telemetry {

/// The JSON mirror as a json::Value tree: render_json() must write
/// exactly json::dump of this tree.
[[nodiscard]] json::Value render_json_tree(const Registry& registry);

}  // namespace crowdweb::telemetry

namespace crowdweb::viz {

/// An SVG number as crowdweb::format("{:.2f}") spells it ("0" when not
/// finite): viz::append_number must append exactly this.
[[nodiscard]] std::string format_number_2f(double value);

}  // namespace crowdweb::viz
