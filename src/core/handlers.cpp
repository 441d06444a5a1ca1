#include "core/handlers.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crowd/communities.hpp"
#include "data/csv.hpp"
#include "json/json.hpp"
#include "mining/prefixspan.hpp"
#include "predict/predictor.hpp"
#include "util/civil_time.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"
#include "viz/animation.hpp"
#include "viz/charts.hpp"
#include "viz/citymap.hpp"
#include "viz/geojson.hpp"
#include "viz/layout.hpp"
#include "viz/timeline.hpp"

namespace crowdweb::core::handlers {

using http::PathParams;
using http::Request;
using http::Response;

namespace {

std::string_view raw_param(const PathParams& params, std::string_view name) {
  const auto it = params.find(name);
  return it == params.end() ? std::string_view{} : std::string_view(it->second);
}

/// A place label's display name, resolved against `dataset`'s venues.
std::string label_of(const Platform& platform, const data::Dataset& dataset,
                     mining::Item label) {
  return mining::label_name(label, platform.config().sequences.mode, platform.taxonomy(),
                            dataset);
}

/// One mined pattern as JSON (elements with labels, times, support),
/// labelled against `dataset`.
json::Value pattern_json(const patterns::MobilityPattern& pattern, const Platform& platform,
                         const data::Dataset& dataset) {
  json::Value elements = json::Value(json::Array{});
  for (const patterns::TimedElement& element : pattern.elements) {
    const int minute = static_cast<int>(element.mean_minute + 0.5);
    elements.push_back(json::object(
        {{"label", label_of(platform, dataset, element.label)},
         {"mean_minute", element.mean_minute},
         {"stddev_minute", element.stddev_minute},
         {"time", crowdweb::format("{:02}:{:02}", minute / 60, minute % 60)}}));
  }
  return json::object({{"elements", std::move(elements)},
                       {"support", pattern.support},
                       {"support_count", static_cast<std::int64_t>(pattern.support_count)}});
}

/// Appends the degraded marker ("degraded": true plus the missing shard
/// ids) to a JSON payload when the view is a partial merge; a no-op
/// otherwise, so bodies stay byte-identical.
void add_degraded_marker(const PinnedView& view, json::Value& payload) {
  if (!view.degraded) return;
  payload.set("degraded", true);
  json::Value missing = json::Value(json::Array{});
  for (const std::size_t shard : view.missing)
    missing.push_back(static_cast<std::int64_t>(shard));
  payload.set("missing_shards", std::move(missing));
}

Response json_response(const PinnedView& view, json::Value payload) {
  add_degraded_marker(view, payload);
  return Response::json(200, json::dump(payload));
}

/// The user a per-user route names: their entry and the corpus it was
/// mined from. When `mobility` is null, `error` holds the 400/404 to
/// send.
struct UserRecord {
  const patterns::UserMobility* mobility = nullptr;
  const data::Dataset* dataset = nullptr;
  Response error;

  /// The user's day sequences, rebuilt from their corpus.
  [[nodiscard]] mining::UserSequences sequences(const Platform& platform) const {
    return mining::build_user_sequences(*dataset, mobility->user, platform.taxonomy(),
                                        platform.config().sequences);
  }
};

UserRecord find_user(const PinnedView& view, const PathParams& params) {
  UserRecord record;
  const auto id = int_param(params, "id");
  constexpr auto kMaxUser = std::numeric_limits<data::UserId>::max();
  if (!id || *id < 0 || *id > kMaxUser) {
    record.error = Response::bad_request_400(crowdweb::format(
        "bad user id '{}': expected an integer in [0, {}]", raw_param(params, "id"), kMaxUser));
    return record;
  }
  record.mobility = view.find_user(static_cast<data::UserId>(*id), &record.dataset);
  if (record.mobility == nullptr) record.error = Response::not_found_404();
  return record;
}

}  // namespace

std::optional<std::int64_t> int_param(const PathParams& params, std::string_view name) {
  const auto it = params.find(name);
  if (it == params.end()) return std::nullopt;
  const auto value = parse_int(it->second);
  if (!value) return std::nullopt;
  return *value;
}

Response bad_window(const PathParams& params, std::string_view name, int window_count) {
  return Response::bad_request_400(crowdweb::format(
      "bad window index '{}' for parameter '{}': expected an integer in [0, {})",
      raw_param(params, name), name, window_count));
}

bool valid_window(const PinnedView& view, std::int64_t window) {
  return window >= 0 && window < view.crowd->window_count();
}

Response crowd_handler(const PinnedView& view, const Request&, const PathParams& params) {
  const auto window = int_param(params, "window");
  if (!window || !valid_window(view, *window))
    return bad_window(params, "window", view.crowd->window_count());
  const crowd::CrowdDistribution distribution =
      view.crowd->distribution(static_cast<int>(*window));
  json::Value cells = json::Value(json::Array{});
  for (const auto& [cell, count] : distribution.top_cells(50)) {
    const geo::LatLon center = view.grid->cell_center(cell);
    cells.push_back(json::object({{"cell", static_cast<std::int64_t>(cell)},
                                  {"count", static_cast<std::int64_t>(count)},
                                  {"lat", center.lat},
                                  {"lon", center.lon}}));
  }
  return json_response(
      view, json::object({{"window", static_cast<std::int64_t>(*window)},
                          {"label", view.crowd->window_label(static_cast<int>(*window))},
                          {"total", static_cast<std::int64_t>(distribution.total())},
                          {"occupied_cells",
                           static_cast<std::int64_t>(distribution.occupied_cells())},
                          {"top_cells", std::move(cells)}}));
}

Response crowd_map_handler(const PinnedView& view, const Request&, const PathParams& params) {
  const auto window = int_param(params, "window");
  if (!window || !valid_window(view, *window))
    return bad_window(params, "window", view.crowd->window_count());
  const crowd::CrowdDistribution distribution =
      view.crowd->distribution(static_cast<int>(*window));
  viz::CityMapOptions options;
  options.title = crowdweb::format(
      "Crowd {} ", view.crowd->window_label(static_cast<int>(*window)));
  return Response::svg(200, viz::render_city_map(distribution, *view.grid,
                                                 *view.dataset, options));
}

Response crowd_geojson_handler(const PinnedView& view, const Request&,
                               const PathParams& params) {
  const auto window = int_param(params, "window");
  if (!window || !valid_window(view, *window))
    return bad_window(params, "window", view.crowd->window_count());
  const crowd::CrowdDistribution distribution =
      view.crowd->distribution(static_cast<int>(*window));
  return json_response(view, viz::distribution_geojson(distribution, *view.grid));
}

Response groups_handler(const PinnedView& view, const Request&, const PathParams& params) {
  const auto window = int_param(params, "window");
  if (!window || !valid_window(view, *window))
    return bad_window(params, "window", view.crowd->window_count());
  json::Value list = json::Value(json::Array{});
  for (const crowd::CrowdGroup& group : view.crowd->groups(static_cast<int>(*window))) {
    json::Value members = json::Value(json::Array{});
    for (const data::UserId user : group.users)
      members.push_back(static_cast<std::int64_t>(user));
    const geo::LatLon center = view.grid->cell_center(group.cell);
    list.push_back(
        json::object({{"cell", static_cast<std::int64_t>(group.cell)},
                      {"label", label_of(*view.platform, *view.dataset, group.label)},
                      {"lat", center.lat},
                      {"lon", center.lon},
                      {"users", std::move(members)}}));
  }
  return json_response(view, json::object({{"groups", std::move(list)}}));
}

namespace {

Response flow(const PinnedView& view, const PathParams& params, bool as_map) {
  const auto from = int_param(params, "from");
  const auto to = int_param(params, "to");
  if (!from || !valid_window(view, *from))
    return bad_window(params, "from", view.crowd->window_count());
  if (!to || !valid_window(view, *to))
    return bad_window(params, "to", view.crowd->window_count());
  const crowd::FlowMatrix flow =
      view.crowd->flow(static_cast<int>(*from), static_cast<int>(*to));
  if (as_map) {
    const crowd::CrowdDistribution destination =
        view.crowd->distribution(static_cast<int>(*to));
    viz::CityMapOptions options;
    options.title = crowdweb::format(
        "Crowd flow {} to {}", view.crowd->window_label(static_cast<int>(*from)),
        view.crowd->window_label(static_cast<int>(*to)));
    return Response::svg(200, viz::render_flow_map(flow, destination, *view.grid,
                                                   *view.dataset, options));
  }
  json::Value moves = json::Value(json::Array{});
  for (const auto& [pair, count] : flow.top_flows(50)) {
    const geo::LatLon a = view.grid->cell_center(pair.first);
    const geo::LatLon b = view.grid->cell_center(pair.second);
    moves.push_back(json::object({{"from_cell", static_cast<std::int64_t>(pair.first)},
                                  {"to_cell", static_cast<std::int64_t>(pair.second)},
                                  {"count", static_cast<std::int64_t>(count)},
                                  {"from", json::array({a.lon, a.lat})},
                                  {"to", json::array({b.lon, b.lat})}}));
  }
  return json_response(view, json::object({{"from_window", static_cast<std::int64_t>(*from)},
                                           {"to_window", static_cast<std::int64_t>(*to)},
                                           {"total", static_cast<std::int64_t>(flow.total())},
                                           {"top_flows", std::move(moves)}}));
}

}  // namespace

Response flow_handler(const PinnedView& view, const Request&, const PathParams& params) {
  return flow(view, params, /*as_map=*/false);
}

Response flow_map_handler(const PinnedView& view, const Request&, const PathParams& params) {
  return flow(view, params, /*as_map=*/true);
}

Response animation_handler(const PinnedView& view, const Request& request, const PathParams&) {
  viz::AnimationOptions options;
  options.title = "Crowd movement across the day";
  if (const auto seconds = request.query_param("seconds")) {
    const auto parsed = parse_double(*seconds);
    if (!parsed || *parsed <= 0.0 || *parsed > 60.0)
      return Response::bad_request_400("seconds must be in (0, 60]");
    options.seconds_per_window = *parsed;
  }
  return Response::svg(200, viz::render_crowd_animation(*view.crowd, options));
}

Response rhythm_handler(const PinnedView& view, const Request&, const PathParams&) {
  const crowd::CrowdModel::Rhythm rhythm = view.crowd->rhythm();
  viz::HeatmapSpec spec;
  spec.title = "Crowd rhythm: place type by time window";
  spec.size.width = 900;
  for (const mining::Item label : rhythm.labels)
    spec.row_labels.push_back(label_of(*view.platform, *view.dataset, label));
  for (int w = 0; w < view.crowd->window_count(); ++w)
    spec.col_labels.push_back(
        crowdweb::format("{:02}", w * view.crowd->options().window_minutes / 60));
  for (const auto& row : rhythm.counts) {
    std::vector<double> values;
    for (const std::size_t count : row) values.push_back(static_cast<double>(count));
    spec.values.push_back(std::move(values));
  }
  return Response::svg(200, viz::render_heatmap(spec));
}

Response communities_handler(const PinnedView& view, const Request&, const PathParams&) {
  const crowd::UserGraph graph = crowd::build_co_occurrence_graph(*view.crowd);
  json::Value list = json::Value(json::Array{});
  for (const crowd::Community& community : crowd::label_propagation(graph)) {
    json::Value members = json::Value(json::Array{});
    for (const data::UserId user : community.members)
      members.push_back(static_cast<std::int64_t>(user));
    list.push_back(json::object({{"size", static_cast<std::int64_t>(community.members.size())},
                                 {"members", std::move(members)}}));
  }
  json::Value graph_block =
      json::object({{"users", static_cast<std::int64_t>(graph.users.size())},
                    {"edges", static_cast<std::int64_t>(graph.edges.size())}});
  return json_response(view, json::object({{"graph", std::move(graph_block)},
                                           {"communities", std::move(list)}}));
}

Response users_handler(const PinnedView& view, const Request&, const PathParams&) {
  json::Value users = json::Value(json::Array{});
  view.for_each_user([&](const patterns::UserMobility& mobility) {
    users.push_back(json::object(
        {{"id", static_cast<std::int64_t>(mobility.user)},
         {"recorded_days", static_cast<std::int64_t>(mobility.recorded_days)},
         {"patterns", static_cast<std::int64_t>(mobility.patterns.size())}}));
  });
  return json_response(view, json::object({{"users", std::move(users)}}));
}

Response user_patterns_handler(const PinnedView& view, const Request&,
                               const PathParams& params) {
  const UserRecord user = find_user(view, params);
  if (user.mobility == nullptr) return user.error;
  json::Value list = json::Value(json::Array{});
  for (const patterns::MobilityPattern& pattern : user.mobility->patterns)
    list.push_back(pattern_json(pattern, *view.platform, *user.dataset));
  const patterns::UserMobility& mobility = *user.mobility;
  return json_response(
      view, json::object({{"user", static_cast<std::int64_t>(mobility.user)},
                          {"recorded_days", static_cast<std::int64_t>(mobility.recorded_days)},
                          {"patterns", std::move(list)}}));
}

Response user_graph_handler(const PinnedView& view, const Request&, const PathParams& params) {
  const UserRecord user = find_user(view, params);
  if (user.mobility == nullptr) return user.error;
  viz::PlaceGraphRender render;
  render.title = crowdweb::format("User {} - visited places", user.mobility->user);
  return Response::svg(
      200, viz::render_place_graph(
               view.platform->place_graph(user.mobility, user.sequences(*view.platform),
                                          *user.dataset),
               render));
}

Response user_timeline_handler(const PinnedView& view, const Request&,
                               const PathParams& params) {
  const UserRecord user = find_user(view, params);
  if (user.mobility == nullptr) return user.error;
  viz::TimelineOptions options;
  options.title = crowdweb::format("User {} - visit timeline", user.mobility->user);
  return Response::svg(
      200, viz::render_timeline(user.sequences(*view.platform), view.platform->taxonomy(),
                                *user.dataset,
                                view.platform->config().sequences.mode, options));
}

Response predict_handler(const PinnedView& view, const Request& request,
                         const PathParams& params) {
  const UserRecord user = find_user(view, params);
  if (user.mobility == nullptr) return user.error;
  int minute = 9 * 60;
  if (const auto minute_param = request.query_param("minute")) {
    const auto parsed = parse_int(*minute_param);
    if (!parsed || *parsed < 0 || *parsed >= 24 * 60)
      return Response::bad_request_400("minute must be in [0, 1440)");
    minute = static_cast<int>(*parsed);
  }

  const mining::UserSequences history = user.sequences(*view.platform);
  const auto predictor = predict::make_ensemble_predictor();
  predictor->train(history);
  predict::Query query;
  query.minute = minute;
  // "Today" context: visits of the user's last recorded day before `minute`.
  std::vector<mining::Item> today;
  if (!history.empty()) {
    const auto last_day = history.day(history.day_count() - 1);
    const auto last_minutes = history.minutes_of(history.day_count() - 1);
    for (std::size_t i = 0; i < last_day.size(); ++i) {
      if (last_minutes[i] < minute) today.push_back(last_day[i]);
    }
  }
  query.today = today;
  const auto ranked = predictor->predict(query);

  json::Value predictions = json::Value(json::Array{});
  for (std::size_t i = 0; i < ranked.size() && i < 5; ++i) {
    predictions.push_back(
        json::object({{"label", label_of(*view.platform, *user.dataset, ranked[i].label)},
                      {"score", ranked[i].score}}));
  }
  return Response::json(
      200, json::dump(json::object({{"user", static_cast<std::int64_t>(user.mobility->user)},
                                    {"minute", minute},
                                    {"predictor", predictor->name()},
                                    {"predictions", std::move(predictions)}})));
}

Response analyze_handler(const PinnedView& view, const Request& request, const PathParams&) {
  const Platform& platform = *view.platform;
  double min_support = 0.25;
  if (const auto support = request.query_param("support")) {
    const auto parsed = parse_double(*support);
    if (!parsed || *parsed <= 0.0 || *parsed > 1.0)
      return Response::bad_request_400("support must be in (0, 1]");
    min_support = *parsed;
  }
  if (const auto requested = request.query_param("algorithm");
      requested && *requested != "prefixspan")
    return Response::bad_request_400(crowdweb::format(
        "unknown mining algorithm '{}' (the only miner is prefixspan)", *requested));

  // Rows are labelled by phase 2's rule; a venue-id label needs the
  // venue, which an upload does not carry.
  const mining::LabelMode mode = platform.config().sequences.mode;
  if (mode == mining::LabelMode::kVenue)
    return Response::bad_request_400(
        "cannot analyze uploads under sequence label mode kVenue: rows carry no venue ids");

  static constexpr std::array<std::string_view, 4> kHeader{"category", "lat", "lon",
                                                           "timestamp"};
  data::CsvReader reader(request.body);
  const auto header = reader.next();
  if (!header) return Response::bad_request_400(header.status().to_string());
  if (!std::ranges::equal(*header, kHeader))
    return Response::bad_request_400(
        "expected header: category,lat,lon,timestamp");

  // Parse the visitor's records into (label, timestamp) events.
  struct Event {
    mining::Item label;
    std::int64_t timestamp;
  };
  std::vector<Event> events;
  const data::Taxonomy& taxonomy = platform.taxonomy();
  for (;;) {
    const auto next = reader.next();
    if (!next) return Response::bad_request_400(next.status().to_string());
    const std::span<const std::string_view> row = *next;
    if (row.empty()) break;
    const std::size_t number = reader.row_number();
    if (row.size() != 4)
      return Response::bad_request_400(
          crowdweb::format("row {} has {} fields, expected 4", number, row.size()));
    const auto category = taxonomy.find(row[0]);
    const auto lat = parse_double(row[1]);
    const auto lon = parse_double(row[2]);
    const auto timestamp = parse_timestamp(row[3]);
    if (!category)
      return Response::bad_request_400(
          crowdweb::format("row {}: unknown category '{}'", number, row[0]));
    if (!lat || !lon || !geo::is_valid({*lat, *lon}))
      return Response::bad_request_400(crowdweb::format("row {}: bad position", number));
    if (!timestamp)
      return Response::bad_request_400(
          crowdweb::format("row {}: bad timestamp '{}'", number, row[3]));
    events.push_back({mining::label_of(data::VenueId{}, *category, mode, taxonomy),
                      *timestamp});
  }
  if (events.empty()) return Response::bad_request_400("no check-in rows");
  // Row order breaks timestamp ties, as arrival order does in phase 2.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.timestamp < b.timestamp; });

  // Per-day sequences through phase 2's own day builder and options.
  std::vector<mining::Item> labels;
  std::vector<std::int64_t> timestamps;
  labels.reserve(events.size());
  timestamps.reserve(events.size());
  for (const Event& event : events) {
    labels.push_back(event.label);
    timestamps.push_back(event.timestamp);
  }
  const mining::UserSequences sequences =
      mining::build_day_sequences(labels, timestamps, platform.config().sequences);

  mining::MiningOptions mining_options = platform.config().mining;
  mining_options.min_support = min_support;
  mining::MiningStats stats;
  const std::vector<mining::Pattern> mined =
      mining::prefixspan(sequences.columns(), mining_options, &stats);

  json::Value list = json::Value(json::Array{});
  for (const mining::Pattern& pattern : mined) {
    list.push_back(
        pattern_json(patterns::annotate_pattern(pattern, sequences.shapes), platform,
                     *view.dataset));
  }
  return Response::json(
      200, json::dump(json::object(
               {{"records", static_cast<std::int64_t>(events.size())},
                {"recorded_days", static_cast<std::int64_t>(sequences.day_count())},
                {"min_support", min_support},
                {"truncated", stats.truncated},
                {"patterns", std::move(list)}})));
}

namespace {

constexpr std::string_view kViewerHtml = R"html(<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>CrowdWeb - crowd mobility in a smart city</title>
<style>
  body { font-family: Helvetica, Arial, sans-serif; margin: 0; background: #f2f3f7; color: #23232b; }
  header { background: #232a4d; color: #fff; padding: 12px 24px; }
  header h1 { margin: 0; font-size: 20px; }
  main { display: flex; gap: 16px; padding: 16px 24px; flex-wrap: wrap; }
  section { background: #fff; border-radius: 8px; padding: 14px; box-shadow: 0 1px 4px rgba(0,0,0,.12); }
  #map-panel { flex: 2 1 640px; } #side-panel { flex: 1 1 300px; }
  #map { width: 100%; } #map svg { width: 100%; height: auto; }
  label { font-size: 13px; margin-right: 8px; }
  select, input[type=range] { margin: 4px 0; }
  pre { background: #f6f7fa; padding: 8px; border-radius: 6px; font-size: 12px; overflow: auto; max-height: 300px; }
</style>
</head>
<body>
<header><h1>CrowdWeb &mdash; crowd mobility patterns in a smart city
  <small style="font-size:13px;font-weight:normal;margin-left:14px">
    <a href="/api/animation.svg" style="color:#bcd">day animation</a>
  </small></h1></header>
<main>
  <section id="map-panel">
    <label>Time window <input id="window" type="range" min="0" max="23" value="9"></label>
    <span id="window-label"></span>
    <div id="map"></div>
  </section>
  <section id="side-panel">
    <h3>Platform</h3><pre id="status">loading...</pre>
    <h3>User patterns</h3>
    <label>User <select id="user"></select></label>
    <pre id="patterns"></pre>
    <div id="graph"></div>
    <div id="timeline"></div>
  </section>
</main>
<script>
async function jsonOf(url) { const r = await fetch(url); return r.json(); }
async function textOf(url) { const r = await fetch(url); return r.text(); }
async function refreshMap() {
  const w = document.getElementById('window').value;
  const info = await jsonOf('/api/crowd/' + w);
  document.getElementById('window-label').textContent =
    info.label + ' - ' + info.total + ' users placed';
  document.getElementById('map').innerHTML = await textOf('/api/crowd/' + w + '/map.svg');
}
async function refreshUser() {
  const id = document.getElementById('user').value;
  if (id === '') return;
  const data = await jsonOf('/api/user/' + id + '/patterns');
  document.getElementById('patterns').textContent = JSON.stringify(data.patterns, null, 1);
  document.getElementById('graph').innerHTML = await textOf('/api/user/' + id + '/graph.svg');
  document.getElementById('timeline').innerHTML =
    await textOf('/api/user/' + id + '/timeline.svg');
}
async function init() {
  document.getElementById('status').textContent =
    JSON.stringify(await jsonOf('/api/status'), null, 1);
  const users = (await jsonOf('/api/users')).users.filter(u => u.patterns > 0).slice(0, 200);
  const select = document.getElementById('user');
  for (const u of users) {
    const option = document.createElement('option');
    option.value = u.id;
    option.textContent = 'user ' + u.id + ' (' + u.patterns + ' patterns)';
    select.appendChild(option);
  }
  select.addEventListener('change', refreshUser);
  document.getElementById('window').addEventListener('input', refreshMap);
  await refreshMap();
  if (users.length > 0) { select.value = users[0].id; await refreshUser(); }
}
init();
</script>
</body>
</html>
)html";

}  // namespace

std::string_view viewer_html() noexcept { return kViewerHtml; }

}  // namespace crowdweb::core::handlers
