#include "transport/csv_source.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "data/csv.hpp"
#include "geo/grid.hpp"
#include "json/json.hpp"
#include "util/civil_time.hpp"
#include "util/strings.hpp"

namespace crowdweb::transport {

using http::Request;
using http::Response;

Result<ParsedIngest> parse_ingest_csv(const Request& request,
                                      const data::Taxonomy& taxonomy,
                                      const std::function<data::UserId()>& allocate_guest) {
  static constexpr std::array<std::string_view, 5> kWithUser{"user", "category", "lat",
                                                             "lon", "timestamp"};
  static constexpr std::array<std::string_view, 4> kAnonymous{"category", "lat", "lon",
                                                              "timestamp"};
  data::CsvReader reader(request.body);
  const auto header = reader.next();
  if (!header) return header.status();
  const bool has_user = std::ranges::equal(*header, kWithUser);
  if (!has_user && !std::ranges::equal(*header, kAnonymous))
    return invalid_argument("expected header: [user,]category,lat,lon,timestamp");

  ParsedIngest parsed;
  for (;;) {
    const auto next = reader.next();
    if (!next) return next.status();
    const std::span<const std::string_view> row = *next;
    if (row.empty()) break;
    ++parsed.received;
    if (row.size() != (has_user ? 5u : 4u)) {
      ++parsed.invalid;
      continue;
    }
    std::size_t field = 0;
    data::UserId user = 0;
    if (has_user) {
      const auto parsed_user = parse_int(row[field++]);
      if (!parsed_user || *parsed_user < 0 ||
          *parsed_user > std::numeric_limits<data::UserId>::max()) {
        ++parsed.invalid;
        continue;
      }
      user = static_cast<data::UserId>(*parsed_user);
    }
    const auto category = taxonomy.find(row[field]);
    const auto lat = parse_double(row[field + 1]);
    const auto lon = parse_double(row[field + 2]);
    auto timestamp = parse_timestamp(row[field + 3]);
    if (!timestamp) timestamp = parse_int(row[field + 3]);  // raw epoch seconds
    if (!category || !lat || !lon || !geo::is_valid({*lat, *lon}) || !timestamp ||
        *timestamp <= 0) {
      ++parsed.invalid;
      continue;
    }
    parsed.events.push_back({user, *category, {*lat, *lon}, *timestamp});
  }
  // The guest id is handed out only for a body that read to its end.
  if (!has_user) {
    const data::UserId guest = allocate_guest();
    for (ingest::IngestEvent& event : parsed.events) event.user = guest;
  }
  return parsed;
}

Response bad_ingest_request(const Status& status) {
  return Response::bad_request_400(status.code() == StatusCode::kInvalidArgument
                                       ? status.message()
                                       : status.to_string());
}

Response ingest_response(const ParsedIngest& parsed, const ingest::SubmitResult& outcome,
                         const ingest::IngestStats& stats,
                         std::chrono::milliseconds rebuild_interval) {
  const int status = (!parsed.events.empty() && outcome.accepted == 0) ? 429 : 200;
  Response response = Response::json(
      status,
      json::dump(json::object(
          {{"received", static_cast<std::int64_t>(parsed.received)},
           {"accepted", static_cast<std::int64_t>(outcome.accepted)},
           {"rejected", static_cast<std::int64_t>(outcome.rejected)},
           {"spooled", std::int64_t{0}},
           {"invalid", static_cast<std::int64_t>(parsed.invalid)},
           {"queue_depth", static_cast<std::int64_t>(stats.queue_depth)},
           {"queue_capacity", static_cast<std::int64_t>(stats.queue_capacity)},
           {"epoch", static_cast<std::int64_t>(stats.current_epoch)}})));
  if (status == 429) {
    // The queue drains at least once per rebuild interval, so that is
    // the honest earliest retry time (rounded up to whole seconds,
    // floor 1 — Retry-After speaks seconds).
    const std::int64_t seconds =
        std::max<std::int64_t>(1, (rebuild_interval.count() + 999) / 1000);
    response.headers["Retry-After"] = std::to_string(seconds);
  }
  return response;
}

HttpCsvSource::HttpCsvSource(IngestPipeline& pipeline, Config config)
    : pipeline_(pipeline), config_(std::move(config)) {}

Response HttpCsvSource::handle(const Request& request) {
  static constexpr std::string_view kSourceName = "http_csv";
  ingest::IngestWorker& front = *config_.front;
  const auto parsed = parse_ingest_csv(request, front.taxonomy(),
                                       [&front] { return front.allocate_guest_id(); });
  if (!parsed.is_ok()) {
    pipeline_.note_decode_error(kSourceName);
    return bad_ingest_request(parsed.status());
  }
  if (parsed->invalid > 0) {
    front.note_invalid(parsed->invalid);
    pipeline_.note_invalid(parsed->invalid, kSourceName);
  }
  const ingest::SubmitResult outcome = pipeline_.submit(parsed->events, kSourceName);
  return ingest_response(*parsed, outcome, config_.stats(), front.config().rebuild_interval);
}

}  // namespace crowdweb::transport
