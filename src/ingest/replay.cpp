#include "ingest/replay.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "data/csv.hpp"
#include "http/client.hpp"
#include "json/json.hpp"
#include "util/civil_time.hpp"
#include "util/format.hpp"

namespace crowdweb::ingest {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

IngestEvent to_event(const data::CheckIn& checkin) noexcept {
  IngestEvent event;
  event.user = checkin.user;
  event.category = checkin.category;
  event.position = checkin.position;
  event.timestamp = checkin.timestamp;
  return event;
}

Result<ReplayReport> replay(std::span<const data::CheckIn> stream,
                            const ReplayOptions& options, const ReplaySink& sink) {
  if (!sink) return invalid_argument("replay needs a sink");
  const std::size_t batch_size = std::max<std::size_t>(1, options.batch_size);
  const std::size_t total = options.max_events > 0
                                ? std::min(stream.size(), options.max_events)
                                : stream.size();
  ReplayReport report;
  std::vector<IngestEvent> batch;
  batch.reserve(batch_size);
  const auto start = Clock::now();
  std::size_t sent = 0;
  while (sent < total) {
    if (options.max_seconds > 0.0 && seconds_since(start) >= options.max_seconds) break;
    if (options.events_per_second > 0.0) {
      // Event i is due at start + i/rate; sleeping to the batch's first
      // event keeps the offered rate steady regardless of sink latency.
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(sent) /
                                                    options.events_per_second));
      std::this_thread::sleep_until(due);
    }
    const std::size_t n = std::min(batch_size, total - sent);
    batch.clear();
    for (std::size_t i = 0; i < n; ++i) batch.push_back(to_event(stream[sent + i]));
    const auto outcome = sink(batch);
    if (!outcome) return outcome.status();
    report.offered += n;
    report.accepted += outcome->accepted;
    report.rejected += outcome->rejected;
    sent += n;
  }
  report.elapsed_seconds = seconds_since(start);
  return report;
}

ReplaySink worker_sink(IngestWorker& worker) {
  return [&worker](std::span<const IngestEvent> events) -> Result<SinkReport> {
    const SubmitResult result = worker.submit(events);
    return SinkReport{result.accepted, result.rejected};
  };
}

std::string events_csv(std::span<const IngestEvent> events,
                       const data::Taxonomy& taxonomy) {
  std::vector<data::CsvRow> rows;
  rows.reserve(events.size() + 1);
  rows.push_back({"user", "category", "lat", "lon", "timestamp"});
  for (const IngestEvent& event : events) {
    rows.push_back({std::to_string(event.user), taxonomy.name(event.category),
                    std::to_string(event.position.lat),
                    std::to_string(event.position.lon),
                    format_timestamp(event.timestamp)});
  }
  return data::write_csv(rows);
}

ReplaySink http_sink(std::string host, std::uint16_t port,
                     const data::Taxonomy& taxonomy) {
  return [host = std::move(host), port,
          &taxonomy](std::span<const IngestEvent> events) -> Result<SinkReport> {
    const auto response =
        http::fetch(host, port, "POST", "/api/ingest", events_csv(events, taxonomy));
    if (!response) return response.status();
    if (response->status != 200 && response->status != 429)
      return unavailable(crowdweb::format("/api/ingest answered {}: {}",
                                          response->status, response->body));
    const auto payload = json::parse(response->body);
    if (!payload) return payload.status();
    SinkReport report;
    if (const json::Value* accepted = payload->find("accepted"))
      report.accepted = static_cast<std::size_t>(accepted->as_int());
    if (const json::Value* rejected = payload->find("rejected"))
      report.rejected = static_cast<std::size_t>(rejected->as_int());
    return report;
  };
}

}  // namespace crowdweb::ingest
