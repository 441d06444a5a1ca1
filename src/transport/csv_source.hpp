// The CSV-over-HTTP ingest source.
//
// POST /api/ingest bodies ("[user,]category,lat,lon,timestamp") are the
// original, human-debuggable transport. HttpCsvSource parses them and
// funnels the events through the same IngestPipeline as the binary
// listener. The response body reports the outcome split — accepted,
// rejected, invalid — plus queue depth and capacity so producers can
// pace themselves, and a 429 carries Retry-After of one rebuild
// interval.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "data/dataset.hpp"
#include "http/message.hpp"
#include "ingest/event.hpp"
#include "ingest/worker.hpp"
#include "transport/pipeline.hpp"
#include "util/status.hpp"

namespace crowdweb::transport {

/// The parsed body of a POST /api/ingest request.
struct ParsedIngest {
  std::vector<ingest::IngestEvent> events;
  std::uint64_t received = 0;  ///< data rows in the body
  std::uint64_t invalid = 0;   ///< rows that failed validation
};

/// Parses the ingest CSV body ("[user,]category,lat,lon,timestamp").
/// `allocate_guest` is invoked once iff the anonymous header form is
/// used; its id substitutes for the missing user column. Callers must
/// account `invalid` themselves (HttpCsvSource charges it to the front
/// worker and the pipeline). A non-OK status is kInvalidArgument
/// for a bad header (message is the body to serve) or the CSV parser's
/// own error.
[[nodiscard]] Result<ParsedIngest> parse_ingest_csv(
    const http::Request& request, const data::Taxonomy& taxonomy,
    const std::function<data::UserId()>& allocate_guest);

/// The 400 for a parse_ingest_csv failure: bad-header bodies stay the
/// bare message; parser errors keep their "<code>: <message>" form.
[[nodiscard]] http::Response bad_ingest_request(const Status& status);

/// Renders the POST /api/ingest response. 200 when anything was
/// accepted; 429 — with Retry-After of one rebuild interval, rounded up
/// to whole seconds, floor 1 — when rows were submitted and none were.
/// The body always carries queue_depth and queue_capacity so a
/// backpressured producer can size its retry, and a reserved
/// "spooled": 0 that older producers still read.
[[nodiscard]] http::Response ingest_response(const ParsedIngest& parsed,
                                             const ingest::SubmitResult& outcome,
                                             const ingest::IngestStats& stats,
                                             std::chrono::milliseconds rebuild_interval);

/// The POST /api/ingest handler: parses bodies and funnels them through
/// the shared pipeline under the "http_csv" source label.
class HttpCsvSource {
 public:
  struct Config {
    /// Resolves category names, hands out guest ids for the anonymous
    /// header form, is charged invalid rows, and backs Retry-After with
    /// its rebuild interval (shard 0 in a sharded deployment). Must
    /// outlive the source.
    ingest::IngestWorker* front = nullptr;
    /// Snapshot of worker/router stats for the response body.
    std::function<ingest::IngestStats()> stats;
  };

  /// `pipeline` must outlive the source.
  HttpCsvSource(IngestPipeline& pipeline, Config config);

  [[nodiscard]] http::Response handle(const http::Request& request);

 private:
  IngestPipeline& pipeline_;
  Config config_;
};

}  // namespace crowdweb::transport
