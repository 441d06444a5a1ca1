// Rendering a telemetry Registry for operators.
//
// Two views of the same state:
//   - render_prometheus(): Prometheus text exposition format 0.0.4
//     (the body of `GET /metrics`; serve it with content type
//     "text/plain; version=0.0.4; charset=utf-8");
//   - render_json(): the same families as a JSON object, appended to
//     `/api/status` under "telemetry" (written straight into the body,
//     no json::Value tree).
//
// Rendering walks every family under the registry mutex and reads the
// atomic cells with relaxed loads: scrapes never stop writers, so a
// histogram's sum may trail its buckets by the handful of observations
// that landed mid-walk. Bucket counts are emitted cumulatively and
// `_count` is derived from the same cell snapshot, so the Prometheus
// histogram invariants (non-decreasing buckets, +Inf == count) hold for
// every scrape.
#pragma once

#include <string>

#include "telemetry/metrics.hpp"

namespace crowdweb::telemetry {

/// Prometheus text exposition of every registered family.
[[nodiscard]] std::string render_prometheus(const Registry& registry);

/// Appends the JSON mirror to `out`:
/// {"metric_name": {"help": ..., "type": ..., "series": [...]}}.
/// Counter series carry "value" (integer), gauge series "value" (number
/// as json::append_double writes it), histogram series "count", "sum"
/// and cumulative "buckets" [{"le": bound, "count": n}].
void render_json(const Registry& registry, std::string& out);

/// The content type `GET /metrics` must answer with.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

}  // namespace crowdweb::telemetry
