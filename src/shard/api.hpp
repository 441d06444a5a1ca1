// The CrowdWeb HTTP API over a ShardRouter.
//
// This is the core route tree (core/api.hpp) with the router as its
// view source: every request pins the router's merged view of its shard
// epochs, so the route surface and the bodies are those of a
// single-process deployment over the same corpus. When one or more
// shards are down, reads still answer 200, with an explicit
// "degraded": true marker and the missing shard ids in JSON bodies (SVG
// routes render the partial merge unmarked), and POST /api/ingest
// counts rows for a down shard as rejected.
#pragma once

#include <functional>
#include <memory>

#include "http/cache.hpp"
#include "http/router.hpp"
#include "http/server.hpp"
#include "shard/router.hpp"
#include "telemetry/metrics.hpp"

namespace crowdweb::shard {

struct ShardApiOptions {
  /// Same contract as core::ApiOptions::server_stats.
  std::shared_ptr<std::function<http::ServerStats()>> server_stats;
  /// Registers GET /metrics and the /api/status telemetry block. Pass
  /// the deployment registry (the one ShardRouterConfig::metrics uses)
  /// so one scrape covers the router and the HTTP server.
  telemetry::Registry* metrics = nullptr;
  /// Cache stats block for /api/status (the cache itself is wired via
  /// ShardRouter::rekey_cache_on_publish + ServerConfig::cache).
  const http::ResponseCache* cache = nullptr;
  /// Resolved ServerConfig::worker_threads for /api/status.
  int http_workers = 0;
};

/// Builds the core route tree over a started (or starting) router.
/// The router must outlive the returned router object.
[[nodiscard]] http::Router make_shard_api_router(ShardRouter& router,
                                                 ShardApiOptions options = {});

}  // namespace crowdweb::shard
