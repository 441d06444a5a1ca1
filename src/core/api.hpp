// The CrowdWeb HTTP API — every interaction of the demo UI as a route.
//
//   GET /                           embedded single-page viewer
//   GET /api/status                 corpus + pipeline summary
//   GET /metrics                    Prometheus text exposition (with
//                                   ApiOptions::metrics attached)
//   GET /api/users                  users with pattern counts
//   GET /api/user/:id/patterns      a user's mined mobility patterns
//   GET /api/user/:id/graph.svg     the user's place graph (iMAP view)
//   GET /api/user/:id/timeline.svg  the user's day-by-day visit timeline
//   GET /api/crowd/:window          crowd distribution of a time window
//   GET /api/crowd/:window/map.svg  the smart-city map (Figures 3/4)
//   GET /api/crowd/:window/geojson  the distribution as GeoJSON
//   GET /api/groups/:window         user groups per (cell, label)
//   GET /api/flow/:from/:to         movements between two windows
//   GET /api/flow/:from/:to/map.svg flow arrows over the city
//   GET /api/animation.svg          animated crowd movement (full day);
//                                   ?seconds=S scales playback speed
//   GET /api/rhythm.svg             place type by time window heatmap
//   GET /api/communities            co-occurrence communities of the crowd
//   GET /api/predict/:id            the user's likely next place
//   POST /api/analyze               mine an uploaded check-in history (the
//                                   demo's "share your check-ins" booth
//                                   feature); body = CSV with header
//                                   category,lat,lon,timestamp and
//                                   ?support=S sets min_support
//   GET /api/shards                 the shard layout and per-shard health
//
// Worker-backed deployments add the write and admin routes:
//
//   POST /api/ingest                submit check-ins to the live corpus;
//                                   body = CSV with header
//                                   [user,]category,lat,lon,timestamp;
//                                   429 when the queue rejects everything
//                                   (transport::HttpCsvSource; invalid
//                                   rows are charged to shard 0)
//   GET /api/ingest/stats           queue depth, accept/reject/invalid
//                                   counts, epochs, rebuild latency
//   GET /api/store/stats            WAL + checkpoint counters
//   POST /api/admin/checkpoint      checkpoint every live shard now
//
// and with ApiOptions::stream (one worker only) the push routes (SSE;
// transport/sse.hpp):
//
//   GET /api/stream/epochs          one "epoch" event per published epoch
//   GET /api/stream/crowd/:window   that window's crowd distribution,
//                                   re-sent on every epoch
//
// One route tree serves every deployment shape. Each request pins one
// view (core/view.hpp) through the Deployment: the batch build as
// epoch 0, one worker's latest epoch, or a ShardRouter's merge of its
// shard epochs. Handlers render from that view only, so every body of a
// response comes from one epoch, and cacheable routes stamp the view's
// epoch on the response for the response cache. The Platform (config
// and taxonomy) must outlive the router; views are immutable, so
// handlers run concurrently on the server's worker pool without locks.
// Routes whose responses are a pure function of (target, epoch) are
// registered with Router::get_cached; /api/status, /metrics, and the
// ingest and admin routes are uncached.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/view.hpp"
#include "http/router.hpp"
#include "http/server.hpp"
#include "ingest/worker.hpp"
#include "telemetry/metrics.hpp"
#include "transport/pipeline.hpp"
#include "transport/sse.hpp"

namespace crowdweb::core {

struct ApiOptions {
  /// Live mode: serve every route from this worker's latest epoch and
  /// register the write and admin routes. The worker must outlive the
  /// router. Null = the static batch build, served as epoch 0.
  ingest::IngestWorker* ingest = nullptr;
  /// Late-bound source of http::ServerStats for /api/status. The router
  /// is built before the server that owns it exists, so the example
  /// fills the inner function in after constructing the Server.
  std::shared_ptr<std::function<http::ServerStats()>> server_stats;
  /// Registers `GET /metrics` (Prometheus text exposition) over this
  /// registry and mirrors it as a "telemetry" block in /api/status. The
  /// registry must outlive the router. Null disables both (no /metrics
  /// route). Share the same registry with ServerConfig::metrics,
  /// IngestWorkerConfig::metrics, and PlatformConfig::metrics so one
  /// scrape covers every subsystem.
  telemetry::Registry* metrics = nullptr;
  /// The response cache the server serves cacheable routes from (the
  /// same object as ServerConfig::cache). Surfaces hit/miss/byte
  /// counters and the current epoch as an "http.cache" block in
  /// /api/status. Must outlive the router. Null = no cache block.
  const http::ResponseCache* cache = nullptr;
  /// Resolved ServerConfig::worker_threads, reported as "http.workers"
  /// in /api/status (0 = inline handlers on the event loop).
  int http_workers = 0;
  /// Transport pipeline POST /api/ingest submits through (worker-backed
  /// deployments only), e.g. the one a frame listener shares. Must
  /// outlive the router. Null = the router builds its own pipeline over
  /// Deployment::submit, counting onto `metrics`.
  transport::IngestPipeline* pipeline = nullptr;
  /// Registers the SSE routes GET /api/stream/epochs and
  /// GET /api/stream/crowd/:window (live mode only). The routes only
  /// subscribe connections; pair with attach_stream_publisher() once the
  /// Server exists so published epochs actually fan out.
  bool stream = false;
};

/// One shard slot of a worker-backed deployment, as the status and
/// admin routes report it.
struct ShardSlot {
  std::size_t id = 0;  ///< reported as the name "hash-<id>"
  bool up = false;
  ingest::IngestWorker* worker = nullptr;
};

/// Where the one route tree reads from and writes to: a view source
/// plus the shard slots behind it.
class Deployment {
 public:
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  virtual ~Deployment() = default;
  /// The view this request renders from. Never null; its crowd is null
  /// until some slot publishes an epoch.
  [[nodiscard]] virtual ViewPtr pin() const = 0;
  /// The worker-backed shard slots; empty for the static batch build.
  [[nodiscard]] virtual std::vector<ShardSlot> shards() const = 0;
  /// Routes events to their owning shards (worker-backed only).
  virtual ingest::SubmitResult submit(std::span<const ingest::IngestEvent> events) = 0;
};

/// The one route tree over `deployment`. The SSE routes need one
/// worker: they are registered only when `options.stream` is set
/// together with `options.ingest`.
[[nodiscard]] http::Router make_router(const Platform& platform,
                                       std::shared_ptr<Deployment> deployment,
                                       const ApiOptions& options);

/// The route tree over the static batch build, or over one worker when
/// `options.ingest` is set.
[[nodiscard]] http::Router make_api_router(const Platform& platform,
                                           ApiOptions options = {});

/// Hooks the worker's snapshot hub and fans one "epoch" event (plus a
/// "crowd" event per subscribed window channel) into the server's SSE
/// streams on every publication. Call after constructing the Server
/// whose router was built with ApiOptions::stream; destroy the returned
/// publisher before the server. With `cache` (the same object as
/// ServerConfig::cache), crowd payloads are rendered through it, so the
/// SSE event and the GET /api/crowd/:window body are one render —
/// register the cache's set_epoch hook before calling this.
[[nodiscard]] std::unique_ptr<transport::EpochStreamPublisher> attach_stream_publisher(
    http::Server& server, const Platform& platform, ingest::IngestWorker& worker,
    http::ResponseCache* cache = nullptr);

/// The live pipeline of a deployment over `platform`: its phase-2
/// configuration, which is all a seeded worker reads. The grid and the
/// crowd options come with the seed (the batch build's crowd model), so
/// every worker and shard renders onto the batch build's cells.
[[nodiscard]] ingest::IngestPipelineConfig ingest_pipeline_config(const Platform& platform);

/// Builds an ingestion worker seeded with the platform's epoch-0
/// snapshot — experiment corpus, mined mobility and crowd model, all
/// shared — over ingest_pipeline_config().
/// The worker keeps a reference to the platform's taxonomy, so the
/// platform must outlive the worker.
[[nodiscard]] std::unique_ptr<ingest::IngestWorker> make_ingest_worker(
    const Platform& platform, ingest::IngestWorkerConfig config = {});

}  // namespace crowdweb::core
