#include "core/api.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "core/handlers.hpp"
#include "json/json.hpp"
#include "telemetry/exposition.hpp"
#include "transport/csv_source.hpp"
#include "transport/sse.hpp"
#include "util/format.hpp"

namespace crowdweb::core {

namespace {

using http::PathParams;
using http::Request;
using http::Response;

/// The static batch build, served as epoch 0.
class BatchDeployment final : public Deployment {
 public:
  explicit BatchDeployment(const Platform& platform)
      : view_(view_of(platform, {platform.snapshot()}, 0)) {}
  ViewPtr pin() const override { return view_; }
  std::vector<ShardSlot> shards() const override { return {}; }
  ingest::SubmitResult submit(std::span<const ingest::IngestEvent>) override { return {}; }

 private:
  ViewPtr view_;
};

/// One IngestWorker: a one-shard deployment whose view passes the latest
/// epoch through, keyed on the epoch itself (what a SnapshotHub hook
/// calling ResponseCache::set_epoch(snapshot.epoch) keys the cache on).
class WorkerDeployment final : public Deployment {
 public:
  WorkerDeployment(const Platform& platform, ingest::IngestWorker& worker)
      : platform_(platform), worker_(worker) {}
  ViewPtr pin() const override {
    ingest::SnapshotPtr snapshot = worker_.hub().current();
    const std::uint64_t epoch = snapshot != nullptr ? snapshot->epoch : 0;
    return view_of(platform_, {std::move(snapshot)}, epoch);
  }
  std::vector<ShardSlot> shards() const override {
    return {ShardSlot{0, worker_.running(), &worker_}};
  }
  ingest::SubmitResult submit(std::span<const ingest::IngestEvent> events) override {
    return worker_.submit(events);
  }

 private:
  const Platform& platform_;
  ingest::IngestWorker& worker_;
};

/// Runs `fn` over `view` and stamps the response with the view's epoch,
/// so the response cache files the body under the epoch it was rendered
/// from. 503 until some shard has published an epoch.
template <typename Fn>
Response render(const ViewPtr& view, Fn&& fn) {
  if (view->crowd == nullptr)
    return Response::text(503, "no epoch published yet; retry shortly\n");
  Response response = fn(*view);
  response.rendered_at = http::RenderedEpoch{view->cache_epoch, view->epoch_tag};
  return response;
}

template <typename Int>
json::Value int_array(const std::vector<Int>& values) {
  json::Value array = json::Value(json::Array{});
  for (const Int value : values) array.push_back(static_cast<std::int64_t>(value));
  return array;
}

void accumulate(ingest::IngestStats& total, const ingest::IngestStats& stats) {
  total.submitted += stats.submitted;
  total.accepted += stats.accepted;
  total.rejected += stats.rejected;
  total.invalid += stats.invalid;
  total.epochs_published += stats.epochs_published;
  total.current_epoch = std::max(total.current_epoch, stats.current_epoch);
  total.queue_depth += stats.queue_depth;
  total.queue_capacity += stats.queue_capacity;
  total.live_checkins += stats.live_checkins;
  total.last_rebuild_ms = std::max(total.last_rebuild_ms, stats.last_rebuild_ms);
  total.total_rebuild_ms += stats.total_rebuild_ms;
}

/// Per-shard worker counters summed; `current_epoch` is the max.
ingest::IngestStats total_stats(const std::vector<ShardSlot>& slots) {
  ingest::IngestStats total;
  for (const ShardSlot& slot : slots) accumulate(total, slot.worker->stats());
  return total;
}

void accumulate(store::StoreStats& total, const store::StoreStats& stats) {
  if (total.dir.empty()) {
    total.dir = stats.dir;
    total.fsync_policy = stats.fsync_policy;
  }
  total.wal_segments += stats.wal_segments;
  total.wal_bytes += stats.wal_bytes;
  total.wal_bytes_since_checkpoint += stats.wal_bytes_since_checkpoint;
  total.last_record_seq = std::max(total.last_record_seq, stats.last_record_seq);
  total.append_records += stats.append_records;
  total.append_bytes += stats.append_bytes;
  total.append_failures += stats.append_failures;
  total.fsyncs += stats.fsyncs;
  total.checkpoints += stats.checkpoints;
  total.last_checkpoint_seq = std::max(total.last_checkpoint_seq, stats.last_checkpoint_seq);
  total.last_checkpoint_epoch =
      std::max(total.last_checkpoint_epoch, stats.last_checkpoint_epoch);
  total.recovery_replayed_records += stats.recovery_replayed_records;
  total.recovery_truncated_bytes += stats.recovery_truncated_bytes;
}

/// The /api/status values of the immutable batch build (computed once).
json::Value batch_status(const Platform& platform) {
  const data::DatasetStats full = platform.full_dataset().stats();
  return json::object(
      {{"full",
        json::object({{"checkins", static_cast<std::int64_t>(full.checkin_count)},
                      {"users", static_cast<std::int64_t>(full.user_count)},
                      {"venues", static_cast<std::int64_t>(full.venue_count)},
                      {"mean_records_per_user", full.mean_records_per_user},
                      {"median_records_per_user", full.median_records_per_user}})},
       {"timings_ms", json::object({{"acquisition", platform.timings().acquisition_ms},
                                    {"mining", platform.timings().mining_ms},
                                    {"crowd", platform.timings().crowd_ms}})}});
}

json::Value shard_block(const ShardSlot& slot, const ingest::PlatformSnapshot* pin) {
  json::Value block = json::object(
      {{"id", static_cast<std::int64_t>(slot.id)},
       {"name", crowdweb::format("hash-{}", slot.id)},
       {"up", slot.up}});
  if (!slot.up) return block;
  const ingest::IngestStats stats = slot.worker->stats();
  block.set("epoch", static_cast<std::int64_t>(pin != nullptr ? pin->epoch : 0));
  if (pin != nullptr) {
    const data::Dataset& corpus = pin->dataset;
    block.set("corpus",
              json::object({{"checkins", static_cast<std::int64_t>(corpus.checkin_count())},
                            {"users", static_cast<std::int64_t>(corpus.user_count())},
                            {"venues", static_cast<std::int64_t>(corpus.venue_count())}}));
  }
  block.set("live_checkins",
            static_cast<std::int64_t>(pin != nullptr ? pin->live_checkins : 0));
  block.set("queue",
            json::object({{"depth", static_cast<std::int64_t>(stats.queue_depth)},
                          {"capacity", static_cast<std::int64_t>(stats.queue_capacity)}}));
  block.set("last_rebuild_ms", stats.last_rebuild_ms);
  return block;
}

/// Every slot's block, each read against the view's pin of that slot.
json::Value shard_blocks(const PinnedView& view, const std::vector<ShardSlot>& slots) {
  json::Value blocks = json::Value(json::Array{});
  for (const ShardSlot& slot : slots)
    blocks.push_back(shard_block(slot, slot.id < view.pins.size() ? view.pins[slot.id].get()
                                                                  : nullptr));
  return blocks;
}

/// The one /api/status builder: the same keys at every shard count.
Response status_handler(const Deployment& deployment, const json::Value& batch,
                        const ApiOptions& options) {
  const ViewPtr view = deployment.pin();
  const std::vector<ShardSlot> slots = deployment.shards();
  const Platform& platform = *view->platform;
  json::Value payload = batch;
  payload.set("experiment",
              json::object({{"checkins", static_cast<std::int64_t>(view->checkins)},
                            {"users", static_cast<std::int64_t>(view->user_count)}}));
  if (view->crowd != nullptr) {
    payload.set("windows", view->crowd->window_count());
    payload.set("placements", static_cast<std::int64_t>(view->crowd->total_placements()));
  }
  if (view->grid != nullptr) {
    payload.set("grid", json::object({{"rows", static_cast<std::int64_t>(view->grid->rows())},
                                      {"cols", static_cast<std::int64_t>(view->grid->cols())},
                                      {"cell_meters", view->grid->cell_size_meters()}}));
  }

  // The mining block: the configured thresholds plus the resident
  // pattern-set footprint of the pinned epochs.
  const mining::MiningOptions& mining_config = platform.config().mining;
  const patterns::MobilityStats set_stats = view->mobility_stats();
  payload.set(
      "mining",
      json::object(
          {{"min_support", mining_config.min_support},
           {"max_patterns", static_cast<std::int64_t>(mining_config.max_patterns)},
           {"pattern_set",
            json::object({{"entries", static_cast<std::int64_t>(set_stats.entries)},
                          {"patterns", static_cast<std::int64_t>(set_stats.patterns)},
                          {"bytes", static_cast<std::int64_t>(set_stats.bytes)}})}}));

  payload.set("shards", shard_blocks(*view, slots));
  payload.set("epoch_vector", int_array(view->epochs));
  payload.set("epoch_tag", view->epoch_tag);
  // The response-cache key of the pinned epochs: an opaque 64-bit id,
  // so it is emitted as a string.
  payload.set("combined_epoch", std::to_string(view->cache_epoch));
  payload.set("degraded", view->degraded);
  payload.set("missing_shards", int_array(view->missing));
  payload.set(
      "ingest",
      json::object(
          {{"epoch", static_cast<std::int64_t>(
                         *std::max_element(view->epochs.begin(), view->epochs.end()))},
           {"live_checkins", static_cast<std::int64_t>(view->live_checkins)},
           {"queue_depth", static_cast<std::int64_t>(total_stats(slots).queue_depth)}}));

  if (options.server_stats != nullptr && *options.server_stats) {
    const http::ServerStats stats = (*options.server_stats)();
    payload.set(
        "server",
        json::object(
            {{"requests", static_cast<std::int64_t>(stats.requests)},
             {"bad_requests", static_cast<std::int64_t>(stats.bad_requests)},
             {"connections", static_cast<std::int64_t>(stats.connections)},
             {"responses",
              json::object({{"2xx", static_cast<std::int64_t>(stats.responses_2xx)},
                            {"4xx", static_cast<std::int64_t>(stats.responses_4xx)},
                            {"5xx", static_cast<std::int64_t>(stats.responses_5xx)}})},
             {"bytes_written", static_cast<std::int64_t>(stats.bytes_written)}}));
  }
  if (options.cache != nullptr || options.http_workers != 0) {
    json::Value http_block =
        json::object({{"workers", static_cast<std::int64_t>(options.http_workers)}});
    if (options.cache != nullptr) {
      const http::ResponseCacheStats cache = options.cache->stats();
      http_block.set(
          "cache",
          json::object({{"epoch", static_cast<std::int64_t>(cache.epoch)},
                        {"hits", static_cast<std::int64_t>(cache.hits)},
                        {"misses", static_cast<std::int64_t>(cache.misses)},
                        {"evictions", static_cast<std::int64_t>(cache.evictions)},
                        {"superseded", static_cast<std::int64_t>(cache.superseded)},
                        {"not_modified", static_cast<std::int64_t>(cache.not_modified)},
                        {"entries", static_cast<std::int64_t>(cache.entries)},
                        {"bytes", static_cast<std::int64_t>(cache.bytes)},
                        {"byte_budget", static_cast<std::int64_t>(cache.byte_budget)}}));
    }
    payload.set("http", std::move(http_block));
  }
  std::string body = json::dump(payload);
  if (options.metrics != nullptr) {
    // "telemetry" is the last key: reopen the object and write the
    // mirror straight into the body.
    body.pop_back();
    body += ",\"telemetry\":";
    telemetry::render_json(*options.metrics, body);
    body += '}';
  }
  return Response::json(200, std::move(body));
}

Response ingest_stats_handler(const std::vector<ShardSlot>& slots) {
  ingest::IngestStats total;
  bool running = false;
  json::Value per_shard = json::Value(json::Array{});
  for (const ShardSlot& slot : slots) {
    const ingest::IngestStats stats = slot.worker->stats();
    accumulate(total, stats);
    running = running || slot.up;
    per_shard.push_back(json::object(
        {{"shard", static_cast<std::int64_t>(slot.id)},
         {"up", slot.up},
         {"accepted", static_cast<std::int64_t>(stats.accepted)},
         {"epoch", static_cast<std::int64_t>(stats.current_epoch)},
         {"queue_depth", static_cast<std::int64_t>(stats.queue_depth)},
         {"live_checkins", static_cast<std::int64_t>(stats.live_checkins)}}));
  }
  return Response::json(
      200,
      json::dump(json::object(
          {{"running", running},
           {"submitted", static_cast<std::int64_t>(total.submitted)},
           {"accepted", static_cast<std::int64_t>(total.accepted)},
           {"rejected", static_cast<std::int64_t>(total.rejected)},
           {"invalid", static_cast<std::int64_t>(total.invalid)},
           {"queue", json::object({{"depth", static_cast<std::int64_t>(total.queue_depth)},
                                   {"capacity",
                                    static_cast<std::int64_t>(total.queue_capacity)}})},
           {"epoch", static_cast<std::int64_t>(total.current_epoch)},
           {"epochs_published", static_cast<std::int64_t>(total.epochs_published)},
           {"live_checkins", static_cast<std::int64_t>(total.live_checkins)},
           {"last_rebuild_ms", total.last_rebuild_ms},
           {"total_rebuild_ms", total.total_rebuild_ms},
           {"shards", std::move(per_shard)}})));
}

json::Value store_json(const store::StoreStats& stats) {
  return json::object(
      {{"dir", stats.dir},
       {"fsync_policy", stats.fsync_policy},
       {"wal",
        json::object(
            {{"segments", static_cast<std::int64_t>(stats.wal_segments)},
             {"bytes", static_cast<std::int64_t>(stats.wal_bytes)},
             {"bytes_since_checkpoint",
              static_cast<std::int64_t>(stats.wal_bytes_since_checkpoint)},
             {"last_record_seq", static_cast<std::int64_t>(stats.last_record_seq)}})},
       {"appends",
        json::object({{"records", static_cast<std::int64_t>(stats.append_records)},
                      {"bytes", static_cast<std::int64_t>(stats.append_bytes)},
                      {"failures", static_cast<std::int64_t>(stats.append_failures)},
                      {"fsyncs", static_cast<std::int64_t>(stats.fsyncs)}})},
       {"checkpoints",
        json::object(
            {{"written", static_cast<std::int64_t>(stats.checkpoints)},
             {"last_seq", static_cast<std::int64_t>(stats.last_checkpoint_seq)},
             {"last_epoch", static_cast<std::int64_t>(stats.last_checkpoint_epoch)}})},
       {"recovery",
        json::object({{"replayed_records",
                       static_cast<std::int64_t>(stats.recovery_replayed_records)},
                      {"truncated_bytes",
                       static_cast<std::int64_t>(stats.recovery_truncated_bytes)}})}});
}

/// Totals across every shard's store (max for sequence numbers), plus
/// each shard's own block.
Response store_stats_handler(const std::vector<ShardSlot>& slots) {
  store::StoreStats total;
  json::Value per_shard = json::Value(json::Array{});
  for (const ShardSlot& slot : slots) {
    const store::DurableStore* store = slot.worker->store();
    if (store == nullptr) continue;
    const store::StoreStats stats = store->stats();
    accumulate(total, stats);
    json::Value block = store_json(stats);
    block.set("shard", static_cast<std::int64_t>(slot.id));
    per_shard.push_back(std::move(block));
  }
  if (per_shard.as_array().empty()) {
    return Response::json(
        404, json::dump(json::object(
                 {{"error", "durable store not configured (set a store directory)"}})));
  }
  json::Value payload = store_json(total);
  payload.set("shards", std::move(per_shard));
  return Response::json(200, json::dump(payload));
}

/// Checkpoints every live shard; the first error wins (all are tried).
Response checkpoint_handler(const std::vector<ShardSlot>& slots) {
  Status first_error = Status::ok();
  store::StoreStats total;
  bool attempted = false;
  for (const ShardSlot& slot : slots) {
    if (!slot.up) continue;
    attempted = true;
    const Status status = slot.worker->checkpoint_now(std::chrono::seconds(30));
    if (!status.is_ok()) {
      if (first_error.is_ok()) first_error = status;
      continue;
    }
    accumulate(total, slot.worker->store()->stats());
  }
  if (!attempted) first_error = unavailable("no shard is serving");
  if (!first_error.is_ok()) {
    const int code = first_error.code() == StatusCode::kFailedPrecondition ? 404 : 503;
    return Response::json(code,
                          json::dump(json::object({{"error", first_error.to_string()}})));
  }
  return Response::json(
      200, json::dump(json::object(
               {{"checkpoint_seq", static_cast<std::int64_t>(total.last_checkpoint_seq)},
                {"epoch", static_cast<std::int64_t>(total.last_checkpoint_epoch)},
                {"wal_segments", static_cast<std::int64_t>(total.wal_segments)}})));
}

}  // namespace

http::Router make_router(const Platform& platform, std::shared_ptr<Deployment> deployment,
                         const ApiOptions& options) {
  http::Router router;
  const std::shared_ptr<Deployment> d = std::move(deployment);

  router.get_cached("/", [](const Request&, const PathParams&) {
    return Response::html(200, std::string(handlers::viewer_html()));
  });
  const auto batch = std::make_shared<const json::Value>(batch_status(platform));
  router.get("/api/status", [d, batch, options](const Request&, const PathParams&) {
    return status_handler(*d, *batch, options);
  });
  router.get("/api/shards", [d](const Request&, const PathParams&) {
    const json::Value blocks = shard_blocks(*d->pin(), d->shards());
    return Response::json(200, json::dump(json::object({{"shards", blocks}})));
  });

  const auto read = [&router, d](std::string_view pattern, handlers::ViewHandler handler) {
    router.get_cached(pattern, [d, handler](const Request& request, const PathParams& params) {
      return render(d->pin(),
                    [&](const PinnedView& view) { return handler(view, request, params); });
    });
  };
  read("/api/users", handlers::users_handler);
  read("/api/user/:id/patterns", handlers::user_patterns_handler);
  read("/api/user/:id/graph.svg", handlers::user_graph_handler);
  read("/api/user/:id/timeline.svg", handlers::user_timeline_handler);
  read("/api/crowd/:window", handlers::crowd_handler);
  read("/api/crowd/:window/map.svg", handlers::crowd_map_handler);
  read("/api/crowd/:window/geojson", handlers::crowd_geojson_handler);
  read("/api/groups/:window", handlers::groups_handler);
  read("/api/flow/:from/:to", handlers::flow_handler);
  read("/api/flow/:from/:to/map.svg", handlers::flow_map_handler);
  read("/api/animation.svg", handlers::animation_handler);
  read("/api/rhythm.svg", handlers::rhythm_handler);
  read("/api/communities", handlers::communities_handler);
  read("/api/predict/:id", handlers::predict_handler);
  router.post("/api/analyze", [d](const Request& request, const PathParams& params) {
    return render(d->pin(), [&](const PinnedView& view) {
      return handlers::analyze_handler(view, request, params);
    });
  });

  if (!d->shards().empty()) {
    // One ingest route at every shard count: guest ids and invalid rows
    // live on shard 0, events go to their owning shards, and the route
    // counts onto the crowdweb_transport_* families as "http_csv".
    std::shared_ptr<transport::IngestPipeline> own_pipeline;
    transport::IngestPipeline* pipeline = options.pipeline;
    if (pipeline == nullptr) {
      own_pipeline = std::make_shared<transport::IngestPipeline>(
          [d](std::span<const ingest::IngestEvent> events) { return d->submit(events); },
          transport::PipelineConfig{options.metrics});
      pipeline = own_pipeline.get();
    }
    transport::HttpCsvSource::Config source_config;
    source_config.front = d->shards().front().worker;
    source_config.stats = [d] { return total_stats(d->shards()); };
    auto source = std::make_shared<transport::HttpCsvSource>(*pipeline,
                                                             std::move(source_config));
    // The route owns the router-built pipeline, so it lives as long as
    // the source that submits through it.
    router.post("/api/ingest", [source, own_pipeline](const Request& request,
                                                      const PathParams&) {
      return source->handle(request);
    });
    router.get("/api/ingest/stats", [d](const Request&, const PathParams&) {
      return ingest_stats_handler(d->shards());
    });
    router.get("/api/store/stats", [d](const Request&, const PathParams&) {
      return store_stats_handler(d->shards());
    });
    router.post("/api/admin/checkpoint", [d](const Request&, const PathParams&) {
      return checkpoint_handler(d->shards());
    });
  }
  if (options.stream && options.ingest != nullptr) {
    // The SSE subscribe routes. They only open the stream (the server
    // subscribes the connection when it flushes the response); events
    // arrive once attach_stream_publisher() hooks the snapshot hub.
    router.get("/api/stream/epochs", [d](const Request&, const PathParams&) {
      std::string initial = "retry: 2000\n\n";
      initial += transport::sse_comment("subscribed epochs");
      const ViewPtr view = d->pin();
      if (const ingest::SnapshotPtr& snapshot = view->pins.front()) {
        initial += transport::sse_event(
            "epoch", transport::EpochStreamPublisher::epoch_event_json(*snapshot));
      }
      return transport::sse_response(std::string(transport::kEpochChannel),
                                     std::move(initial));
    });
    router.get("/api/stream/crowd/:window", [d](const Request& request,
                                                 const PathParams& params) {
      return render(d->pin(), [&](const PinnedView& view) {
        const auto window = handlers::int_param(params, "window");
        if (!window || !handlers::valid_window(view, *window))
          return handlers::bad_window(params, "window", view.crowd->window_count());
        std::string initial = "retry: 2000\n\n";
        initial += transport::sse_comment("subscribed crowd window");
        // Seed the stream with the current state so a consumer needs
        // no separate GET before the next epoch arrives.
        const Response current = handlers::crowd_handler(view, request, params);
        if (current.status == 200) initial += transport::sse_event("crowd", current.body);
        return transport::sse_response(transport::crowd_channel(static_cast<int>(*window)),
                                       std::move(initial));
      });
    });
  }
  if (telemetry::Registry* metrics = options.metrics; metrics != nullptr) {
    router.get("/metrics", [metrics](const Request&, const PathParams&) {
      return Response::text(200, telemetry::render_prometheus(*metrics),
                            telemetry::kPrometheusContentType);
    });
  }
  return router;
}

http::Router make_api_router(const Platform& platform, ApiOptions options) {
  std::shared_ptr<Deployment> deployment;
  if (options.ingest != nullptr) {
    deployment = std::make_shared<WorkerDeployment>(platform, *options.ingest);
  } else {
    deployment = std::make_shared<BatchDeployment>(platform);
  }
  return make_router(platform, std::move(deployment), options);
}

std::unique_ptr<transport::EpochStreamPublisher> attach_stream_publisher(
    http::Server& server, const Platform& platform, ingest::IngestWorker& worker,
    http::ResponseCache* cache) {
  const Platform* p = &platform;
  transport::EpochStreamOptions options;
  options.cache = cache;
  return std::make_unique<transport::EpochStreamPublisher>(
      server, worker.hub(),
      [p](const ingest::PlatformSnapshot& snapshot, int window) {
        // Same render as GET /api/crowd/:window over the snapshot being
        // published (pinned without ownership for this call), stamped
        // with its epoch so the cache files it under that epoch.
        const ingest::SnapshotPtr pin(ingest::SnapshotPtr{}, &snapshot);
        PathParams params;
        params.emplace("window", std::to_string(window));
        return render(view_of(*p, {pin}, snapshot.epoch), [&](const PinnedView& view) {
          return handlers::crowd_handler(view, Request{}, params);
        });
      },
      options);
}

ingest::IngestPipelineConfig ingest_pipeline_config(const Platform& platform) {
  ingest::IngestPipelineConfig pipeline;
  pipeline.sequences = platform.config().sequences;
  pipeline.mining = platform.config().mining;
  pipeline.mining_threads = platform.config().mining_threads;
  return pipeline;
}

std::unique_ptr<ingest::IngestWorker> make_ingest_worker(const Platform& platform,
                                                         ingest::IngestWorkerConfig config) {
  // Inherit the platform's registry so one scrape covers the batch build
  // and the live worker, unless the caller picked a registry explicitly.
  if (config.metrics == nullptr) config.metrics = platform.config().metrics;
  // Same for durability: the platform-level store config applies unless
  // the worker config already names a directory.
  if (config.store.dir.empty()) config.store = platform.config().store;
  return std::make_unique<ingest::IngestWorker>(*platform.snapshot(), platform.taxonomy(),
                                                ingest_pipeline_config(platform), config);
}

}  // namespace crowdweb::core
