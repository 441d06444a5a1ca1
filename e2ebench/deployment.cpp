#include "deployment.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <span>
#include <thread>
#include <utility>

#include "core/api.hpp"
#include "data/categories.hpp"
#include "data/dataset_io.hpp"
#include "http/cache.hpp"
#include "http/server.hpp"
#include "ingest/worker.hpp"
#include "shard/api.hpp"
#include "shard/router.hpp"
#include "telemetry/metrics.hpp"
#include "transport/frame_server.hpp"
#include "transport/pipeline.hpp"
#include "transport/sse.hpp"

namespace e2e {

using namespace crowdweb;

core::PlatformConfig platform_config(const json::Value& manifest) {
  core::PlatformConfig config;
  config.min_active_days =
      static_cast<int>(int_of(manifest, "min_active_days", config.min_active_days));
  return config;
}

Result<data::Dataset> load_dataset(const std::string& dir) {
  auto venues = data::read_file(dir + "/venues.csv");
  if (!venues) return venues.status();
  auto checkins = data::read_file(dir + "/checkins.csv");
  if (!checkins) return checkins.status();
  return data::dataset_from_csv(*venues, *checkins, data::Taxonomy::foursquare());
}

// Declaration order is teardown order reversed: the publisher dies
// before the server, the server before the worker/router it reads, and
// the registry and cache outlive everything that records into them.
struct Deployment::Parts {
  telemetry::Registry metrics;
  std::optional<core::Platform> platform;
  std::unique_ptr<http::ResponseCache> cache;
  std::unique_ptr<ingest::IngestWorker> worker;
  std::unique_ptr<shard::ShardRouter> router;
  std::unique_ptr<transport::IngestPipeline> pipeline;
  std::unique_ptr<transport::FrameServer> frames;
  std::unique_ptr<http::Server> server;
  std::unique_ptr<transport::EpochStreamPublisher> publisher;
  bool stopped = false;
};

Deployment::Deployment() : setup_ms_(json::Object{}), parts_(std::make_unique<Parts>()) {}

Deployment::~Deployment() { stop(); }

std::uint16_t Deployment::http_port() const noexcept { return parts_->server->port(); }

std::uint16_t Deployment::frame_port() const noexcept { return parts_->frames->port(); }

void Deployment::stop() {
  Parts& p = *parts_;
  if (p.stopped) return;
  p.stopped = true;
  if (p.frames) p.frames->stop();
  if (p.worker) p.worker->stop();
  if (p.router) p.router->stop();
  p.publisher.reset();
  if (p.server) p.server->stop();
}

Result<std::unique_ptr<Deployment>> Deployment::boot(const DeploymentOptions& options) {
  std::unique_ptr<Deployment> deployment(new Deployment());
  Deployment& d = *deployment;
  Parts& p = *d.parts_;
  SpanLog* spans = options.trace ? &d.spans_ : nullptr;
  const auto elapsed_ms = [](std::int64_t since_ns) {
    return static_cast<double>(now_ns() - since_ns) / 1e6;
  };

  auto manifest = read_json(options.inputs + "/manifest.json");
  if (!manifest) return manifest.status();
  std::int64_t t0 = now_ns();
  auto dataset = load_dataset(options.inputs);
  if (!dataset) return dataset.status();
  d.setup_ms_.set("load", elapsed_ms(t0));

  core::PlatformConfig config = platform_config(*manifest);
  config.metrics = &p.metrics;
  config.store.dir = options.shards <= 1 ? options.store_dir : std::string();
  auto platform = core::Platform::from_dataset(std::move(dataset).value(), config);
  if (!platform) return platform.status();
  p.platform.emplace(std::move(platform).value());
  d.setup_ms_.set("build.acquisition", p.platform->timings().acquisition_ms);
  d.setup_ms_.set("build.mining", p.platform->timings().mining_ms);
  d.setup_ms_.set("build.crowd", p.platform->timings().crowd_ms);

  http::ResponseCacheConfig cache_config;
  cache_config.metrics = &p.metrics;
  p.cache = std::make_unique<http::ResponseCache>(cache_config);
  http::ResponseCache* cache = p.cache.get();

  const auto publish_span = [spans](std::size_t shard) {
    return [spans, shard](const ingest::PlatformSnapshot& snapshot) {
      const std::int64_t t = now_ns();
      spans->add({"publish", snapshot.epoch, t, t, snapshot.rebuild_ms,
                  static_cast<double>(snapshot.live_checkins), static_cast<double>(shard)});
    };
  };

  transport::SubmitFn submit;
  t0 = now_ns();
  if (options.shards <= 1) {
    p.worker = core::make_ingest_worker(*p.platform);
    p.worker->hub().on_publish(
        [cache](const ingest::PlatformSnapshot& snapshot) { cache->set_epoch(snapshot.epoch); });
    if (spans != nullptr) p.worker->hub().on_publish(publish_span(0));
    if (const Status status = p.worker->start(); !status.is_ok()) return status;
    ingest::IngestWorker* worker = p.worker.get();
    submit = [worker](std::span<const ingest::IngestEvent> events) {
      return worker->submit(events);
    };
  } else {
    shard::ShardRouterConfig shard_config;
    shard_config.shard_count = options.shards;
    shard_config.metrics = &p.metrics;
    shard_config.worker.store.dir = options.store_dir;
    auto router = shard::ShardRouter::create(*p.platform, std::move(shard_config));
    if (!router) return router.status();
    p.router = std::move(router).value();
    p.router->rekey_cache_on_publish(cache);
    if (spans != nullptr) {
      for (std::size_t k = 0; k < p.router->shard_count(); ++k)
        p.router->shard(k).worker().hub().on_publish(publish_span(k));
    }
    if (const Status status = p.router->start(); !status.is_ok()) return status;
    shard::ShardRouter* router_ptr = p.router.get();
    submit = [router_ptr](std::span<const ingest::IngestEvent> events) {
      return router_ptr->submit(events);
    };
  }
  d.setup_ms_.set("start.worker", elapsed_ms(t0));

  if (spans != nullptr) {
    auto inner = std::move(submit);
    auto calls = std::make_shared<std::atomic<std::uint64_t>>(0);
    submit = [spans, inner = std::move(inner), calls](
                 std::span<const ingest::IngestEvent> events) {
      const std::int64_t start = now_ns();
      const ingest::SubmitResult result = inner(events);
      spans->add({"submit", calls->fetch_add(1), start, now_ns(),
                  static_cast<double>(result.accepted), static_cast<double>(result.rejected),
                  static_cast<double>(events.size())});
      return result;
    };
  }

  // Frame listener. Spool-less like shard::ShardTransport's routed
  // listener: rejected suffixes go back to the producer, which retries.
  t0 = now_ns();
  transport::PipelineConfig pipeline_config;
  pipeline_config.metrics = &p.metrics;
  p.pipeline = std::make_unique<transport::IngestPipeline>(std::move(submit),
                                                           std::move(pipeline_config));
  transport::FrameServerConfig frame_config;
  frame_config.metrics = &p.metrics;
  p.frames = std::make_unique<transport::FrameServer>(*p.pipeline, frame_config);
  if (const Status status = p.frames->start(); !status.is_ok()) return status;
  d.setup_ms_.set("start.frames", elapsed_ms(t0));

  t0 = now_ns();
  const int http_workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  auto server_stats = std::make_shared<std::function<http::ServerStats()>>();
  http::Router api;
  if (p.worker != nullptr) {
    core::ApiOptions api_options;
    api_options.ingest = p.worker.get();
    api_options.server_stats = server_stats;
    api_options.metrics = &p.metrics;
    api_options.cache = cache;
    api_options.http_workers = http_workers;
    api_options.pipeline = p.pipeline.get();
    api_options.stream = true;
    api = core::make_api_router(*p.platform, api_options);
  } else {
    shard::ShardApiOptions shard_api;
    shard_api.server_stats = server_stats;
    shard_api.metrics = &p.metrics;
    shard_api.cache = cache;
    shard_api.http_workers = http_workers;
    api = shard::make_shard_api_router(*p.router, std::move(shard_api));
  }
  http::ServerConfig server_config;
  server_config.metrics = &p.metrics;
  server_config.cache = cache;
  p.server = std::make_unique<http::Server>(std::move(api), server_config);
  if (const Status status = p.server->start(); !status.is_ok()) return status;
  http::Server* server = p.server.get();
  *server_stats = [server] { return server->stats(); };
  if (p.worker != nullptr)
    p.publisher = core::attach_stream_publisher(*p.server, *p.platform, *p.worker, cache);
  d.setup_ms_.set("start.server", elapsed_ms(t0));
  return deployment;
}

}  // namespace e2e
