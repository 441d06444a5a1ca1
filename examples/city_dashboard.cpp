// City dashboard — the CrowdWeb demo itself.
//
// Runs the full pipeline and then either serves the interactive viewer
// (embedded single-page app + JSON API) over HTTP, or — with --offline —
// dumps every artifact a booth visitor would click through (hourly crowd
// maps, flow maps, GeoJSON layers) into a directory.
//
// With --store-dir the dashboard also attaches a live ingestion worker
// backed by durable storage: POST /api/ingest accepts live check-ins,
// every accepted batch is journaled to a write-ahead log under the
// directory, and a restart with the same flag recovers the live corpus
// (checkpoint + WAL replay) before serving.
//
// With --shards N (N >= 2) the dashboard serves the multi-city layout
// instead: a ShardRouter partitions the corpus across N hash shards and
// every read scatter-gathers (see src/shard/router.hpp). --store-dir
// then names the deployment root — shard k persists and recovers under
// "<dir>/shard-<k>".
//
// Run:  ./city_dashboard [--seed N] [--port P] [--paper-scale] [--offline DIR]
//                        [--shards N] [--store-dir DIR [--fsync every_batch|never]]
//                        [--http-workers N] [--http-cache-mb MB]
//                        [--min-support F]

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <algorithm>

#include "core/api.hpp"
#include "core/platform.hpp"
#include "data/dataset_io.hpp"
#include "http/cache.hpp"
#include "http/server.hpp"
#include "json/json.hpp"
#include "shard/api.hpp"
#include "shard/router.hpp"
#include "telemetry/metrics.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "viz/citymap.hpp"
#include "viz/geojson.hpp"

using namespace crowdweb;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

struct Args {
  std::uint64_t seed = 42;
  std::uint16_t port = 8080;
  bool paper_scale = false;
  std::string offline_dir;  // empty = serve
  std::string data_dir;     // load venues.csv/checkins.csv instead of generating
  std::string store_dir;    // durable live ingestion (empty = static dashboard)
  std::size_t shards = 1;   // >= 2 serves the sharded deployment
  store::FsyncPolicy fsync = store::FsyncPolicy::kEveryBatch;
  int http_workers = -1;         // -1 = hardware concurrency, 0 = inline
  std::int64_t http_cache_mb = 64;  // response cache byte budget; 0 = off
  double min_support = 0.25;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--seed") {
      const char* v = next();
      const auto parsed = v != nullptr ? parse_int(v) : Result<std::int64_t>(parse_error(""));
      if (!parsed) return false;
      args.seed = static_cast<std::uint64_t>(*parsed);
    } else if (flag == "--port") {
      const char* v = next();
      const auto parsed = v != nullptr ? parse_int(v) : Result<std::int64_t>(parse_error(""));
      if (!parsed || *parsed < 0 || *parsed > 65535) return false;
      args.port = static_cast<std::uint16_t>(*parsed);
    } else if (flag == "--paper-scale") {
      args.paper_scale = true;
    } else if (flag == "--offline") {
      const char* v = next();
      if (v == nullptr) return false;
      args.offline_dir = v;
    } else if (flag == "--data") {
      const char* v = next();
      if (v == nullptr) return false;
      args.data_dir = v;
    } else if (flag == "--store-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      args.store_dir = v;
    } else if (flag == "--shards") {
      const char* v = next();
      const auto parsed = v != nullptr ? parse_int(v) : Result<std::int64_t>(parse_error(""));
      if (!parsed || *parsed < 1 || *parsed > 64) return false;
      args.shards = static_cast<std::size_t>(*parsed);
    } else if (flag == "--fsync") {
      const char* v = next();
      const auto policy = v != nullptr ? store::parse_fsync_policy(v) : std::nullopt;
      if (!policy) return false;
      args.fsync = *policy;
    } else if (flag == "--http-workers") {
      const char* v = next();
      const auto parsed = v != nullptr ? parse_int(v) : Result<std::int64_t>(parse_error(""));
      if (!parsed || *parsed < 0) return false;
      args.http_workers = static_cast<int>(*parsed);
    } else if (flag == "--http-cache-mb") {
      const char* v = next();
      const auto parsed = v != nullptr ? parse_int(v) : Result<std::int64_t>(parse_error(""));
      if (!parsed || *parsed < 0) return false;
      args.http_cache_mb = *parsed;
    } else if (flag == "--min-support") {
      const char* v = next();
      const auto parsed = v != nullptr ? parse_double(v) : Result<double>(parse_error(""));
      if (!parsed || *parsed <= 0.0 || *parsed > 1.0) return false;
      args.min_support = *parsed;
    } else {
      return false;
    }
  }
  return true;
}

int dump_offline(const core::Platform& platform, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const auto& model = platform.crowd_model();

  for (int window = 0; window < model.window_count(); ++window) {
    const auto distribution = model.distribution(window);
    viz::CityMapOptions options;
    options.title = crowdweb::format("Crowd {}", model.window_label(window));
    Status status = data::write_file(
        crowdweb::format("{}/crowd_{:02}.svg", dir, window),
        viz::render_city_map(distribution, platform.grid(), platform.experiment_dataset(),
                             options));
    if (!status.is_ok()) {
      std::fprintf(stderr, "%s\n", status.to_string().c_str());
      return 1;
    }
    status = data::write_file(
        crowdweb::format("{}/crowd_{:02}.geojson", dir, window),
        json::dump(viz::distribution_geojson(distribution, platform.grid())));
    if (!status.is_ok()) {
      std::fprintf(stderr, "%s\n", status.to_string().c_str());
      return 1;
    }
  }

  // Morning -> noon -> evening flow maps.
  for (const auto& [from, to] : {std::pair{8, 9}, {9, 12}, {12, 17}, {17, 20}}) {
    const auto flow = model.flow(from, to);
    viz::CityMapOptions options;
    options.title = crowdweb::format("Flow {} to {}", model.window_label(from),
                                     model.window_label(to));
    const Status status = data::write_file(
        crowdweb::format("{}/flow_{:02}_{:02}.svg", dir, from, to),
        viz::render_flow_map(flow, model.distribution(to), platform.grid(),
                             platform.experiment_dataset(), options));
    if (!status.is_ok()) {
      std::fprintf(stderr, "%s\n", status.to_string().c_str());
      return 1;
    }
  }

  const Status venues = data::write_file(
      crowdweb::format("{}/venues.geojson", dir),
      json::dump(viz::venues_geojson(platform.experiment_dataset(), platform.taxonomy())));
  if (!venues.is_ok()) {
    std::fprintf(stderr, "%s\n", venues.to_string().c_str());
    return 1;
  }
  std::printf("wrote %d crowd maps, 4 flow maps, and GeoJSON layers to %s/\n",
              model.window_count(), dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kInfo);
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--port P] [--paper-scale] [--offline DIR] "
                 "[--data DIR] [--shards N] "
                 "[--store-dir DIR [--fsync every_batch|never]] "
                 "[--http-workers N] [--http-cache-mb MB] "
                 "[--min-support F]\n",
                 argv[0]);
    return 2;
  }

  // One registry for the whole process: batch build, HTTP server, and
  // /metrics all record into (and scrape from) the same place.
  telemetry::Registry metrics;

  core::PlatformConfig config;
  config.seed = args.seed;
  config.small_corpus = !args.paper_scale;
  config.min_active_days = args.paper_scale ? 50 : 20;
  config.mining.min_support = args.min_support;
  config.metrics = &metrics;
  config.store.dir = args.store_dir;
  config.store.fsync = args.fsync;
  std::printf("building the CrowdWeb platform (%s)...\n",
              !args.data_dir.empty() ? args.data_dir.c_str()
                                     : (args.paper_scale ? "paper-scale corpus"
                                                         : "small corpus"));
  auto platform = args.data_dir.empty()
                      ? core::Platform::create(config)
                      : core::Platform::from_csv_files(args.data_dir + "/venues.csv",
                                                       args.data_dir + "/checkins.csv",
                                                       config);
  if (!platform) {
    std::fprintf(stderr, "platform failed: %s\n", platform.status().to_string().c_str());
    return 1;
  }

  if (!args.offline_dir.empty()) return dump_offline(*platform, args.offline_dir);

  // Response cache: every cacheable route is a pure function of
  // (target, epoch), so entries never need explicit invalidation — the
  // publish hook below re-keys the cache on every new snapshot.
  std::unique_ptr<http::ResponseCache> cache;
  if (args.http_cache_mb > 0) {
    http::ResponseCacheConfig cache_config;
    cache_config.max_bytes = static_cast<std::size_t>(args.http_cache_mb) << 20;
    cache_config.metrics = &metrics;
    cache = std::make_unique<http::ResponseCache>(cache_config);
  }

  // Sharded mode: a ShardRouter replaces the single-process pipeline.
  // Ingestion, durability (per-shard store dirs under --store-dir), and
  // cache re-keying (epoch-vector tags) are all owned by the router.
  std::unique_ptr<shard::ShardRouter> shard_router;
  if (args.shards >= 2) {
    shard::ShardRouterConfig shard_config;
    shard_config.shard_count = args.shards;
    shard_config.metrics = &metrics;
    shard_config.worker.store.dir = args.store_dir;
    shard_config.worker.store.fsync = args.fsync;
    auto router = shard::ShardRouter::create(*platform, std::move(shard_config));
    if (!router) {
      std::fprintf(stderr, "shard router failed: %s\n", router.status().to_string().c_str());
      return 1;
    }
    shard_router = std::move(*router);
    if (cache != nullptr) shard_router->rekey_cache_on_publish(cache.get());
    if (const Status status = shard_router->start(); !status.is_ok()) {
      std::fprintf(stderr, "shard router failed: %s\n", status.to_string().c_str());
      return 1;
    }
    std::printf("sharded deployment: %zu hash shards, epoch vector [%s]%s\n",
                shard_router->shard_count(), shard_router->epoch_tag().c_str(),
                args.store_dir.empty()
                    ? ""
                    : crowdweb::format(", durable under {}/shard-*", args.store_dir).c_str());
  }

  // Live mode: the worker recovers the durable corpus (checkpoint + WAL
  // replay) inside start(), before the server accepts a single request.
  // The epoch hook is registered before start() so the initial publish
  // already keys the cache.
  std::unique_ptr<ingest::IngestWorker> worker;
  if (shard_router == nullptr && !args.store_dir.empty()) {
    worker = core::make_ingest_worker(*platform);
    if (cache != nullptr) {
      http::ResponseCache* c = cache.get();
      worker->hub().on_publish(
          [c](const ingest::PlatformSnapshot& snapshot) { c->set_epoch(snapshot.epoch); });
    }
    if (const Status status = worker->start(); !status.is_ok()) {
      std::fprintf(stderr, "ingest worker failed: %s\n", status.to_string().c_str());
      return 1;
    }
    std::printf("durable ingestion on (%s, fsync=%s), epoch %llu published\n",
                args.store_dir.c_str(), std::string(store::to_string(args.fsync)).c_str(),
                static_cast<unsigned long long>(worker->hub().epoch()));
  }

  const int resolved_workers =
      args.http_workers < 0
          ? std::max(1, static_cast<int>(std::thread::hardware_concurrency()))
          : args.http_workers;
  http::Router api_router;
  if (shard_router != nullptr) {
    shard::ShardApiOptions shard_api;
    shard_api.metrics = &metrics;
    shard_api.cache = cache.get();
    shard_api.http_workers = resolved_workers;
    api_router = shard::make_shard_api_router(*shard_router, std::move(shard_api));
  } else {
    core::ApiOptions api_options;
    api_options.ingest = worker.get();
    api_options.metrics = &metrics;
    api_options.cache = cache.get();
    api_options.http_workers = resolved_workers;
    api_router = core::make_api_router(*platform, api_options);
  }
  http::ServerConfig server_config;
  server_config.port = args.port;
  server_config.metrics = &metrics;
  server_config.worker_threads = args.http_workers;
  server_config.cache = cache.get();
  http::Server server(api_router, server_config);
  const Status started = server.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "server failed: %s\n", started.to_string().c_str());
    return 1;
  }
  std::printf("CrowdWeb is up: http://127.0.0.1:%u/  (Ctrl-C to stop)\n", server.port());
  std::printf("serving with %d worker thread(s), response cache %s\n",
              server.worker_threads(),
              cache != nullptr
                  ? crowdweb::format("{} MB", args.http_cache_mb).c_str()
                  : "off");

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0 && server.running()) {
    timespec nap{0, 100'000'000};  // 100 ms
    nanosleep(&nap, nullptr);
  }
  std::printf("\nshutting down\n");
  server.stop();
  if (worker != nullptr) worker->stop();  // final WAL sync happens here
  if (shard_router != nullptr) shard_router->stop();
  return 0;
}
