// Live crowd monitor — the full ingestion loop over a real socket.
//
// Boots the batch platform on a small corpus, attaches an IngestWorker,
// serves the live API on localhost, and then replays a *different*
// synthetic corpus through the replay driver's HTTP sink: every batch is
// POSTed to /api/ingest exactly as an external feed would. While the
// replay runs, the dashboard polls /api/ingest/stats once a second and
// prints queue depth, accept/reject counters, and the advancing epoch.
// Contrast with city_dashboard, which renders where the crowd *usually*
// is from the frozen batch model; this shows the corpus evolving.
//
// With --store-dir every accepted batch is also journaled to a durable
// write-ahead log; run it twice with the same directory and the second
// run recovers the first run's live corpus before the feed starts.
//
// The transport subsystem (src/transport) is on display end to end:
// --transport binary replays through the framed TCP listener instead of
// CSV-over-HTTP (both submit through one pipeline; the producer retries
// what the queue rejects), and the dashboard subscribes to
// GET /api/stream/epochs (SSE) so epoch lines arrive as pushes, not
// polls (it falls back to polling if the subscribe fails).
//
// Run:  ./live_monitor [--seed N] [--rate R] [--duration S] [--port P]
//                      [--transport csv|binary]
//                      [--store-dir DIR [--fsync every_batch|never]]
//                      [--http-workers N] [--http-cache-mb MB]
//                      [--min-support F]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/platform.hpp"
#include "http/cache.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "ingest/replay.hpp"
#include "json/json.hpp"
#include "synth/generator.hpp"
#include "telemetry/metrics.hpp"
#include "transport/frame_client.hpp"
#include "transport/frame_server.hpp"
#include "transport/pipeline.hpp"
#include "transport/sse.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace crowdweb;

namespace {

int usage(const char* name) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--rate R] [--duration S] [--port P] "
               "[--transport csv|binary] "
               "[--store-dir DIR [--fsync every_batch|never]] "
               "[--http-workers N] [--http-cache-mb MB] "
               "[--min-support F]\n",
               name);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  std::uint64_t seed = 42;
  double rate = 500.0;       // offered events per second
  double duration = 10.0;    // replay wall-clock budget, seconds
  std::uint16_t port = 0;    // 0 = ephemeral
  std::string store_dir;     // empty = ephemeral live corpus
  bool binary = false;       // producer path: CSV-over-HTTP or framed TCP
  store::FsyncPolicy fsync = store::FsyncPolicy::kEveryBatch;
  int http_workers = -1;            // -1 = hardware concurrency, 0 = inline
  std::int64_t http_cache_mb = 64;  // response cache byte budget; 0 = off
  double min_support = 0.5;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--seed" && i + 1 < argc) {
      const auto parsed = parse_int(argv[++i]);
      if (!parsed || *parsed < 0) return usage(argv[0]);
      seed = static_cast<std::uint64_t>(*parsed);
    } else if (flag == "--rate" && i + 1 < argc) {
      const auto parsed = parse_double(argv[++i]);
      if (!parsed || *parsed <= 0.0) return usage(argv[0]);
      rate = *parsed;
    } else if (flag == "--duration" && i + 1 < argc) {
      const auto parsed = parse_double(argv[++i]);
      if (!parsed || *parsed <= 0.0) return usage(argv[0]);
      duration = *parsed;
    } else if (flag == "--port" && i + 1 < argc) {
      const auto parsed = parse_int(argv[++i]);
      if (!parsed || *parsed < 0 || *parsed > 65'535) return usage(argv[0]);
      port = static_cast<std::uint16_t>(*parsed);
    } else if (flag == "--store-dir" && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (flag == "--transport" && i + 1 < argc) {
      const std::string_view mode = argv[++i];
      if (mode == "binary") binary = true;
      else if (mode != "csv") return usage(argv[0]);
    } else if (flag == "--fsync" && i + 1 < argc) {
      const auto policy = store::parse_fsync_policy(argv[++i]);
      if (!policy) return usage(argv[0]);
      fsync = *policy;
    } else if (flag == "--http-workers" && i + 1 < argc) {
      const auto parsed = parse_int(argv[++i]);
      if (!parsed || *parsed < 0) return usage(argv[0]);
      http_workers = static_cast<int>(*parsed);
    } else if (flag == "--http-cache-mb" && i + 1 < argc) {
      const auto parsed = parse_int(argv[++i]);
      if (!parsed || *parsed < 0) return usage(argv[0]);
      http_cache_mb = *parsed;
    } else if (flag == "--min-support" && i + 1 < argc) {
      const auto parsed = parse_double(argv[++i]);
      if (!parsed || *parsed <= 0.0 || *parsed > 1.0) return usage(argv[0]);
      min_support = *parsed;
    } else {
      return usage(argv[0]);
    }
  }

  // One registry shared by the batch build, the worker, the server, and
  // GET /metrics — a single scrape shows the whole ingestion loop.
  telemetry::Registry metrics;

  // Batch platform: phases 1-3 over the base corpus.
  core::PlatformConfig config;
  config.seed = seed;
  config.small_corpus = true;
  config.min_active_days = 20;
  config.mining.min_support = min_support;
  config.metrics = &metrics;
  config.store.dir = store_dir;
  config.store.fsync = fsync;
  std::printf("building platform (seed %llu)...\n",
              static_cast<unsigned long long>(seed));
  auto platform = core::Platform::create(config);
  if (!platform) {
    std::fprintf(stderr, "platform failed: %s\n", platform.status().to_string().c_str());
    return 1;
  }

  // Response cache, re-keyed by every epoch publish: stale entries
  // become unreachable the instant a snapshot lands, with no explicit
  // invalidation anywhere.
  std::unique_ptr<http::ResponseCache> cache;
  if (http_cache_mb > 0) {
    http::ResponseCacheConfig cache_config;
    cache_config.max_bytes = static_cast<std::size_t>(http_cache_mb) << 20;
    cache_config.metrics = &metrics;
    cache = std::make_unique<http::ResponseCache>(cache_config);
  }

  // Live side: worker + API + server. The epoch hook is registered
  // before start() so the initial publish already keys the cache.
  auto worker = core::make_ingest_worker(*platform);
  if (cache != nullptr) {
    http::ResponseCache* c = cache.get();
    worker->hub().on_publish(
        [c](const ingest::PlatformSnapshot& snapshot) { c->set_epoch(snapshot.epoch); });
  }
  if (const Status status = worker->start(); !status.is_ok()) {
    std::fprintf(stderr, "worker failed: %s\n", status.to_string().c_str());
    return 1;
  }
  const int resolved_workers =
      http_workers < 0 ? std::max(1, static_cast<int>(std::thread::hardware_concurrency()))
                       : http_workers;

  // Transport funnel: every producer path (HTTP CSV route, framed TCP
  // listener) submits through one pipeline and shares its
  // crowdweb_transport_* accounting.
  ingest::IngestWorker* worker_ptr = worker.get();
  transport::PipelineConfig pipeline_config;
  pipeline_config.metrics = &metrics;
  transport::IngestPipeline pipeline(
      [worker_ptr](std::span<const ingest::IngestEvent> events) {
        return worker_ptr->submit(events);
      },
      pipeline_config);

  core::ApiOptions api_options;
  api_options.ingest = worker.get();
  api_options.server_stats = std::make_shared<std::function<http::ServerStats()>>();
  api_options.metrics = &metrics;
  api_options.cache = cache.get();
  api_options.http_workers = resolved_workers;
  api_options.pipeline = &pipeline;
  api_options.stream = true;
  http::ServerConfig server_config;
  server_config.port = port;
  server_config.metrics = &metrics;
  server_config.worker_threads = http_workers;
  server_config.cache = cache.get();
  http::Server server(core::make_api_router(*platform, api_options), server_config);
  if (const Status status = server.start(); !status.is_ok()) {
    std::fprintf(stderr, "server failed: %s\n", status.to_string().c_str());
    return 1;
  }
  *api_options.server_stats = [&server] { return server.stats(); };
  // Epoch publications now fan out to the SSE routes; destroyed before
  // the server (its hook flips inactive, so late publishes are no-ops).
  auto publisher =
      core::attach_stream_publisher(server, *platform, *worker, cache.get());

  // Binary producer edge: the framed TCP listener feeding the same
  // pipeline as the HTTP route.
  std::unique_ptr<transport::FrameServer> frame_server;
  if (binary) {
    transport::FrameServerConfig frame_config;
    frame_config.metrics = &metrics;
    frame_server = std::make_unique<transport::FrameServer>(pipeline, frame_config);
    if (const Status status = frame_server->start(); !status.is_ok()) {
      std::fprintf(stderr, "frame listener failed: %s\n", status.to_string().c_str());
      return 1;
    }
    std::printf("binary frame listener on 127.0.0.1:%u\n", frame_server->port());
  }
  std::printf("live API on http://127.0.0.1:%u (epoch %llu published, %d worker(s), "
              "cache %s)\n",
              server.port(), static_cast<unsigned long long>(worker->hub().epoch()),
              server.worker_threads(),
              cache != nullptr ? crowdweb::format("{} MB", http_cache_mb).c_str() : "off");
  if (const store::DurableStore* durable = worker->store(); durable != nullptr) {
    const store::StoreStats store_stats = durable->stats();
    std::printf("durable store %s: recovered %llu record(s), WAL at seq %llu\n",
                store_stats.dir.c_str(),
                static_cast<unsigned long long>(store_stats.recovery_replayed_records),
                static_cast<unsigned long long>(store_stats.last_record_seq));
  }
  std::printf("\n");

  // The live feed: a different seed's corpus, so every event is genuinely
  // new traffic, replayed in timestamp order through the HTTP sink.
  auto feed = synth::small_corpus(seed + 1);
  if (!feed) {
    std::fprintf(stderr, "feed corpus failed: %s\n", feed.status().to_string().c_str());
    return 1;
  }
  std::vector<data::CheckIn> stream(feed->dataset.checkins().begin(),
                                    feed->dataset.checkins().end());
  std::sort(stream.begin(), stream.end(),
            [](const data::CheckIn& a, const data::CheckIn& b) {
              return a.timestamp < b.timestamp;
            });

  ingest::ReplayOptions replay_options;
  replay_options.events_per_second = rate;
  replay_options.max_seconds = duration;
  ingest::ReplaySink sink;
  if (binary) {
    auto client = std::make_shared<transport::FrameClient>();
    if (const Status status = client->connect_tcp("127.0.0.1", frame_server->port());
        !status.is_ok()) {
      std::fprintf(stderr, "frame client failed: %s\n", status.to_string().c_str());
      return 1;
    }
    sink = transport::frame_sink(std::move(client));
  } else {
    sink = ingest::http_sink("127.0.0.1", server.port(), platform->taxonomy());
  }
  Result<ingest::ReplayReport> report = ingest::ReplayReport{};
  std::thread feeder([&] { report = ingest::replay(stream, replay_options, sink); });

  std::printf("feeding over %s\n", binary ? "binary TCP frames" : "CSV over HTTP");
  std::printf("%8s %8s %8s %8s %8s %6s %12s\n", "accepted", "rejected", "invalid",
              "depth", "epoch", "live", "rebuild ms");
  const auto poll = [&]() -> bool {
    const auto response = http::get("127.0.0.1", server.port(), "/api/ingest/stats");
    if (!response || response->status != 200) return false;
    const auto payload = json::parse(response->body);
    if (!payload) return false;
    const auto field = [&](const char* name) -> std::int64_t {
      const json::Value* value = payload->find(name);
      return value != nullptr ? value->as_int() : 0;
    };
    const json::Value* queue = payload->find("queue");
    const json::Value* depth = queue != nullptr ? queue->find("depth") : nullptr;
    const json::Value* rebuild = payload->find("last_rebuild_ms");
    std::printf("%8lld %8lld %8lld %8lld %8lld %6lld %12.1f\n",
                static_cast<long long>(field("accepted")),
                static_cast<long long>(field("rejected")),
                static_cast<long long>(field("invalid")),
                static_cast<long long>(depth != nullptr ? depth->as_int() : 0),
                static_cast<long long>(field("epoch")),
                static_cast<long long>(field("live_checkins")),
                rebuild != nullptr ? rebuild->as_double() : 0.0);
    return true;
  };
  // Dashboard: subscribe to the epoch stream — lines arrive when the
  // worker publishes, no polling. Falls back to 1 Hz stats polling if
  // the subscribe fails.
  transport::SseClient epochs;
  const bool streaming =
      epochs.connect("127.0.0.1", server.port(), "/api/stream/epochs").is_ok();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<std::int64_t>(duration * 1000.0) + 1500);
  if (streaming) {
    std::printf("(epoch rows pushed via /api/stream/epochs)\n");
    while (std::chrono::steady_clock::now() < deadline) {
      const auto event = epochs.next_event(std::chrono::milliseconds(500));
      if (!event) {
        if (event.status().code() == StatusCode::kUnavailable) continue;  // quiet tick
        break;  // server closed the stream
      }
      if (event->event != "epoch") continue;
      const auto payload = json::parse(event->data);
      if (!payload) continue;
      const auto field = [&](const char* name) -> std::int64_t {
        const json::Value* value = payload->find(name);
        return value != nullptr ? value->as_int() : 0;
      };
      const json::Value* rebuild = payload->find("rebuild_ms");
      std::printf("%8s %8s %8s %8s %8lld %6lld %12.1f\n", "-", "-", "-", "-",
                  static_cast<long long>(field("epoch")),
                  static_cast<long long>(field("live_checkins")),
                  rebuild != nullptr ? rebuild->as_double() : 0.0);
    }
  } else {
    std::fprintf(stderr, "SSE subscribe failed; polling /api/ingest/stats\n");
    const int ticks = static_cast<int>(duration) + 1;
    for (int tick = 0; tick < ticks; ++tick) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      if (!poll()) std::fprintf(stderr, "stats poll failed\n");
    }
  }
  feeder.join();
  poll();

  if (frame_server != nullptr) {
    const transport::FrameServerStats frame_stats = frame_server->stats();
    std::printf("frames: %llu frame(s), %llu event(s), %llu accepted, %llu rejected\n",
                static_cast<unsigned long long>(frame_stats.frames),
                static_cast<unsigned long long>(frame_stats.events),
                static_cast<unsigned long long>(frame_stats.accepted),
                static_cast<unsigned long long>(frame_stats.rejected));
  }

  if (!report) {
    std::fprintf(stderr, "replay failed: %s\n", report.status().to_string().c_str());
    return 1;
  }
  std::printf("\nreplay: offered %zu (%.0f/s), accepted %zu, rejected %zu in %.1fs\n",
              report->offered, report->offered_per_second(), report->accepted,
              report->rejected, report->elapsed_seconds);
  const http::ServerStats http_stats = server.stats();
  std::printf("server: %llu requests, %llu/%llu/%llu 2xx/4xx/5xx, %llu bytes out\n",
              static_cast<unsigned long long>(http_stats.requests),
              static_cast<unsigned long long>(http_stats.responses_2xx),
              static_cast<unsigned long long>(http_stats.responses_4xx),
              static_cast<unsigned long long>(http_stats.responses_5xx),
              static_cast<unsigned long long>(http_stats.bytes_written));
  worker->stop();
  const ingest::IngestStats final_stats = worker->stats();
  std::printf("worker: %llu epochs published, final epoch %llu, %.1f ms total rebuild\n",
              static_cast<unsigned long long>(final_stats.epochs_published),
              static_cast<unsigned long long>(final_stats.current_epoch),
              final_stats.total_rebuild_ms);
  if (frame_server != nullptr) frame_server->stop();
  publisher.reset();
  server.stop();
  return 0;
}
