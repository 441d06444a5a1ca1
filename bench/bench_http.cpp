// Serving-path bench: off-loop request execution + the epoch-keyed
// response cache.
//
// Three claims, measured over real loopback sockets with closed-loop
// keep-alive clients:
//
//   1. Worker pool: with worker_threads >= 2, fast-route tail latency
//      stays flat while a slow route is in flight; inline execution
//      (worker_threads = 0, the pre-pool behavior) convoys every fast
//      request behind the slow handler.
//   2. Response cache: a warm cache serves /api/crowd/:window at a
//      multiple of the cold-miss rate (the handler never runs on a hit).
//   3. Epoch freshness: after the ingest worker publishes a new epoch,
//      responses reflect the new snapshot with no explicit invalidation
//      (the cache key changed), the ETag rotates, and the publish frees
//      the superseded epoch's entry (one entry resident after re-warm).
//
// Section 4 reports what one cache miss costs to render per hot route
// (/api/status with a started worker's registry in its telemetry mirror,
// crowd JSON, map and GeoJSON, flow JSON and map), dispatched in-process
// so no socket time is included. It gates only that every body is
// non-empty and parses; the times are for reading, not a bar.
//
// Emits BENCH_http.json (override with --out). --smoke shrinks the
// workload for CI and relaxes the throughput assertions to direction
// checks; the full run enforces the 5x pool and 10x cache bars.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/platform.hpp"
#include "data/dataset_io.hpp"
#include "http/cache.hpp"
#include "http/server.hpp"
#include "ingest/replay.hpp"
#include "ingest/worker.hpp"
#include "json/json.hpp"
#include "synth/generator.hpp"
#include "telemetry/metrics.hpp"
#include "util/log.hpp"

using namespace crowdweb;
using Clock = std::chrono::steady_clock;

namespace {

// ------------------------------------------------------------ raw client

/// Blocking keep-alive connection: one socket, many round trips. The
/// shared http::client opens a connection per request, which would
/// measure connect cost instead of the serving path.
class KeepAliveClient {
 public:
  explicit KeepAliveClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~KeepAliveClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// One GET round trip; returns the raw response (headers + body), or
  /// empty on error.
  std::string round_trip(const std::string& target,
                         const std::string& extra_headers = {}) {
    std::string request = "GET " + target + " HTTP/1.1\r\nHost: bench\r\n";
    request += extra_headers;
    request += "\r\n";
    if (::write(fd_, request.data(), request.size()) !=
        static_cast<ssize_t>(request.size()))
      return {};
    return read_response();
  }

  /// Pipelined batch: writes `depth` GETs in one syscall, then reads the
  /// `depth` responses in order, appending each response's
  /// time-since-batch-send to `latencies_us`. Returns false on a socket
  /// error or a non-200. Pipelining keeps the server saturated, so the
  /// measurement reflects serving capacity rather than loopback
  /// round-trip time. `unique_queries` appends a never-repeating query
  /// string so every request is a guaranteed cache miss.
  bool pipeline(const std::vector<std::string>& targets, std::size_t* cursor, int depth,
                bool unique_queries, std::vector<double>* latencies_us) {
    std::string batch;
    for (int i = 0; i < depth; ++i) {
      batch += "GET " + targets[*cursor % targets.size()];
      if (unique_queries) batch += "?n=" + std::to_string(*cursor);
      ++*cursor;
      batch += " HTTP/1.1\r\nHost: bench\r\n\r\n";
    }
    const auto start = Clock::now();
    if (::write(fd_, batch.data(), batch.size()) != static_cast<ssize_t>(batch.size()))
      return false;
    for (int i = 0; i < depth; ++i) {
      const std::string response = read_response();
      if (response.find(" 200 ") == std::string::npos) return false;
      latencies_us->push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    }
    return true;
  }

 private:
  std::string read_response() {
    while (true) {
      const std::size_t head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        std::size_t body_length = 0;
        const std::size_t cl = buffer_.find("Content-Length: ");
        if (cl != std::string::npos && cl < head_end)
          body_length = static_cast<std::size_t>(
              std::strtoul(buffer_.c_str() + cl + 16, nullptr, 10));
        const std::size_t total = head_end + 4 + body_length;
        if (buffer_.size() >= total) {
          std::string response = buffer_.substr(0, total);
          buffer_.erase(0, total);
          return response;
        }
      }
      char chunk[32 * 1024];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

std::string header_value(const std::string& response, const std::string& name) {
  const std::string needle = name + ": ";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t end = response.find("\r\n", at);
  return response.substr(at + needle.size(), end - at - needle.size());
}

// ------------------------------------------------------------ percentiles

struct LatencySummary {
  double p50_us = 0, p95_us = 0, p99_us = 0;
  double rps = 0;
  std::size_t count = 0;
};

LatencySummary summarize(std::vector<double> latencies_us, double seconds) {
  LatencySummary summary;
  summary.count = latencies_us.size();
  if (latencies_us.empty()) return summary;
  std::sort(latencies_us.begin(), latencies_us.end());
  const auto pct = [&](double p) {
    const std::size_t rank = std::min(
        latencies_us.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(latencies_us.size())));
    return latencies_us[rank];
  };
  summary.p50_us = pct(0.50);
  summary.p95_us = pct(0.95);
  summary.p99_us = pct(0.99);
  summary.rps = static_cast<double>(latencies_us.size()) / seconds;
  return summary;
}

json::Value summary_json(const LatencySummary& summary) {
  return json::object({{"p50_us", summary.p50_us},
                       {"p95_us", summary.p95_us},
                       {"p99_us", summary.p99_us},
                       {"rps", summary.rps},
                       {"requests", static_cast<std::int64_t>(summary.count)}});
}

/// Closed-loop load: `clients` threads round-robin over `targets` for
/// `seconds`, each recording per-request latency. `depth > 1` pipelines
/// that many requests per socket write.
LatencySummary closed_loop(std::uint16_t port, const std::vector<std::string>& targets,
                           int clients, double seconds, int depth, bool unique_queries,
                           std::atomic<int>* errors) {
  std::vector<std::vector<double>> per_thread(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      KeepAliveClient client(port);
      if (!client.connected()) {
        errors->fetch_add(1);
        return;
      }
      // With unique_queries, disjoint cursor ranges per thread keep the
      // appended query strings globally unique.
      std::size_t i = static_cast<std::size_t>(t) * 1'000'000'000u;
      if (depth > 1) {
        while (Clock::now() < deadline) {
          if (!client.pipeline(targets, &i, depth, unique_queries,
                               &per_thread[static_cast<std::size_t>(t)])) {
            errors->fetch_add(1);
            return;
          }
        }
        return;
      }
      while (Clock::now() < deadline) {
        const std::string& target = targets[i++ % targets.size()];
        const auto start = Clock::now();
        const std::string response = client.round_trip(target);
        if (response.find(" 200 ") == std::string::npos) {
          errors->fetch_add(1);
          return;
        }
        per_thread[static_cast<std::size_t>(t)].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start).count());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<double> all;
  for (const auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return summarize(std::move(all), seconds);
}

struct Args {
  bool smoke = false;
  std::string out = "BENCH_http.json";
};

bool check(bool ok, const char* what, int* failures) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++*failures;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      args.out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out path]\n", argv[0]);
      return 2;
    }
  }
  set_log_level(LogLevel::kError);
  int failures = 0;
  json::Value report = json::object({{"bench", "http"},
                                     {"mode", args.smoke ? "smoke" : "full"}});

  // ---------------------------------------------- 1. worker pool latency
  // One client hammers a slow route while four hammer a fast one. With
  // inline execution every fast request convoys behind the in-flight
  // slow handler; with a pool the fast route's tail stays near RTT.
  const double slow_ms = args.smoke ? 5.0 : 20.0;
  const double pool_seconds = args.smoke ? 0.5 : 2.0;
  std::printf("=== 1. off-loop execution: fast-route latency under a slow route ===\n");
  std::printf("slow handler: %.0f ms, %.1f s per run\n\n", slow_ms, pool_seconds);

  http::Router pool_router;
  pool_router.get("/fast", [](const http::Request&, const http::PathParams&) {
    return http::Response::json(200, "{\"ok\":true}");
  });
  pool_router.get("/slow", [slow_ms](const http::Request&, const http::PathParams&) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(slow_ms));
    return http::Response::json(200, "{\"slow\":true}");
  });

  std::printf("%8s %10s %10s %10s %10s\n", "workers", "p50 us", "p95 us", "p99 us",
              "fast rps");
  LatencySummary inline_fast, pool_fast;
  json::Value pool_runs = json::Value(json::Array{});
  for (const int workers : {0, 4}) {
    http::ServerConfig config;
    config.worker_threads = workers;
    config.listen_backlog = 256;
    http::Server server(pool_router, config);
    if (!server.start().is_ok()) {
      std::fprintf(stderr, "server start failed\n");
      return 1;
    }
    std::atomic<int> errors{0};
    std::atomic<bool> stop_slow{false};
    std::thread slow_client([&] {
      KeepAliveClient client(server.port());
      while (client.connected() && !stop_slow.load())
        if (client.round_trip("/slow").empty()) break;
    });
    const LatencySummary fast =
        closed_loop(server.port(), {"/fast"}, 4, pool_seconds, /*depth=*/1,
                    /*unique_queries=*/false, &errors);
    stop_slow.store(true);
    slow_client.join();
    server.stop();
    if (errors.load() > 0) {
      std::fprintf(stderr, "client errors: %d\n", errors.load());
      return 1;
    }
    std::printf("%8d %10.0f %10.0f %10.0f %10.0f\n", workers, fast.p50_us, fast.p95_us,
                fast.p99_us, fast.rps);
    json::Value run = summary_json(fast);
    run.set("workers", static_cast<std::int64_t>(workers));
    pool_runs.push_back(std::move(run));
    (workers == 0 ? inline_fast : pool_fast) = fast;
  }
  const double p99_speedup =
      pool_fast.p99_us > 0 ? inline_fast.p99_us / pool_fast.p99_us : 0.0;
  std::printf("\nfast-route p99 speedup, pool vs inline: %.1fx\n\n", p99_speedup);
  report.set("worker_pool", json::object({{"slow_ms", slow_ms},
                                          {"runs", std::move(pool_runs)},
                                          {"p99_speedup", p99_speedup}}));
  check(args.smoke ? p99_speedup > 1.0 : p99_speedup >= 5.0,
        args.smoke ? "pool p99 beats inline p99 while a slow route is in flight"
                   : "pool p99 at least 5x better than inline while a slow route is in flight",
        &failures);

  // ------------------------------------------------- 2. response cache
  // Real platform, real /api/crowd/:window handlers. Cold = no cache
  // (every request executes the handler); warm = cache attached and
  // pre-warmed. One worker thread in both runs, so the comparison is
  // handler cost vs cache lookup, not parallelism.
  std::printf("=== 2. response cache: /api/crowd/:window cold vs warm ===\n");
  core::PlatformConfig platform_config;
  platform_config.small_corpus = args.smoke;
  if (args.smoke) platform_config.min_active_days = 20;
  auto platform = core::Platform::create(platform_config);
  if (!platform.is_ok()) {
    std::fprintf(stderr, "platform failed: %s\n", platform.status().to_string().c_str());
    return 1;
  }
  const int windows = platform->crowd_model().window_count();
  std::vector<std::string> crowd_targets;
  crowd_targets.reserve(static_cast<std::size_t>(windows));
  for (int w = 0; w < windows; ++w)
    crowd_targets.push_back("/api/crowd/" + std::to_string(w));
  std::printf("corpus: %zu check-ins, %d windows\n\n",
              platform->experiment_dataset().checkin_count(), windows);

  // Both runs attach the cache and use one worker thread, so the
  // comparison isolates caching from parallelism. The cold run appends a
  // never-repeating query string, making every request a true cache
  // miss: probe, handler execution, insert, and LRU eviction churn all
  // included. The warm run replays the fixed window targets after a
  // pre-warm pass, so every request is a hit served on the loop thread.
  const double cache_seconds = args.smoke ? 0.5 : 2.0;
  const int cache_clients = 6;
  const int cache_depth = 16;  // pipelined: measure capacity, not loopback RTT
  LatencySummary cold, warm;
  std::uint64_t warm_hits = 0, warm_misses = 0, cold_misses = 0;
  for (const bool warm_run : {false, true}) {
    http::ResponseCache cache;
    http::ServerConfig config;
    config.worker_threads = 1;
    config.listen_backlog = 256;
    config.cache = &cache;
    http::Server server(core::make_api_router(*platform), config);
    if (!server.start().is_ok()) {
      std::fprintf(stderr, "server start failed\n");
      return 1;
    }
    std::atomic<int> errors{0};
    if (warm_run) {  // pre-warm: one miss per target
      KeepAliveClient warmer(server.port());
      for (const std::string& target : crowd_targets)
        if (warmer.round_trip(target).empty()) errors.fetch_add(1);
    }
    const LatencySummary run =
        closed_loop(server.port(), crowd_targets, cache_clients, cache_seconds,
                    cache_depth, /*unique_queries=*/!warm_run, &errors);
    if (warm_run) {
      warm_hits = cache.stats().hits;
      warm_misses = cache.stats().misses;
    } else {
      cold_misses = cache.stats().misses;
    }
    server.stop();
    if (errors.load() > 0) {
      std::fprintf(stderr, "client errors: %d\n", errors.load());
      return 1;
    }
    (warm_run ? warm : cold) = run;
    std::printf("%6s  p50 %8.0f us  p95 %8.0f us  p99 %8.0f us  %8.0f rps\n",
                warm_run ? "warm" : "cold", run.p50_us, run.p95_us, run.p99_us, run.rps);
  }
  const double cache_speedup = cold.rps > 0 ? warm.rps / cold.rps : 0.0;
  std::printf("\nwarm/cold rps: %.1fx, warm hits: %llu, warm misses: %llu, "
              "cold misses: %llu\n\n",
              cache_speedup, static_cast<unsigned long long>(warm_hits),
              static_cast<unsigned long long>(warm_misses),
              static_cast<unsigned long long>(cold_misses));
  report.set("cache",
             json::object({{"cold", summary_json(cold)},
                           {"warm", summary_json(warm)},
                           {"rps_speedup", cache_speedup},
                           {"warm_hits", static_cast<std::int64_t>(warm_hits)},
                           {"warm_misses", static_cast<std::int64_t>(warm_misses)},
                           {"cold_misses", static_cast<std::int64_t>(cold_misses)}}));
  check(warm_hits > 0, "warm run served hits (crowdweb_http_cache_hits_total > 0)",
        &failures);
  check(args.smoke ? warm.p95_us < cold.p95_us : cache_speedup >= 10.0,
        args.smoke ? "warm p95 below cold p95"
                   : "warm cache rps at least 10x the cold-miss rps",
        &failures);

  // ------------------------------------------- 3. epoch freshness, live
  // Publish a new epoch through the ingest worker and confirm the served
  // response rotates (new ETag, cache miss then re-warm) with no
  // explicit invalidation anywhere, and that the publish freed the
  // superseded epoch's entry instead of leaving it resident.
  std::printf("=== 3. epoch bump: fresh responses without invalidation ===\n");
  auto worker = core::make_ingest_worker(*platform);
  http::ResponseCache live_cache;
  worker->hub().on_publish([&live_cache](const ingest::PlatformSnapshot& snapshot) {
    live_cache.set_epoch(snapshot.epoch);
  });
  if (!worker->start().is_ok()) {
    std::fprintf(stderr, "ingest worker start failed\n");
    return 1;
  }
  core::ApiOptions api;
  api.ingest = worker.get();
  api.cache = &live_cache;
  http::ServerConfig live_config;
  live_config.worker_threads = 2;
  live_config.cache = &live_cache;
  http::Server live_server(core::make_api_router(*platform, api), live_config);
  if (!live_server.start().is_ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  if (!worker->wait_for_epoch(1, std::chrono::seconds(30))) {
    std::fprintf(stderr, "first epoch never published\n");
    return 1;
  }

  KeepAliveClient live_client(live_server.port());
  (void)live_client.round_trip("/api/crowd/0");  // miss, populates
  const std::string before = live_client.round_trip("/api/crowd/0");
  const std::string etag_before = header_value(before, "ETag");
  const bool warm_before = header_value(before, "X-Cache") == "hit";

  // New traffic -> new epoch. A foreign corpus guarantees novel events.
  auto feed = synth::small_corpus(platform_config.seed + 1);
  if (!feed.is_ok()) {
    std::fprintf(stderr, "feed failed\n");
    return 1;
  }
  std::vector<ingest::IngestEvent> events;
  for (const data::CheckIn& checkin : feed->dataset.checkins()) {
    events.push_back(ingest::to_event(checkin));
    if (events.size() >= 512) break;
  }
  const std::uint64_t epoch_before = worker->hub().epoch();
  (void)worker->submit(events);
  if (!worker->wait_for_epoch(epoch_before + 1, std::chrono::seconds(30))) {
    std::fprintf(stderr, "new epoch never published\n");
    return 1;
  }
  const std::uint64_t epoch_after = worker->hub().epoch();
  // The cache hook runs just after the swap wait_for_epoch observes.
  for (int spins = 0; live_cache.epoch() < epoch_after && spins < 5'000; ++spins)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const std::string after = live_client.round_trip("/api/crowd/0");
  const std::string etag_after = header_value(after, "ETag");
  const bool fresh_miss = header_value(after, "X-Cache") == "miss";
  const std::string rewarmed = live_client.round_trip("/api/crowd/0");
  const bool rewarmed_hit = header_value(rewarmed, "X-Cache") == "hit";
  const http::ResponseCacheStats live_stats = live_cache.stats();
  live_server.stop();
  worker->stop();

  std::printf("epoch %llu -> %llu, etag %s -> %s\n",
              static_cast<unsigned long long>(epoch_before),
              static_cast<unsigned long long>(epoch_after), etag_before.c_str(),
              etag_after.c_str());
  report.set("epoch", json::object({{"epoch_before", static_cast<std::int64_t>(epoch_before)},
                                    {"epoch_after", static_cast<std::int64_t>(epoch_after)},
                                    {"etag_before", etag_before},
                                    {"etag_after", etag_after},
                                    {"warm_before", warm_before},
                                    {"fresh_miss", fresh_miss},
                                    {"rewarmed_hit", rewarmed_hit},
                                    {"entries_after", static_cast<std::int64_t>(live_stats.entries)},
                                    {"superseded", static_cast<std::int64_t>(live_stats.superseded)}}));
  check(warm_before, "pre-publish response was a cache hit", &failures);
  check(epoch_after > epoch_before, "ingest published a new epoch", &failures);
  check(fresh_miss, "post-publish response bypassed the stale entry (miss)", &failures);
  check(!etag_after.empty() && etag_after != etag_before, "ETag rotated with the epoch",
        &failures);
  check(rewarmed_hit, "cache re-warmed at the new epoch", &failures);
  check(live_stats.entries == 1, "only the new epoch's entry is resident after the re-warm",
        &failures);
  check(live_stats.superseded >= 1, "the publish freed the superseded epoch's entry",
        &failures);

  // ------------------------------------------------ 4. render cost
  std::printf("\n=== 4. render cost per hot route (in-process dispatch) ===\n");
  telemetry::Registry render_registry;
  ingest::IngestWorkerConfig render_worker_config;
  render_worker_config.metrics = &render_registry;
  auto render_worker = core::make_ingest_worker(*platform, render_worker_config);
  if (!render_worker->start().is_ok() ||
      !render_worker->wait_for_epoch(1, std::chrono::seconds(30))) {
    std::fprintf(stderr, "render worker start failed\n");
    return 1;
  }
  core::ApiOptions render_api;
  render_api.ingest = render_worker.get();
  render_api.metrics = &render_registry;
  const http::Router render_router = core::make_api_router(*platform, render_api);
  struct RenderRoute {
    const char* name;
    const char* target;
    bool svg;
  };
  const RenderRoute render_routes[] = {
      {"status", "/api/status", false},
      {"crowd", "/api/crowd/8", false},
      {"crowd_map", "/api/crowd/8/map.svg", true},
      {"crowd_geojson", "/api/crowd/8/geojson", false},
      {"flow", "/api/flow/8/9", false},
      {"flow_map", "/api/flow/8/9/map.svg", true},
  };
  const int render_reps = args.smoke ? 50 : 500;
  std::printf("%14s %10s %10s %10s\n", "route", "p50 us", "mean us", "bytes");
  json::Value render_report = json::Value(json::Object{});
  bool bodies_ok = true;
  for (const RenderRoute& route : render_routes) {
    http::Request request;
    request.method = "GET";
    request.path = route.target;
    std::vector<double> times_us;
    times_us.reserve(static_cast<std::size_t>(render_reps));
    std::string body;
    for (int rep = 0; rep < render_reps; ++rep) {
      const auto start = Clock::now();
      http::Response response = render_router.dispatch(request);
      times_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - start).count());
      if (response.status != 200) bodies_ok = false;
      body = std::move(response.body);
    }
    const bool parses = route.svg ? body.starts_with("<svg ") && body.ends_with("</svg>\n")
                                  : json::parse(body).is_ok();
    if (body.empty() || !parses) {
      std::fprintf(stderr, "%s: empty or malformed body\n", route.target);
      bodies_ok = false;
    }
    double mean_us = 0.0;
    for (const double t : times_us) mean_us += t;
    mean_us /= static_cast<double>(times_us.size());
    const LatencySummary summary = summarize(times_us, 1.0);
    std::printf("%14s %10.1f %10.1f %10zu\n", route.name, summary.p50_us, mean_us,
                body.size());
    render_report.set(route.name,
                      json::object({{"target", route.target},
                                    {"p50_us", summary.p50_us},
                                    {"p99_us", summary.p99_us},
                                    {"mean_us", mean_us},
                                    {"bytes", static_cast<std::int64_t>(body.size())},
                                    {"reps", static_cast<std::int64_t>(render_reps)}}));
  }
  render_worker->stop();
  report.set("render", std::move(render_report));
  check(bodies_ok, "every rendered body is non-empty, 200 and parses", &failures);

  report.set("passed", failures == 0);
  const Status written = data::write_file(args.out, json::dump(report) + "\n");
  if (!written.is_ok()) {
    std::fprintf(stderr, "writing %s failed: %s\n", args.out.c_str(),
                 written.to_string().c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", args.out.c_str());
  if (failures > 0) {
    std::fprintf(stderr, "%d assertion(s) failed\n", failures);
    return 1;
  }
  return 0;
}
