// Transport bench: the pluggable ingest edge + SSE push.
//
// Three claims, measured over real loopback sockets:
//
//   1. Binary frames: the framed TCP listener ingests the same event
//      stream at a multiple of the CSV-over-HTTP route's rate. Both
//      paths feed an identical accept-all pipeline, so the comparison
//      isolates transport cost — HTTP parse + CSV decode vs frame
//      decode — from queue/rebuild behavior.
//   2. SSE push: publish -> subscriber delivery is push, not poll; the
//      bench measures publish-to-read latency over a real subscriber
//      socket and requires every published event to arrive in order.
//   3. Wakeups per epoch: paced single-event frames into a live
//      IngestWorker (100 ms epochs) wake its thread at most 4 times per
//      published epoch — the queue signals only when a drain batch is
//      waiting, not on every push.
//
// Emits BENCH_transport.json (override with --out). --smoke shrinks the
// workload for CI and relaxes the 2x throughput bar to a direction
// check; the full run enforces binary >= 2x CSV events/sec.

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

#include "bench_common.hpp"
#include "data/categories.hpp"
#include "http/router.hpp"
#include "http/server.hpp"
#include "ingest/replay.hpp"
#include "ingest/worker.hpp"
#include "json/json.hpp"
#include "telemetry/metrics.hpp"
#include "transport/csv_source.hpp"
#include "transport/frame_client.hpp"
#include "transport/frame_server.hpp"
#include "transport/pipeline.hpp"
#include "transport/sse.hpp"
#include "util/log.hpp"

using namespace crowdweb;
using Clock = std::chrono::steady_clock;

namespace {

std::vector<ingest::IngestEvent> make_events(std::size_t count) {
  const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
  std::vector<ingest::IngestEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ingest::IngestEvent event;
    event.user = 1 + static_cast<std::uint32_t>(i % 97);
    event.category = taxonomy.roots()[i % taxonomy.roots().size()];
    event.position.lat = 40.70 + 0.0001 * static_cast<double>(i % 1000);
    event.position.lon = -74.01 + 0.0001 * static_cast<double>((i * 7) % 1000);
    event.timestamp = 1'300'000'000 + static_cast<std::int64_t>(i) * 30;
    events.push_back(event);
  }
  return events;
}

/// Blocking keep-alive POST client (one socket, many round trips), so
/// the CSV measurement is the serving path, not connect cost.
class PostClient {
 public:
  explicit PostClient(std::uint16_t port) {
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
  ~PostClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  PostClient(const PostClient&) = delete;
  PostClient& operator=(const PostClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// One POST round trip; true when the response is a 200.
  bool round_trip(const std::string& request) {
    if (::write(fd_, request.data(), request.size()) !=
        static_cast<ssize_t>(request.size()))
      return false;
    const std::string response = read_response();
    return response.find(" 200 ") != std::string::npos;
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

struct IngestRun {
  double events_per_second = 0;
  double batches_per_second = 0;
  std::uint64_t events = 0;
};

json::Value run_json(const IngestRun& run) {
  return json::object({{"events_per_second", run.events_per_second},
                       {"batches_per_second", run.batches_per_second},
                       {"events", static_cast<std::int64_t>(run.events)}});
}

struct Args {
  bool smoke = false;
  std::string out = "BENCH_transport.json";
};

using bench::check;

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
  json::Value report = json::object({{"bench", "transport"},
                                     {"mode", args.smoke ? "smoke" : "full"}});

  const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
  const std::size_t batch_size = 256;
  const int producers = args.smoke ? 2 : 4;
  const double seconds = args.smoke ? 0.5 : 2.0;
  const auto events = make_events(batch_size);

  // ---------------------------------- 1. CSV-over-HTTP vs binary frames
  // Identical accept-all sink on both sides: the numbers compare the
  // transports, not the queue.
  std::printf("=== 1. ingest transports: CSV-over-HTTP vs binary TCP frames ===\n");
  std::printf("%zu events/batch, %d producer(s), %.1f s per run\n\n", batch_size,
              producers, seconds);

  IngestRun csv_run, binary_run;
  std::atomic<int> errors{0};

  {  // CSV over HTTP
    std::atomic<std::uint64_t> taken{0};
    transport::IngestPipeline pipeline(
        [&taken](std::span<const ingest::IngestEvent> batch) -> ingest::SubmitResult {
          taken.fetch_add(batch.size(), std::memory_order_relaxed);
          return {batch.size(), 0};
        });
    // Never started: it only resolves category names for the route.
    ingest::IngestWorker front(data::Dataset{}, {}, taxonomy);
    transport::HttpCsvSource::Config source_config;
    source_config.front = &front;
    source_config.stats = [] { return ingest::IngestStats{}; };
    transport::HttpCsvSource source(pipeline, std::move(source_config));
    http::Router router;
    router.post("/api/ingest", [&source](const http::Request& request,
                                         const http::PathParams&) {
      return source.handle(request);
    });
    http::ServerConfig config;
    config.worker_threads = 2;
    config.listen_backlog = 256;
    http::Server server(std::move(router), config);
    if (!server.start().is_ok()) {
      std::fprintf(stderr, "http server start failed\n");
      return 1;
    }
    const std::string body = ingest::events_csv(events, taxonomy);
    std::string request = "POST /api/ingest HTTP/1.1\r\nHost: bench\r\n";
    request += "Content-Type: text/csv\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n\r\n" + body;
    std::atomic<std::uint64_t> batches{0};
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int t = 0; t < producers; ++t) {
      threads.emplace_back([&] {
        PostClient client(server.port());
        if (!client.connected()) {
          errors.fetch_add(1);
          return;
        }
        while (Clock::now() < deadline) {
          if (!client.round_trip(request)) {
            errors.fetch_add(1);
            return;
          }
          batches.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    server.stop();
    csv_run.events = taken.load();
    csv_run.events_per_second = static_cast<double>(csv_run.events) / seconds;
    csv_run.batches_per_second = static_cast<double>(batches.load()) / seconds;
  }

  {  // binary frames over TCP
    std::atomic<std::uint64_t> taken{0};
    transport::IngestPipeline pipeline(
        [&taken](std::span<const ingest::IngestEvent> batch) -> ingest::SubmitResult {
          taken.fetch_add(batch.size(), std::memory_order_relaxed);
          return {batch.size(), 0};
        });
    transport::FrameServer server(pipeline, {});
    if (!server.start().is_ok()) {
      std::fprintf(stderr, "frame server start failed\n");
      return 1;
    }
    std::atomic<std::uint64_t> batches{0};
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int t = 0; t < producers; ++t) {
      threads.emplace_back([&] {
        transport::FrameClient client;
        if (!client.connect_tcp("127.0.0.1", server.port()).is_ok()) {
          errors.fetch_add(1);
          return;
        }
        while (Clock::now() < deadline) {
          const auto ack = client.send(events);
          if (!ack.is_ok() || ack->accepted != events.size()) {
            errors.fetch_add(1);
            return;
          }
          batches.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    server.stop();
    binary_run.events = taken.load();
    binary_run.events_per_second = static_cast<double>(binary_run.events) / seconds;
    binary_run.batches_per_second = static_cast<double>(batches.load()) / seconds;
  }

  if (errors.load() > 0) {
    std::fprintf(stderr, "producer errors: %d\n", errors.load());
    return 1;
  }
  const double speedup = csv_run.events_per_second > 0
                             ? binary_run.events_per_second / csv_run.events_per_second
                             : 0.0;
  std::printf("%12s %14.0f events/s %10.0f batches/s\n", "csv_http",
              csv_run.events_per_second, csv_run.batches_per_second);
  std::printf("%12s %14.0f events/s %10.0f batches/s\n", "binary_tcp",
              binary_run.events_per_second, binary_run.batches_per_second);
  std::printf("\nbinary/csv events per second: %.1fx\n\n", speedup);
  report.set("ingest", json::object({{"batch_size", static_cast<std::int64_t>(batch_size)},
                                     {"producers", static_cast<std::int64_t>(producers)},
                                     {"csv_http", run_json(csv_run)},
                                     {"binary_tcp", run_json(binary_run)},
                                     {"speedup", speedup}}));
  check(args.smoke ? speedup > 1.0 : speedup >= 2.0,
        args.smoke ? "binary frames ingest faster than CSV-over-HTTP"
                   : "binary frames ingest at least 2x the CSV-over-HTTP rate",
        &failures);

  // ------------------------------------------------ 2. SSE push latency
  // One subscriber over a real socket; each published event is timed
  // from publish_stream() to the client's read. Push, not poll: the
  // subscriber issues exactly one request for the whole run.
  std::printf("=== 2. SSE: publish -> subscriber delivery latency ===\n");
  const int sse_events = args.smoke ? 50 : 500;
  http::Router sse_router;
  sse_router.get("/api/stream/bench",
                 [](const http::Request&, const http::PathParams&) {
                   return transport::sse_response(
                       "bench", transport::sse_comment("subscribed"));
                 });
  http::Server sse_server(std::move(sse_router), {});
  if (!sse_server.start().is_ok()) {
    std::fprintf(stderr, "sse server start failed\n");
    return 1;
  }
  transport::SseClient subscriber;
  if (!subscriber.connect("127.0.0.1", sse_server.port(), "/api/stream/bench")
           .is_ok()) {
    std::fprintf(stderr, "sse subscribe failed\n");
    return 1;
  }
  const auto subscribe_deadline = Clock::now() + std::chrono::seconds(5);
  while (sse_server.stream_subscribers("bench") == 0 &&
         Clock::now() < subscribe_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (sse_server.stream_subscribers("bench") != 1) {
    std::fprintf(stderr, "subscriber never registered\n");
    return 1;
  }

  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(sse_events));
  int delivered = 0;
  bool in_order = true;
  for (int i = 0; i < sse_events; ++i) {
    const std::string payload = "{\"n\":" + std::to_string(i) + "}";
    const auto start = Clock::now();
    sse_server.publish_stream("bench", transport::sse_event("tick", payload));
    const auto event = subscriber.next_event(std::chrono::seconds(5));
    if (!event.is_ok()) break;
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    if (event->data != payload) in_order = false;
    ++delivered;
  }
  sse_server.stop();
  std::sort(latencies_us.begin(), latencies_us.end());
  const auto pct = [&](double p) {
    if (latencies_us.empty()) return 0.0;
    const std::size_t rank = std::min(
        latencies_us.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(latencies_us.size())));
    return latencies_us[rank];
  };
  std::printf("%d/%d delivered  p50 %6.0f us  p95 %6.0f us  p99 %6.0f us\n\n",
              delivered, sse_events, pct(0.50), pct(0.95), pct(0.99));
  report.set("sse", json::object({{"published", static_cast<std::int64_t>(sse_events)},
                                  {"delivered", static_cast<std::int64_t>(delivered)},
                                  {"in_order", in_order},
                                  {"p50_us", pct(0.50)},
                                  {"p95_us", pct(0.95)},
                                  {"p99_us", pct(0.99)}}));
  check(delivered == sse_events, "every published event was delivered", &failures);
  check(in_order, "events arrived in publish order with their payloads", &failures);

  // -------------------------------------------- 3. worker wakeups/epoch
  // Paced single-event frames into a real IngestWorker: each push that
  // does not fill a drain batch must leave the worker asleep until its
  // epoch is due, so a steady feed costs about two wakeups per epoch
  // (the first event after a publish, then the deadline), not one per
  // event.
  std::printf("=== 3. ingest worker: wakeups per epoch under a paced feed ===\n");
  const double wake_seconds = args.smoke ? 0.6 : 2.0;
  telemetry::Registry wake_registry;
  ingest::IngestWorkerConfig wake_config;
  wake_config.rebuild_interval = std::chrono::milliseconds(100);
  wake_config.metrics = &wake_registry;
  // The worker starts from an empty corpus; a fixed grid box covering
  // the generated positions gives its first epoch a grid.
  ingest::IngestPipelineConfig wake_pipeline_config;
  wake_pipeline_config.mining_threads = 1;
  wake_pipeline_config.fixed_grid_bounds = geo::BoundingBox{40.69, 40.82, -74.02, -73.90};
  ingest::IngestWorker worker(data::Dataset{}, {}, taxonomy, wake_pipeline_config,
                              wake_config);
  if (const Status started = worker.start(); !started.is_ok()) {
    std::fprintf(stderr, "ingest worker start failed: %s\n", started.to_string().c_str());
    return 1;
  }
  transport::IngestPipeline wake_pipeline(
      [&worker](std::span<const ingest::IngestEvent> batch) { return worker.submit(batch); });
  transport::FrameServer wake_server(wake_pipeline, {});
  transport::FrameClient wake_client;
  if (!wake_server.start().is_ok() ||
      !wake_client.connect_tcp("127.0.0.1", wake_server.port()).is_ok()) {
    std::fprintf(stderr, "frame listener for the wake section failed\n");
    return 1;
  }
  const auto wake_events = make_events(1'000);
  std::uint64_t sent = 0;
  const auto wake_start = Clock::now();
  const auto wake_end = wake_start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(wake_seconds));
  for (auto next = wake_start; next < wake_end; next += std::chrono::milliseconds(1)) {
    std::this_thread::sleep_until(next);
    const auto ack = wake_client.send(
        std::span<const ingest::IngestEvent>(&wake_events[sent % wake_events.size()], 1));
    if (!ack.is_ok() || ack->accepted != 1) {
      std::fprintf(stderr, "paced frame %llu was not accepted\n",
                   static_cast<unsigned long long>(sent));
      return 1;
    }
    ++sent;
  }
  // Read the counters once the last event is visible, before idle
  // timeouts add wakeups that no event caused.
  const auto visible_deadline = Clock::now() + std::chrono::seconds(10);
  while (worker.stats().live_checkins < sent && Clock::now() < visible_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::uint64_t wakeups =
      wake_registry.counter_family("crowdweb_ingest_worker_wakeups_total", "", {"shard"})
          .with_labels({"0"})
          .value();
  const ingest::IngestStats wake_stats = worker.stats();
  wake_client.close();
  wake_server.stop();
  worker.stop();
  const double wakeups_per_epoch =
      wake_stats.epochs_published > 0
          ? static_cast<double>(wakeups) / static_cast<double>(wake_stats.epochs_published)
          : 0.0;
  std::printf("%llu events, %llu epochs, %llu wakeups: %.1f wakeups/epoch\n\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(wake_stats.epochs_published),
              static_cast<unsigned long long>(wakeups), wakeups_per_epoch);
  report.set("wake",
             json::object({{"events", static_cast<std::int64_t>(sent)},
                           {"visible", static_cast<std::int64_t>(wake_stats.live_checkins)},
                           {"epochs", static_cast<std::int64_t>(wake_stats.epochs_published)},
                           {"wakeups", static_cast<std::int64_t>(wakeups)},
                           {"wakeups_per_epoch", wakeups_per_epoch}}));
  check(wake_stats.live_checkins == sent, "every paced event reached a published epoch",
        &failures);
  check(wakeups_per_epoch <= 4.0, "the worker wakes at most 4 times per epoch", &failures);

  report.set("passed", failures == 0);
  if (!bench::write_report(args.out, report)) return 1;
  if (failures > 0) {
    std::fprintf(stderr, "%d assertion(s) failed\n", failures);
    return 1;
  }
  return 0;
}
