// Sharding bench: ingest throughput and read latency vs shard count.
//
// The claim behind src/shard: the epoch pipeline (drain, per-user
// re-mine, crowd update, publish) is the ingest bottleneck, and hash
// sharding parallelizes it — N shards re-mine N disjoint user slices
// concurrently, so drain throughput scales while the scatter-gather
// read path (k-way merge, cached per epoch vector) stays flat. This
// bench runs the same live stream through routers at 1/2/4/8 shards
// (the 1-shard router is the single-process baseline with identical
// plumbing), measuring events/sec from submit to the merged view
// holding the full stream, then p50/p99 of in-process /api/crowd/:w
// dispatches over the warm merge.
//
// Emits BENCH_shard.json (override with --out). --smoke shrinks the
// stream for CI and relaxes the scaling bar to a sanity check; the
// full run enforces the recorded acceptance: ingest throughput at 4
// shards at least 1.5x the single-shard baseline.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/platform.hpp"
#include "http/router.hpp"
#include "ingest/event.hpp"
#include "json/json.hpp"
#include "shard/api.hpp"
#include "shard/router.hpp"
#include "util/log.hpp"

using namespace crowdweb;
using Clock = std::chrono::steady_clock;

namespace {

using bench::check;
using bench::percentile;

struct Args {
  bool smoke = false;
  std::string out = "BENCH_shard.json";
};

/// Live events at venues the corpus already knows, rotating through the
/// whole user base so every epoch re-mines many users — the pipeline
/// work sharding is supposed to spread.
std::vector<ingest::IngestEvent> make_stream(const data::Dataset& dataset,
                                             std::size_t count) {
  const auto venues = dataset.venues();
  const auto users = dataset.users();
  std::vector<ingest::IngestEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const data::Venue& venue = venues[(i * 7) % venues.size()];
    ingest::IngestEvent event;
    event.user = users[(i * 13) % users.size()];
    event.category = venue.category;
    event.position = venue.position;
    event.timestamp = static_cast<std::int64_t>(1'334'000'000 + i * 60);
    events.push_back(event);
  }
  return events;
}

struct Run {
  std::size_t shards = 0;
  double ingest_seconds = 0.0;
  double ingest_rps = 0.0;
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  bool complete = false;
};

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

  core::PlatformConfig platform_config;
  platform_config.small_corpus = args.smoke;
  if (args.smoke) platform_config.min_active_days = 20;
  auto platform = core::Platform::create(platform_config);
  if (!platform.is_ok()) {
    std::fprintf(stderr, "platform failed: %s\n", platform.status().to_string().c_str());
    return 1;
  }

  const std::size_t stream_size = args.smoke ? 4'096 : 98'304;
  const int reads = args.smoke ? 400 : 4'000;
  const auto stream = make_stream(platform->experiment_dataset(), stream_size);

  std::printf("=== Sharding: ingest scaling + scatter-gather read latency ===\n");
  std::printf("corpus: %zu users, %zu check-ins; stream: %zu events, mode: %s\n\n",
              platform->experiment_dataset().user_count(),
              platform->experiment_dataset().checkin_count(), stream.size(),
              args.smoke ? "smoke" : "full");
  std::printf("%8s %12s %12s %12s %12s\n", "shards", "ingest s", "ingest rps",
              "read p50 us", "read p99 us");

  std::vector<Run> runs;
  json::Value run_json = json::Value(json::Array{});
  for (const std::size_t shard_count : {1u, 2u, 4u, 8u}) {
    shard::ShardRouterConfig config;
    config.shard_count = shard_count;
    // The stream arrives in one burst; size the queues to hold it so
    // the measurement is pipeline drain, not producer backoff.
    config.worker.queue_capacity = stream.size() + 1024;
    config.worker.rebuild_interval = std::chrono::milliseconds(1);
    auto router = shard::ShardRouter::create(*platform, std::move(config));
    if (!router.is_ok()) {
      std::fprintf(stderr, "router failed: %s\n", router.status().to_string().c_str());
      return 1;
    }
    if (!(*router)->start().is_ok()) {
      std::fprintf(stderr, "router start failed\n");
      return 1;
    }

    Run run;
    run.shards = shard_count;
    const auto start = Clock::now();
    const ingest::SubmitResult submitted = (*router)->submit(stream);
    run.complete = submitted.accepted == stream.size() &&
                   (*router)->wait_for_live(stream.size(), std::chrono::minutes(5));
    run.ingest_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    run.ingest_rps =
        run.ingest_seconds > 0
            ? static_cast<double>(stream.size()) / run.ingest_seconds
            : 0.0;
    if (!run.complete)
      std::fprintf(stderr, "  %zu shards: stream never fully published\n", shard_count);

    // Warm scatter-gather reads: in-process dispatch over the cached
    // merge, cycling the crowd windows.
    const http::Router api = shard::make_shard_api_router(**router);
    const core::ViewPtr merged = (*router)->merged();
    const int windows = merged->crowd != nullptr ? merged->crowd->window_count() : 0;
    std::vector<double> latencies_us;
    latencies_us.reserve(static_cast<std::size_t>(reads));
    bool reads_ok = windows > 0;
    for (int i = 0; i < reads && reads_ok; ++i) {
      http::Request request;
      request.method = "GET";
      request.path = "/api/crowd/" + std::to_string(i % windows);
      const auto t0 = Clock::now();
      const http::Response response = api.dispatch(request);
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      reads_ok = response.status == 200;
    }
    run.complete = run.complete && reads_ok;
    run.read_p50_us = percentile(latencies_us, 0.50);
    run.read_p99_us = percentile(latencies_us, 0.99);
    (*router)->stop();

    std::printf("%8zu %12.2f %12.0f %12.0f %12.0f\n", run.shards, run.ingest_seconds,
                run.ingest_rps, run.read_p50_us, run.read_p99_us);
    run_json.push_back(json::object(
        {{"shards", static_cast<std::int64_t>(run.shards)},
         {"events", static_cast<std::int64_t>(stream.size())},
         {"ingest_seconds", run.ingest_seconds},
         {"ingest_rps", run.ingest_rps},
         {"read_p50_us", run.read_p50_us},
         {"read_p99_us", run.read_p99_us},
         {"complete", run.complete}}));
    runs.push_back(run);
  }

  const Run& single = runs.front();
  const auto rps_at = [&](std::size_t shards) {
    for (const Run& run : runs)
      if (run.shards == shards) return run.ingest_rps;
    return 0.0;
  };
  const double scaling_4 = single.ingest_rps > 0 ? rps_at(4) / single.ingest_rps : 0.0;
  const double scaling_8 = single.ingest_rps > 0 ? rps_at(8) / single.ingest_rps : 0.0;
  std::printf("\ningest scaling vs 1 shard: 4 shards %.2fx, 8 shards %.2fx\n\n", scaling_4,
              scaling_8);

  bool all_complete = true;
  for (const Run& run : runs) all_complete = all_complete && run.complete;
  check(all_complete, "every deployment published the full stream and served reads",
        &failures);
  check(args.smoke ? scaling_4 >= 0.5 : scaling_4 >= 1.5,
        args.smoke ? "4-shard ingest within sanity of the single-shard baseline"
                   : "4-shard ingest throughput at least 1.5x the single-shard baseline",
        &failures);

  json::Value output = json::object({{"bench", "shard"},
                                     {"mode", args.smoke ? "smoke" : "full"},
                                     {"runs", std::move(run_json)},
                                     {"ingest_scaling_4_vs_1", scaling_4},
                                     {"ingest_scaling_8_vs_1", scaling_8},
                                     {"passed", failures == 0}});
  if (!bench::write_report(args.out, output)) return 1;
  if (failures > 0) {
    std::fprintf(stderr, "%d assertion(s) failed\n", failures);
    return 1;
  }
  return 0;
}
