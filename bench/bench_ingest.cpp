// Live ingestion bench: sustained queue throughput and epoch-publish
// latency across queue capacities.
//
// Feeds a foreign corpus (different seed, so every event is new traffic)
// through the replay driver at full speed into an IngestWorker, per
// queue capacity. Reports the offered rate the worker sustained, the
// backpressure rejections the bounded queue produced, and the rebuild
// cost per published epoch. A second pass measures publish latency
// directly: one burst, then the wall-clock wait until its epoch lands.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/api.hpp"
#include "core/platform.hpp"
#include "ingest/replay.hpp"
#include "ingest/worker.hpp"
#include "stats/summary.hpp"

using namespace crowdweb;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main() {
  std::printf("=== Live ingestion: throughput and epoch latency ===\n\n");
  set_log_level(LogLevel::kError);

  core::PlatformConfig config;
  config.small_corpus = true;
  config.min_active_days = 20;
  auto platform = core::Platform::create(config);
  if (!platform.is_ok()) {
    std::fprintf(stderr, "platform failed: %s\n", platform.status().to_string().c_str());
    return 1;
  }
  auto feed = synth::small_corpus(config.seed + 1);
  if (!feed.is_ok()) {
    std::fprintf(stderr, "feed failed: %s\n", feed.status().to_string().c_str());
    return 1;
  }
  std::vector<data::CheckIn> stream(feed->dataset.checkins().begin(),
                                    feed->dataset.checkins().end());
  std::printf("base corpus: %zu check-ins, feed: %zu events available\n\n",
              platform->experiment_dataset().checkin_count(), stream.size());

  const std::vector<std::size_t> capacities{256, 1'024, 4'096, 16'384};
  constexpr std::size_t kEvents = 20'000;

  std::printf("--- full-speed replay, %zu events offered ---\n",
              std::min(kEvents, stream.size()));
  std::printf("%9s %12s %10s %10s %8s %12s %12s\n", "capacity", "offered/s", "accepted",
              "rejected", "epochs", "rebuild ms", "(mean)");
  for (const std::size_t capacity : capacities) {
    ingest::IngestWorkerConfig worker_config;
    worker_config.queue_capacity = capacity;
    worker_config.rebuild_interval = std::chrono::milliseconds(50);
    auto worker = core::make_ingest_worker(*platform, worker_config);
    if (!worker->start().is_ok()) {
      std::fprintf(stderr, "worker start failed\n");
      return 1;
    }
    ingest::ReplayOptions options;
    options.events_per_second = 0;  // as fast as the sink accepts
    options.max_events = kEvents;
    const auto report = ingest::replay(stream, options, ingest::worker_sink(*worker));
    if (!report.is_ok()) {
      std::fprintf(stderr, "replay failed: %s\n", report.status().to_string().c_str());
      return 1;
    }
    worker->stop();  // final epoch merges the tail
    const ingest::IngestStats stats = worker->stats();
    const double mean_rebuild =
        stats.epochs_published > 0
            ? stats.total_rebuild_ms / static_cast<double>(stats.epochs_published)
            : 0.0;
    std::printf("%9zu %12.0f %10zu %10zu %8llu %12.1f %12.2f\n", capacity,
                report->offered_per_second(), report->accepted, report->rejected,
                static_cast<unsigned long long>(stats.epochs_published),
                stats.total_rebuild_ms, mean_rebuild);
  }

  // Durability overhead. The worker group-commits: each epoch's events
  // become one WAL record, written (and synced) on the worker thread
  // before that epoch's rebuild stages run. So the honest number is
  // end-to-end: submit the whole stream (retrying backpressure) and wait
  // until a published epoch *serves* every event — merge, journal, and
  // the epoch rebuilds all included; the shutdown flush is not timed.
  // fsync=never isolates the encode+write cost (the acceptance bar: < 5%
  // end-to-end regression vs the no-store run); every_batch pays one
  // fsync per epoch inside the measured window and shows what the full
  // durability contract costs. merge ms is also shown: the time until
  // the worker has merged every event, during which the WAL is written
  // only inside epoch rebuilds.
  constexpr std::size_t kDurabilityEvents = 200'000;  // cycle the feed with
                                                      // shifted days so runs
                                                      // last long enough to
                                                      // measure steady state
  std::printf("\n--- durability overhead: submit -> published, %zu events ---\n",
              kDurabilityEvents);
  std::vector<ingest::IngestEvent> durability_events;
  durability_events.reserve(kDurabilityEvents);
  for (std::size_t cycle = 0; durability_events.size() < kDurabilityEvents; ++cycle)
    for (std::size_t i = 0;
         i < stream.size() && durability_events.size() < kDurabilityEvents; ++i) {
      ingest::IngestEvent event = ingest::to_event(stream[i]);
      event.timestamp += static_cast<std::int64_t>(cycle) * 86'400;
      durability_events.push_back(event);
    }
  // Each rep runs all three modes back to back, starting from a
  // different mode each rep, so neither machine drift nor a fixed
  // position in the rep favours a mode. The overhead is read per rep, as
  // that rep's mode_ms / off_ms, and summarised by its median and
  // quartiles across reps.
  constexpr int kDurabilityReps = 5;
  struct DurabilityRuns {
    std::vector<double> e2e_ms;
    std::vector<double> merge_ms;
    std::vector<double> events_per_s;
    double wal_mb = 0.0;
    unsigned long long fsyncs = 0;
  };
  std::array<DurabilityRuns, 3> durability{};
  for (int rep = 0; rep < kDurabilityReps; ++rep) {
    for (int slot = 0; slot < 3; ++slot) {
      const int mode = (rep + slot) % 3;
      ingest::IngestWorkerConfig worker_config;
      worker_config.queue_capacity = 4'096;
      worker_config.rebuild_interval = std::chrono::milliseconds(250);
      const std::filesystem::path store_dir =
          std::filesystem::temp_directory_path() / "crowdweb_bench_ingest_store";
      if (mode != 0) {
        std::filesystem::remove_all(store_dir);
        worker_config.store.dir = store_dir.string();
        worker_config.store.fsync = mode == 1 ? store::FsyncPolicy::kNever
                                              : store::FsyncPolicy::kEveryBatch;
      }
      auto worker = core::make_ingest_worker(*platform, worker_config);
      if (!worker->start().is_ok()) {
        std::fprintf(stderr, "worker start failed\n");
        return 1;
      }
      const auto start = Clock::now();
      std::size_t offered = 0;
      while (offered < durability_events.size()) {
        const std::size_t batch =
            std::min<std::size_t>(512, durability_events.size() - offered);
        const ingest::SubmitResult result =
            worker->submit({durability_events.data() + offered, batch});
        offered += result.accepted;
        if (result.accepted == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      while (worker->stats().accepted + worker->stats().invalid <
             durability_events.size())
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      const double merge_ms = ms_since(start);
      const std::size_t rep_merged = worker->stats().accepted;
      while (worker->stats().live_checkins < rep_merged)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const double elapsed_ms = ms_since(start);
      worker->stop();  // untimed: shutdown flush is not ingest work
      DurabilityRuns& runs = durability[static_cast<std::size_t>(mode)];
      runs.e2e_ms.push_back(elapsed_ms);
      runs.merge_ms.push_back(merge_ms);
      runs.events_per_s.push_back(static_cast<double>(rep_merged) / (elapsed_ms / 1e3));
      if (const store::DurableStore* durable = worker->store(); durable != nullptr) {
        const store::StoreStats store_stats = durable->stats();
        runs.wal_mb = static_cast<double>(store_stats.wal_bytes) / 1e6;
        runs.fsyncs = store_stats.fsyncs;
      }
      worker.reset();
      if (mode != 0) std::filesystem::remove_all(store_dir);
    }
  }
  std::printf("%12s %12s %10s %10s %10s %18s %8s %8s\n", "store", "events/s", "e2e ms",
              "merge ms", "overhead", "(q1 .. q3)", "wal MB", "fsyncs");
  for (const int mode : {0, 1, 2}) {
    const DurabilityRuns& runs = durability[static_cast<std::size_t>(mode)];
    std::vector<double> overhead;  // per rep, percent over that rep's off run
    for (int rep = 0; rep < kDurabilityReps; ++rep)
      overhead.push_back((runs.e2e_ms[rep] / durability[0].e2e_ms[rep] - 1.0) * 100.0);
    std::printf("%12s %12.0f %10.1f %10.1f %9.1f%% %8.1f .. %5.1f%% %8.1f %8llu\n",
                mode == 0 ? "off" : (mode == 1 ? "fsync=never" : "every_batch"),
                stats::median(runs.events_per_s), stats::median(runs.e2e_ms),
                stats::median(runs.merge_ms), stats::median(overhead),
                stats::quantile(overhead, 0.25), stats::quantile(overhead, 0.75), runs.wal_mb,
                runs.fsyncs);
  }
  std::printf("(medians over %d reps; overhead is each rep's mode_ms / off_ms - 1)\n",
              kDurabilityReps);

  std::printf("\n--- epoch-publish latency: 1000-event burst -> next epoch ---\n");
  std::printf("%9s %12s %12s\n", "capacity", "publish ms", "rebuild ms");
  for (const std::size_t capacity : capacities) {
    ingest::IngestWorkerConfig worker_config;
    worker_config.queue_capacity = capacity;
    worker_config.rebuild_interval = std::chrono::milliseconds(1);
    auto worker = core::make_ingest_worker(*platform, worker_config);
    if (!worker->start().is_ok()) {
      std::fprintf(stderr, "worker start failed\n");
      return 1;
    }
    std::vector<ingest::IngestEvent> burst;
    burst.reserve(1'000);
    for (std::size_t i = 0; i < 1'000 && i < stream.size(); ++i)
      burst.push_back(ingest::to_event(stream[i]));
    const auto start = Clock::now();
    const ingest::SubmitResult submitted = worker->submit(burst);
    const bool published = worker->wait_for_epoch(2, std::chrono::seconds(30));
    const double publish_ms = ms_since(start);
    const ingest::IngestStats stats = worker->stats();
    worker->stop();
    if (!published || submitted.accepted == 0) {
      std::printf("%9zu %12s %12s\n", capacity, "timeout", "-");
      continue;
    }
    std::printf("%9zu %12.1f %12.1f\n", capacity, publish_ms, stats.last_rebuild_ms);
  }

  std::printf("\ndone.\n");
  return 0;
}
