// Durable store bench: WAL append throughput by fsync policy, and
// recovery (open + scan + replay-ready) time as the WAL grows.
//
// Appends synthetic records through DurableStore the way the ingest
// worker does — one record per epoch's events — per fsync policy, and
// reports events/s and MB/s. Then
// reopens stores of increasing WAL length and times recovery — the
// startup cost an operator pays after a crash, which is what the
// checkpoint cadence trades against.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "store/store.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

using namespace crowdweb;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// A fresh scratch directory under the system temp dir.
std::string scratch_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("crowdweb_bench_store_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

/// One deterministic batch of plausible events.
std::vector<ingest::IngestEvent> make_batch(Rng& rng, std::size_t count) {
  std::vector<ingest::IngestEvent> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ingest::IngestEvent event;
    event.user = static_cast<data::UserId>(rng.uniform_int(0, 2'000));
    event.category = static_cast<data::CategoryId>(rng.uniform_int(0, 250));
    event.position = {40.5 + rng.uniform() * 0.4, -74.2 + rng.uniform() * 0.5};
    event.timestamp = 1'333'238'400 + static_cast<std::int64_t>(i);
    batch.push_back(event);
  }
  return batch;
}

}  // namespace

int main() {
  std::printf("=== Durable store: append throughput and recovery time ===\n\n");
  set_log_level(LogLevel::kError);

  constexpr std::size_t kBatches = 2'000;
  constexpr std::size_t kBatchEvents = 64;

  std::printf("--- append: %zu batches x %zu events, by fsync policy ---\n", kBatches,
              kBatchEvents);
  std::printf("%12s %12s %10s %10s %10s\n", "policy", "events/s", "MB/s", "ms total",
              "fsyncs");
  for (const store::FsyncPolicy policy :
       {store::FsyncPolicy::kNever, store::FsyncPolicy::kEveryBatch}) {
    store::StoreConfig config;
    config.dir = scratch_dir(std::string(store::to_string(policy)));
    config.fsync = policy;
    auto opened = store::DurableStore::open(config);
    if (!opened) {
      std::fprintf(stderr, "open failed: %s\n", opened.status().to_string().c_str());
      return 1;
    }
    auto& durable_store = **opened;
    Rng rng(42);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kBatches; ++i) {
      const auto batch = make_batch(rng, kBatchEvents);
      if (const Status status = durable_store.append(i + 1, batch); !status.is_ok()) {
        std::fprintf(stderr, "append failed: %s\n", status.to_string().c_str());
        return 1;
      }
    }
    if (const Status status = durable_store.sync(); !status.is_ok()) {
      std::fprintf(stderr, "sync failed: %s\n", status.to_string().c_str());
      return 1;
    }
    const double elapsed_ms = ms_since(start);
    const store::StoreStats stats = durable_store.stats();
    const double events = static_cast<double>(kBatches * kBatchEvents);
    std::printf("%12s %12.0f %10.1f %10.1f %10llu\n",
                std::string(store::to_string(policy)).c_str(),
                events / (elapsed_ms / 1e3),
                static_cast<double>(stats.append_bytes) / 1e6 / (elapsed_ms / 1e3),
                elapsed_ms, static_cast<unsigned long long>(stats.fsyncs));
    fs::remove_all(config.dir);
  }

  std::printf("\n--- recovery: open() time vs WAL length (no checkpoint) ---\n");
  std::printf("%12s %12s %12s %12s\n", "records", "events", "wal MB", "recover ms");
  for (const std::size_t records : {500ul, 2'000ul, 8'000ul, 32'000ul}) {
    store::StoreConfig config;
    config.dir = scratch_dir("recovery");
    config.fsync = store::FsyncPolicy::kNever;
    {
      auto opened = store::DurableStore::open(config);
      if (!opened) {
        std::fprintf(stderr, "open failed: %s\n", opened.status().to_string().c_str());
        return 1;
      }
      Rng rng(7);
      for (std::size_t i = 0; i < records; ++i) {
        const auto batch = make_batch(rng, kBatchEvents);
        if (const Status status = (*opened)->append(i + 1, batch); !status.is_ok()) {
          std::fprintf(stderr, "append failed: %s\n", status.to_string().c_str());
          return 1;
        }
      }
      if (const Status status = (*opened)->sync(); !status.is_ok()) {
        std::fprintf(stderr, "sync failed: %s\n", status.to_string().c_str());
        return 1;
      }
    }  // close cleanly
    const auto start = Clock::now();
    auto reopened = store::DurableStore::open(config);
    const double elapsed_ms = ms_since(start);
    if (!reopened) {
      std::fprintf(stderr, "recovery failed: %s\n", reopened.status().to_string().c_str());
      return 1;
    }
    const store::RecoveredState recovered = (*reopened)->take_recovered();
    const store::StoreStats stats = (*reopened)->stats();
    std::printf("%12zu %12llu %12.1f %12.1f\n", recovered.records.size(),
                static_cast<unsigned long long>(recovered.replayed_events),
                static_cast<double>(stats.wal_bytes) / 1e6, elapsed_ms);
    reopened->reset();
    fs::remove_all(config.dir);
  }

  std::printf("\ndone.\n");
  return 0;
}
