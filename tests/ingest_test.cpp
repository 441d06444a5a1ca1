// Live ingestion subsystem tests: the bounded MPSC queue under
// concurrent producers and its wake threshold, the worker's validation,
// epoch publication and wakeups per epoch, counted re-mining against
// from-scratch mines, in-place appends under a reader of a pinned epoch,
// the /api/ingest routes end
// to end over a real socket, and one invalid-row account at every
// deployment shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/platform.hpp"
#include "http/cache.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "ingest/queue.hpp"
#include "ingest/replay.hpp"
#include "ingest/snapshot.hpp"
#include "ingest/worker.hpp"
#include "json/json.hpp"
#include "patterns/mobility.hpp"
#include "reference/annotate_oracle.hpp"
#include "shard/api.hpp"
#include "shard/router.hpp"
#include "telemetry/metrics.hpp"
#include "transport/pipeline.hpp"
#include "util/log.hpp"

namespace crowdweb {
namespace {

using namespace std::chrono_literals;

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kError); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

/// One platform for every worker test — phases 1-3 run once per binary.
const core::Platform& test_platform() {
  static const core::Platform* platform = [] {
    core::PlatformConfig config;
    config.small_corpus = true;
    config.min_active_days = 20;
    auto result = core::Platform::create(config);
    if (!result.is_ok()) std::abort();
    return new core::Platform(std::move(result).value());
  }();
  return *platform;
}

ingest::IngestEvent valid_event(data::UserId user = 7, std::int64_t timestamp = 1'000) {
  ingest::IngestEvent event;
  event.user = user;
  event.category = 0;
  event.position = {40.75, -73.98};
  event.timestamp = timestamp;
  return event;
}

// ------------------------------------------------------------------ Queue

TEST(IngestQueueTest, FullQueueRejectsAndCounts) {
  ingest::IngestQueue queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(valid_event()));
  EXPECT_FALSE(queue.try_push(valid_event()));
  EXPECT_FALSE(queue.try_push(valid_event()));
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.rejected(), 2u);
}

TEST(IngestQueueTest, PushBatchAcceptsPrefixUpToRoom) {
  ingest::IngestQueue queue(4);
  std::vector<ingest::IngestEvent> batch(6, valid_event());
  EXPECT_EQ(queue.push_batch(batch), 4u);
  EXPECT_EQ(queue.rejected(), 2u);
  std::vector<ingest::IngestEvent> drained;
  EXPECT_EQ(queue.drain(drained, 100, 0ms), 4u);
  EXPECT_EQ(queue.push_batch(batch), 4u);  // room again after drain
}

TEST(IngestQueueTest, DrainRespectsBatchLimitAndOrder) {
  ingest::IngestQueue queue(16);
  for (data::UserId user = 0; user < 10; ++user)
    ASSERT_TRUE(queue.try_push(valid_event(user)));
  std::vector<ingest::IngestEvent> drained;
  EXPECT_EQ(queue.drain(drained, 3, 0ms), 3u);
  EXPECT_EQ(queue.drain(drained, 100, 0ms), 7u);
  ASSERT_EQ(drained.size(), 10u);
  for (data::UserId user = 0; user < 10; ++user) EXPECT_EQ(drained[user].user, user);
}

TEST(IngestQueueTest, DrainTimesOutOnEmptyQueue) {
  ingest::IngestQueue queue(4);
  std::vector<ingest::IngestEvent> drained;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.drain(drained, 10, 20ms), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 15ms);
}

TEST(IngestQueueTest, CloseWakesBlockedConsumerAndRejectsProducers) {
  ingest::IngestQueue queue(4);
  std::vector<ingest::IngestEvent> drained;
  std::thread consumer([&] { queue.drain(drained, 10, 10s); });
  std::this_thread::sleep_for(20ms);
  queue.close();
  consumer.join();  // woke well before the 10 s timeout
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.try_push(valid_event()));
  EXPECT_EQ(queue.rejected(), 1u);
}

TEST(IngestQueueTest, QueuedEventsRemainDrainableAfterClose) {
  ingest::IngestQueue queue(4);
  ASSERT_TRUE(queue.try_push(valid_event()));
  queue.close();
  std::vector<ingest::IngestEvent> drained;
  EXPECT_EQ(queue.drain(drained, 10, 0ms), 1u);
  EXPECT_EQ(queue.drain(drained, 10, 0ms), 0u);  // closed and empty: no wait
}

TEST(IngestQueueTest, WakeEndsOneDrainWaitWithoutEvents) {
  ingest::IngestQueue queue(4);
  std::vector<ingest::IngestEvent> drained;
  queue.wake();  // consumed by the next drain, even if it had not started
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.drain(drained, 10, 10s), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  EXPECT_EQ(queue.drain(drained, 10, 20ms), 0u);  // no wake left: times out
  EXPECT_FALSE(queue.closed());
  EXPECT_TRUE(queue.try_push(valid_event()));
}

TEST(IngestQueueTest, PushBelowWakeThresholdLeavesConsumerAsleep) {
  ingest::IngestQueue queue(16);
  std::vector<ingest::IngestEvent> drained;
  std::size_t count = 0;
  std::chrono::steady_clock::duration waited{};
  std::thread consumer([&] {
    const auto start = std::chrono::steady_clock::now();
    count = queue.drain(drained, 10, 300ms, /*wake_at=*/4);
    waited = std::chrono::steady_clock::now() - start;
  });
  std::this_thread::sleep_for(20ms);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.try_push(valid_event()));
  consumer.join();
  EXPECT_EQ(count, 3u);  // the timeout hands over whatever is queued
  EXPECT_GE(waited, 280ms);
}

TEST(IngestQueueTest, PushCrossingWakeThresholdWakesConsumer) {
  ingest::IngestQueue queue(16);
  std::vector<ingest::IngestEvent> drained;
  std::size_t count = 0;
  std::chrono::steady_clock::duration waited{};
  std::thread consumer([&] {
    const auto start = std::chrono::steady_clock::now();
    count = queue.drain(drained, 10, 10s, /*wake_at=*/4);
    waited = std::chrono::steady_clock::now() - start;
  });
  std::this_thread::sleep_for(20ms);
  const std::vector<ingest::IngestEvent> batch(5, valid_event());
  EXPECT_EQ(queue.push_batch(batch), 5u);
  consumer.join();
  EXPECT_EQ(count, 5u);
  EXPECT_LT(waited, 5s);
}

TEST(IngestQueueTest, CloseAndWakeIgnoreTheThreshold) {
  ingest::IngestQueue queue(16);
  ASSERT_TRUE(queue.try_push(valid_event()));
  std::vector<ingest::IngestEvent> drained;
  const auto start = std::chrono::steady_clock::now();
  std::thread waker([&] {
    std::this_thread::sleep_for(20ms);
    queue.wake();
  });
  EXPECT_EQ(queue.drain(drained, 10, 10s, /*wake_at=*/4), 1u);
  waker.join();
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    queue.close();
  });
  EXPECT_EQ(queue.drain(drained, 10, 10s, /*wake_at=*/4), 0u);
  closer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST(IngestQueueTest, MultiProducerTotalsAreAccountedFor) {
  // 4 producers race a slow consumer through a small queue; every event
  // must end up either drained or counted as rejected — none lost, none
  // duplicated.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2'000;
  ingest::IngestQueue queue(64);
  std::atomic<std::size_t> pushed{0};
  std::atomic<bool> done{false};
  std::size_t drained_total = 0;
  std::thread consumer([&] {
    std::vector<ingest::IngestEvent> batch;
    while (!done.load() || queue.size() > 0) {
      batch.clear();
      drained_total += queue.drain(batch, 32, 1ms);
    }
  });
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (queue.try_push(valid_event(static_cast<data::UserId>(t)))) ++pushed;
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  done.store(true);
  consumer.join();
  EXPECT_EQ(pushed.load() + queue.rejected(),
            static_cast<std::size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(drained_total, pushed.load());
}

// ----------------------------------------------------------------- Worker

TEST(IngestWorkerTest, StartPublishesBaseCorpusAsEpochOne) {
  const core::Platform& platform = test_platform();
  auto worker = core::make_ingest_worker(platform);
  EXPECT_EQ(worker->hub().epoch(), 0u);  // nothing published yet
  ASSERT_TRUE(worker->start().is_ok());
  EXPECT_TRUE(worker->running());
  EXPECT_FALSE(worker->start().is_ok());  // already running
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch, 1u);
  EXPECT_EQ(snapshot->live_checkins, 0u);
  EXPECT_EQ(snapshot->dataset.checkin_count(),
            platform.experiment_dataset().checkin_count());
  EXPECT_EQ(snapshot->crowd.window_count(), platform.crowd_model().window_count());
  worker->stop();
  EXPECT_FALSE(worker->running());
}

TEST(IngestWorkerTest, UnbuildableSeedFailsStartAndPublishesNothing) {
  const core::Platform& platform = test_platform();
  ingest::IngestPipelineConfig bad_window;
  bad_window.crowd.window_minutes = 7;  // does not divide a day
  ingest::IngestPipelineConfig bad_cell;
  bad_cell.grid_cell_meters = 0.0;
  for (const ingest::IngestPipelineConfig& pipeline : {bad_window, bad_cell}) {
    telemetry::Registry registry;
    ingest::IngestWorkerConfig config;
    config.metrics = &registry;
    ingest::IngestWorker worker(platform.experiment_dataset(), platform.mobility(),
                                platform.taxonomy(), pipeline, config);
    const Status status = worker.start();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.to_string();
    EXPECT_FALSE(worker.running());
    EXPECT_EQ(worker.hub().current(), nullptr);
    EXPECT_EQ(worker.stats().epochs_published, 0u);
    worker.stop();  // no thread to join
    worker.stop();
    EXPECT_FALSE(worker.running());
  }
}

TEST(IngestWorkerTest, AcceptedEventsAdvanceTheEpoch) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());

  // Replay a slice of the corpus through the worker sink — same shape as
  // real traffic, known-valid events.
  const auto base = platform.experiment_dataset().checkins();
  ASSERT_GE(base.size(), 10u);
  std::vector<data::CheckIn> slice(base.begin(), base.begin() + 10);
  ingest::ReplayOptions options;
  options.events_per_second = 0;  // full speed
  const auto report = ingest::replay(slice, options, ingest::worker_sink(*worker));
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report->accepted, 10u);
  EXPECT_EQ(report->rejected, 0u);

  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_GE(snapshot->epoch, 2u);
  EXPECT_EQ(snapshot->live_checkins, 10u);
  EXPECT_EQ(snapshot->dataset.checkin_count(),
            platform.experiment_dataset().checkin_count() + 10);
  const ingest::IngestStats stats = worker->stats();
  EXPECT_EQ(stats.accepted, 10u);
  EXPECT_EQ(stats.invalid, 0u);
  EXPECT_GE(stats.epochs_published, 2u);
  EXPECT_GT(stats.last_rebuild_ms, 0.0);
  worker->stop();
}

TEST(IngestWorkerTest, InvalidEventsAreCountedNotMerged) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());

  ingest::IngestEvent bad_category = valid_event();
  bad_category.category = static_cast<data::CategoryId>(worker->taxonomy().size());
  ingest::IngestEvent bad_position = valid_event();
  bad_position.position = {1234.0, 0.0};
  ingest::IngestEvent bad_timestamp = valid_event();
  bad_timestamp.timestamp = 0;
  const std::vector<ingest::IngestEvent> events{bad_category, bad_position,
                                                bad_timestamp, valid_event()};
  const ingest::SubmitResult result = worker->submit(events);
  EXPECT_EQ(result.accepted, 4u);  // the queue takes them; validation is the worker's
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  const ingest::IngestStats stats = worker->stats();
  EXPECT_EQ(stats.invalid, 3u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(worker->hub().current()->live_checkins, 1u);
  worker->stop();
}

TEST(IngestWorkerTest, StopMergesPendingEventsIntoFinalEpoch) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 10min;  // never rebuild on cadence
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  const std::vector<ingest::IngestEvent> events{valid_event(1), valid_event(2)};
  EXPECT_EQ(worker->submit(events).accepted, 2u);
  worker->stop();  // drains and publishes the final epoch on the way out
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_GE(snapshot->epoch, 2u);
  EXPECT_EQ(snapshot->live_checkins, 2u);
}

TEST(IngestWorkerTest, PendingDeltaPublishesOneIntervalAfterThePreviousEpoch) {
  // An event that arrives late in an interval must not restart the
  // cadence wait: it publishes when the interval since the last epoch
  // runs out (~400 ms here), not a full interval after its arrival.
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 400ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());  // epoch 1 publishes inside start()
  const auto published = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(300ms);
  const std::vector<ingest::IngestEvent> events{valid_event(1)};
  EXPECT_EQ(worker->submit(events).accepted, 1u);
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  EXPECT_LT(std::chrono::steady_clock::now() - published, 600ms);
  EXPECT_EQ(worker->hub().current()->live_checkins, 1u);
  worker->stop();
}

TEST(IngestWorkerTest, SteadyFeedWakesTheWorkerAboutOncePerEpoch) {
  // One event per millisecond: a push that does not fill a drain batch
  // leaves the worker asleep until its epoch is due, so it wakes for
  // the first event after a publish and at the deadline, not per event.
  const core::Platform& platform = test_platform();
  telemetry::Registry registry;
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 50ms;
  config.metrics = &registry;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  for (auto next = start; next - start < 500ms; next += 1ms) {
    std::this_thread::sleep_until(next);
    const std::vector<ingest::IngestEvent> events{
        valid_event(static_cast<data::UserId>(sent % 50))};
    ASSERT_EQ(worker->submit(events).accepted, 1u);
    ++sent;
  }
  // Nothing is stranded in the queue: the last epoch holds every event.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (worker->hub().current()->live_checkins < sent &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  const std::uint64_t wakeups =
      registry.counter_family("crowdweb_ingest_worker_wakeups_total", "", {"shard"})
          .with_labels({"0"})
          .value();
  const ingest::IngestStats stats = worker->stats();
  EXPECT_EQ(stats.accepted, sent);
  EXPECT_EQ(stats.live_checkins, stats.accepted);
  EXPECT_GE(stats.epochs_published, 3u);
  EXPECT_LE(wakeups, 3 * stats.epochs_published)
      << wakeups << " wakeups for " << stats.epochs_published << " epochs";
  worker->stop();
}

TEST(IngestWorkerTest, KeptHistoryIndexRefilesOnFirstTouchAndOnEarlierEvents) {
  const core::Platform& platform = test_platform();
  telemetry::Registry registry;
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  config.metrics = &registry;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  telemetry::CounterFamily& users =
      registry.counter_family("crowdweb_ingest_history_users_total", "", {"shard", "path"});
  const auto appended = [&] { return users.with_labels({"0", "appended"}).value(); };
  const auto refiled = [&] { return users.with_labels({"0", "refiled"}).value(); };
  const auto epoch_of = [&](std::vector<ingest::IngestEvent> events) {
    const std::uint64_t next = worker->hub().epoch() + 1;
    EXPECT_EQ(worker->submit(events).accepted, events.size());
    EXPECT_TRUE(worker->wait_for_epoch(next, 5s));
  };

  // Later than every corpus record, so in-order epochs only append.
  constexpr std::int64_t kLater = 2'000'000'000;
  epoch_of({valid_event(7, kLater), valid_event(8, kLater)});
  EXPECT_EQ(refiled(), 2u);  // first touch
  EXPECT_EQ(appended(), 0u);
  epoch_of({valid_event(7, kLater + 60), valid_event(8, kLater + 86'400)});
  epoch_of({valid_event(7, kLater + 120)});
  EXPECT_EQ(refiled(), 2u);
  EXPECT_EQ(appended(), 3u);

  // An event before user 7's last filed one refiles that user only.
  epoch_of({valid_event(7, kLater + 30), valid_event(8, kLater + 2 * 86'400)});
  EXPECT_EQ(refiled(), 3u);
  EXPECT_EQ(appended(), 4u);
  EXPECT_GT(registry.gauge_family("crowdweb_ingest_history_bytes", "", {"shard"})
                .with_labels({"0"})
                .value(),
            0.0);
  worker->stop();
}

TEST(IngestWorkerTest, CountedReMinesPublishTheFromScratchEntries) {
  // Many small epochs: six corpus users gain a day about every other
  // epoch (a day's check-ins often span two epochs, so the open day is
  // taken back out and refiled). After every epoch, every published
  // entry equals a from-scratch mine of the published corpus.
  const core::Platform& platform = test_platform();
  telemetry::Registry registry;
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 5ms;
  config.metrics = &registry;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  patterns::MobilityOptions options;
  options.sequences = platform.config().sequences;
  options.mining = platform.config().mining;
  const std::vector<data::CategoryId>& roots = platform.taxonomy().roots();
  const std::span<const data::UserId> corpus_users = platform.experiment_dataset().users();
  ASSERT_GE(corpus_users.size(), 6u);
  constexpr std::int64_t kFirstDay = 2'000'000'000 / 86'400;  // after every corpus record
  for (int epoch = 0; epoch < 40; ++epoch) {
    std::vector<ingest::IngestEvent> events;
    for (std::size_t u = 0; u < 6; ++u) {
      if ((epoch + static_cast<int>(u)) % 3 == 0) continue;  // not every user every epoch
      const std::int64_t day = kFirstDay + epoch / 2;
      for (int k = 0; k < 2; ++k) {
        const std::int64_t minute = (epoch % 2) * 600 + 420 + 90 * k;
        ingest::IngestEvent event = valid_event(corpus_users[u], day * 86'400 + minute * 60);
        event.category = roots[(u + static_cast<std::size_t>(k) * 3 +
                                static_cast<std::size_t>(epoch / 7)) %
                               roots.size()];
        events.push_back(event);
      }
    }
    const std::uint64_t next = worker->hub().epoch() + 1;
    ASSERT_EQ(worker->submit(events).accepted, events.size());
    ASSERT_TRUE(worker->wait_for_epoch(next, 5s));
    const ingest::SnapshotPtr snapshot = worker->hub().current();
    for (const patterns::UserMobility& entry : snapshot->mobility) {
      EXPECT_EQ(patterns::entry_difference(
                    entry, patterns::mine_user_mobility(snapshot->dataset, entry.user,
                                                        platform.taxonomy(), options)),
                "")
          << "epoch " << snapshot->epoch << " user " << entry.user;
    }
  }
  worker->stop();
  telemetry::CounterFamily& users =
      registry.counter_family("crowdweb_mining_users_total", "", {"shard", "path"});
  const std::uint64_t counted = users.with_labels({"0", "counted"}).value();
  const std::uint64_t mined = users.with_labels({"0", "mined"}).value();
  EXPECT_GT(counted, mined);  // most re-mines were counted
  EXPECT_GE(mined, 6u);       // every user's first touch mines in full
  EXPECT_EQ(counted + mined, registry
                                 .counter_family("crowdweb_ingest_delta_users_total", "",
                                                 {"shard"})
                                 .with_labels({"0"})
                                 .value());
}

TEST(IngestWorkerTest, MergeAppendsInOrderDeltasWithoutCopyingHistories) {
  const core::Platform& platform = test_platform();
  telemetry::Registry registry;
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  config.metrics = &registry;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  const auto counter = [&](const char* name) {
    return registry.counter_family(name, "", {"shard"}).with_labels({"0"}).value();
  };
  const auto epoch_of = [&](std::vector<ingest::IngestEvent> events) {
    const std::uint64_t next = worker->hub().epoch() + 1;
    EXPECT_EQ(worker->submit(events).accepted, events.size());
    EXPECT_TRUE(worker->wait_for_epoch(next, 5s));
  };

  const data::UserId user = platform.experiment_dataset().users().front();
  constexpr std::int64_t kLater = 2'000'000'000;
  for (int i = 0; i < 6; ++i)
    epoch_of({valid_event(user, kLater + i * 60), valid_event(user, kLater + i * 60)});
  EXPECT_EQ(counter("crowdweb_ingest_delta_shards_appended_total"), 6u);
  EXPECT_EQ(counter("crowdweb_ingest_delta_records_copied_total"), 0u);

  // A check-in before the user's last one merges by copying the history.
  const std::size_t history = worker->hub().current()->dataset.checkins_for(user).size();
  epoch_of({valid_event(user, kLater - 60)});
  EXPECT_EQ(counter("crowdweb_ingest_delta_shards_appended_total"), 6u);
  EXPECT_EQ(counter("crowdweb_ingest_delta_records_copied_total"), history);
  worker->stop();
}

/// FNV-1a over every column byte of `dataset`.
std::uint64_t column_hash(const data::Dataset& dataset) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](const auto span) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(span.data());
    for (std::size_t i = 0; i < span.size_bytes(); ++i)
      hash = (hash ^ bytes[i]) * 1099511628211ull;
  };
  for (const data::UserId user : dataset.users()) {
    const data::Dataset::UserColumns records = dataset.checkins_for(user);
    mix(records.timestamps());
    mix(records.lats());
    mix(records.lons());
    mix(records.venues());
  }
  return hash;
}

TEST(IngestWorkerTest, PushedGaugesEqualTheWorkersStats) {
  // The queue, epoch and live-count gauges are set when their values
  // change, under the worker's shard label, not sampled at scrape time.
  const core::Platform& platform = test_platform();
  telemetry::Registry registry;
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  config.metrics = &registry;
  config.shard = 5;
  auto worker = core::make_ingest_worker(platform, config);
  const auto gauge = [&](const char* name) {
    return registry.gauge_family(name, "", {"shard"}).with_labels({"5"}).value();
  };
  const auto expect_gauges_match = [&] {
    const ingest::IngestStats stats = worker->stats();
    EXPECT_EQ(gauge("crowdweb_ingest_queue_depth"), static_cast<double>(stats.queue_depth));
    EXPECT_EQ(gauge("crowdweb_ingest_queue_capacity"),
              static_cast<double>(stats.queue_capacity));
    EXPECT_EQ(gauge("crowdweb_ingest_epoch"), static_cast<double>(stats.current_epoch));
    EXPECT_EQ(gauge("crowdweb_ingest_live_checkins"),
              static_cast<double>(stats.live_checkins));
  };

  // Queued before start(): nothing drains them yet.
  const std::vector<ingest::IngestEvent> events{valid_event(7, 2'000'000'000),
                                                valid_event(8, 2'000'000'000),
                                                valid_event(9, 2'000'000'000)};
  ASSERT_EQ(worker->submit(events).accepted, events.size());
  EXPECT_EQ(gauge("crowdweb_ingest_queue_depth"), 3.0);
  expect_gauges_match();

  ASSERT_TRUE(worker->start().is_ok());
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  // Idle: the epoch that carried the events drained the queue.
  EXPECT_EQ(gauge("crowdweb_ingest_queue_depth"), 0.0);
  EXPECT_EQ(gauge("crowdweb_ingest_live_checkins"), 3.0);
  expect_gauges_match();
  worker->stop();
  expect_gauges_match();
}

TEST(IngestWorkerTest, PinnedSnapshotColumnsHoldStillWhileEpochsAppend) {
  // Epochs append in place into the column buffers a pinned snapshot
  // reads from; its records, read concurrently, never change.
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 5ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  const std::span<const data::UserId> users = platform.experiment_dataset().users();
  ASSERT_GE(users.size(), 4u);
  constexpr std::int64_t kLater = 2'000'000'000;
  std::int64_t t = kLater;
  const auto feed = [&] {
    std::vector<ingest::IngestEvent> events;
    for (std::size_t u = 0; u < 4; ++u) events.push_back(valid_event(users[u], t));
    t += 60;
    const std::uint64_t next = worker->hub().epoch() + 1;
    EXPECT_EQ(worker->submit(events).accepted, events.size());
    EXPECT_TRUE(worker->wait_for_epoch(next, 5s));
  };
  for (int i = 0; i < 3; ++i) feed();  // past each user's first, growing move

  const ingest::SnapshotPtr pinned = worker->hub().current();
  const std::uint64_t expected = column_hash(pinned->dataset);
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> passes{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (column_hash(pinned->dataset) != expected) mismatches.fetch_add(1);
      (void)column_hash(worker->hub().current()->dataset);  // the newest epoch too
      passes.fetch_add(1);
    }
  });
  for (int i = 0; i < 30; ++i) feed();
  while (passes.load() < 2) std::this_thread::sleep_for(1ms);
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(worker->hub().current()->dataset.checkin_count(),
            pinned->dataset.checkin_count() + 30 * 4);
  worker->stop();
}

TEST(IngestWorkerTest, FirstEventAfterIdlePublishesPromptly) {
  // After an idle spell longer than the interval, the first event wakes
  // the worker and publishes at once instead of waiting out a cadence.
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 400ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  std::this_thread::sleep_for(450ms);
  const auto submitted = std::chrono::steady_clock::now();
  const std::vector<ingest::IngestEvent> events{valid_event(1)};
  EXPECT_EQ(worker->submit(events).accepted, 1u);
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  EXPECT_LT(std::chrono::steady_clock::now() - submitted, 200ms);
  EXPECT_EQ(worker->hub().current()->live_checkins, 1u);
  worker->stop();
}

TEST(IngestWorkerTest, GuestIdsAreDistinctAndOutsideCorpusRange) {
  auto worker = core::make_ingest_worker(test_platform());
  const data::UserId a = worker->allocate_guest_id();
  const data::UserId b = worker->allocate_guest_id();
  EXPECT_NE(a, b);
  EXPECT_GE(a, 3'000'000'000u);
}

// ------------------------------------------------------------ HTTP routes

TEST(IngestApiTest, StaticRouterHasNoIngestRoutes) {
  const http::Router router = core::make_api_router(test_platform());
  http::Request request;
  request.method = "POST";
  request.path = "/api/ingest";
  request.version = "HTTP/1.1";
  EXPECT_EQ(router.dispatch(request).status, 404);
}

TEST(IngestApiTest, PostIngestAdvancesEpochOverTheSocket) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  core::ApiOptions options;
  options.ingest = worker.get();
  options.server_stats = std::make_shared<std::function<http::ServerStats()>>();
  http::Server server(core::make_api_router(platform, options));
  ASSERT_TRUE(server.start().is_ok());
  *options.server_stats = [&server] { return server.stats(); };

  // Baseline: epoch 1 (the base corpus) is already visible.
  auto stats_response = http::get("127.0.0.1", server.port(), "/api/ingest/stats");
  ASSERT_TRUE(stats_response.is_ok());
  ASSERT_EQ(stats_response->status, 200);
  auto payload = json::parse(stats_response->body);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload->find("epoch")->as_int(), 1);

  // Two valid rows, one with an unknown category and one whose user id
  // is past the u32 range (both counted invalid; the latter must not
  // wrap onto user 0).
  const std::string body =
      "user,category,lat,lon,timestamp\n"
      "3000,Eatery,40.75,-73.98,2012-04-10 12:00:00\n"
      "3001,Nightlife Spot,40.74,-73.99,2012-04-10 13:00:00\n"
      "3002,No Such Category,40.73,-73.97,2012-04-10 14:00:00\n"
      "4294967296,Eatery,40.75,-73.98,2012-04-10 15:00:00\n";
  const auto response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", body);
  ASSERT_TRUE(response.is_ok());
  ASSERT_EQ(response->status, 200) << response->body;
  payload = json::parse(response->body);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload->find("received")->as_int(), 4);
  EXPECT_EQ(payload->find("accepted")->as_int(), 2);
  EXPECT_EQ(payload->find("invalid")->as_int(), 2);

  // The new epoch becomes observable through the stats route.
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  stats_response = http::get("127.0.0.1", server.port(), "/api/ingest/stats");
  ASSERT_TRUE(stats_response.is_ok());
  payload = json::parse(stats_response->body);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_GE(payload->find("epoch")->as_int(), 2);
  EXPECT_EQ(payload->find("accepted")->as_int(), 2);
  EXPECT_EQ(payload->find("invalid")->as_int(), 2);
  EXPECT_EQ(payload->find("live_checkins")->as_int(), 2);

  // Crowd routes serve the live snapshot, and /api/status reports both
  // the ingest epoch and the server's response-class counters.
  const auto crowd = http::get("127.0.0.1", server.port(), "/api/crowd/12");
  ASSERT_TRUE(crowd.is_ok());
  EXPECT_EQ(crowd->status, 200);
  const auto status = http::get("127.0.0.1", server.port(), "/api/status");
  ASSERT_TRUE(status.is_ok());
  payload = json::parse(status->body);
  ASSERT_TRUE(payload.is_ok());
  ASSERT_NE(payload->find("ingest"), nullptr);
  EXPECT_GE(payload->find("ingest")->find("epoch")->as_int(), 2);
  ASSERT_NE(payload->find("server"), nullptr);
  EXPECT_GE(payload->find("server")->find("responses")->find("2xx")->as_int(), 1);

  server.stop();
  worker->stop();
}

TEST(IngestApiTest, AnonymousSchemaBooksRowsUnderOneGuest) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  http::Server server(core::make_api_router(platform, {worker.get(), nullptr}));
  ASSERT_TRUE(server.start().is_ok());

  const std::string body =
      "category,lat,lon,timestamp\n"
      "Eatery,40.75,-73.98,2012-04-10 12:00:00\n"
      "Eatery,40.75,-73.98,2012-04-10 18:30:00\n";
  const auto response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", body);
  ASSERT_TRUE(response.is_ok());
  ASSERT_EQ(response->status, 200) << response->body;
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  // Both rows landed on the same fresh guest user.
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  EXPECT_EQ(snapshot->live_checkins, 2u);
  EXPECT_EQ(snapshot->live_users, 1u);
  server.stop();
  worker->stop();
}

TEST(IngestApiTest, UsersAndCrowdServeTheSameEpochAfterIngest) {
  // Every route renders from the epoch it pins: after live ingest the
  // user table lists the new guest, and its validator names the same
  // epoch the crowd route's does.
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  auto worker = core::make_ingest_worker(platform, config);
  http::ResponseCache cache;
  worker->hub().on_publish(
      [&cache](const ingest::PlatformSnapshot& snapshot) { cache.set_epoch(snapshot.epoch); });
  ASSERT_TRUE(worker->start().is_ok());
  http::ServerConfig server_config;
  server_config.cache = &cache;
  http::Server server(core::make_api_router(platform, {worker.get(), nullptr}), server_config);
  ASSERT_TRUE(server.start().is_ok());

  const auto users_before = http::get("127.0.0.1", server.port(), "/api/users");
  ASSERT_TRUE(users_before.is_ok());
  const std::string body =
      "category,lat,lon,timestamp\n"
      "Eatery,40.75,-73.98,2012-04-10 12:00:00\n"
      "Eatery,40.75,-73.98,2012-04-11 12:30:00\n";
  const auto response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", body);
  ASSERT_TRUE(response.is_ok());
  ASSERT_EQ(response->status, 200) << response->body;
  ASSERT_TRUE(worker->wait_for_epoch(2, 5s));
  const ingest::SnapshotPtr snapshot = worker->hub().current();
  ASSERT_EQ(snapshot->live_checkins, 2u);
  data::UserId guest = 0;
  for (const patterns::UserMobility& entry : snapshot->mobility)
    guest = std::max(guest, entry.user);
  ASSERT_GE(guest, 3'000'000'000u);

  const auto users = http::get("127.0.0.1", server.port(), "/api/users");
  const auto crowd = http::get("127.0.0.1", server.port(), "/api/crowd/12");
  ASSERT_TRUE(users.is_ok());
  ASSERT_TRUE(crowd.is_ok());
  ASSERT_EQ(users->status, 200);
  ASSERT_EQ(crowd->status, 200);
  EXPECT_EQ(users_before->body.find(std::to_string(guest)), std::string::npos);
  EXPECT_NE(users->body.find("\"id\":" + std::to_string(guest)), std::string::npos);
  const auto epoch_of = [](const std::string& etag) {
    return etag.substr(1, etag.find('-') - 1);
  };
  EXPECT_EQ(epoch_of(users->headers.at("etag")), epoch_of(crowd->headers.at("etag")));
  EXPECT_EQ(epoch_of(users->headers.at("etag")), std::to_string(snapshot->epoch));
  server.stop();
  worker->stop();
}

TEST(IngestApiTest, CacheHoldsOnlyTheTargetsReadSinceTheLastPublish) {
  // A live worker bumps the cache on every publish. After each publish
  // the cache holds exactly the targets read since, so superseded
  // epochs never pile up behind the current one.
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  auto worker = core::make_ingest_worker(platform, config);
  http::ResponseCache cache;
  worker->hub().on_publish(
      [&cache](const ingest::PlatformSnapshot& snapshot) { cache.set_epoch(snapshot.epoch); });
  ASSERT_TRUE(worker->start().is_ok());
  http::ServerConfig server_config;
  server_config.cache = &cache;
  http::Server server(core::make_api_router(platform, {worker.get(), nullptr}), server_config);
  ASSERT_TRUE(server.start().is_ok());

  const std::vector<std::string> targets{"/api/crowd/9", "/api/crowd/12", "/api/users",
                                         "/api/flow/12/13", "/api/crowd/18", "/api/groups/12"};
  std::size_t resident = 0;
  std::uint64_t superseded = 0;
  for (std::uint64_t round = 0; round < 6; ++round) {
    const std::uint64_t epoch = worker->hub().epoch() + 1;
    const std::vector<ingest::IngestEvent> events{
        valid_event(7, 1'000 + static_cast<std::int64_t>(round) * 3'600)};
    ASSERT_EQ(worker->submit(events).accepted, 1u);
    ASSERT_TRUE(worker->wait_for_epoch(epoch, 5s));
    // The hook runs just after the swap wait_for_epoch observes.
    for (int spins = 0; cache.epoch() < epoch && spins < 5'000; ++spins)
      std::this_thread::sleep_for(1ms);
    ASSERT_EQ(cache.epoch(), epoch);
    // The publish freed exactly what the previous round left resident.
    EXPECT_EQ(cache.stats().superseded - superseded, resident);
    EXPECT_EQ(cache.stats().entries, 0u);

    // Round r reads r + 1 distinct targets, each twice (the repeat hits).
    const std::size_t reads = std::min<std::size_t>(round + 1, targets.size());
    for (std::size_t i = 0; i < reads; ++i) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        const auto response = http::get("127.0.0.1", server.port(), targets[i]);
        ASSERT_TRUE(response.is_ok());
        ASSERT_EQ(response->status, 200) << targets[i] << ": " << response->body;
      }
    }
    ASSERT_EQ(worker->hub().epoch(), epoch) << "an unplanned publish raced the reads";
    resident = cache.stats().entries;
    superseded = cache.stats().superseded;
    EXPECT_EQ(resident, reads) << "after publish " << epoch;
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  server.stop();
  worker->stop();
}

TEST(IngestApiTest, BadHeaderAndBodyAre400) {
  const core::Platform& platform = test_platform();
  auto worker = core::make_ingest_worker(platform);
  http::Server server(core::make_api_router(platform, {worker.get(), nullptr}));
  ASSERT_TRUE(server.start().is_ok());
  const auto response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest",
                                    "wrong,header\n1,2\n");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 400);
  server.stop();
}

TEST(IngestApiTest, FullQueueAnswers429) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.queue_capacity = 1;
  config.rebuild_interval = std::chrono::milliseconds(1'500);
  // Worker intentionally not started: nothing drains the queue.
  auto worker = core::make_ingest_worker(platform, config);
  http::Server server(core::make_api_router(platform, {worker.get(), nullptr}));
  ASSERT_TRUE(server.start().is_ok());

  const std::string row = "user,category,lat,lon,timestamp\n3000,Eatery,40.75,-73.98,1000\n";
  auto response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", row);
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);  // fills the queue

  response = http::fetch("127.0.0.1", server.port(), "POST", "/api/ingest", row);
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 429);
  const auto payload = json::parse(response->body);
  ASSERT_TRUE(payload.is_ok());
  EXPECT_EQ(payload->find("accepted")->as_int(), 0);
  EXPECT_EQ(payload->find("rejected")->as_int(), 1);
  // Retry-After mirrors the rebuild interval (1.5 s rounds up to 2):
  // one interval from now the worker will have drained the queue.
  ASSERT_TRUE(response->headers.contains("retry-after"));
  EXPECT_EQ(response->headers.at("retry-after"), "2");
  server.stop();
}

/// Answers `method target` through the route tree, without a socket.
http::Response dispatch(const http::Router& router, const std::string& method,
                        const std::string& path, std::string body = {}) {
  http::Request request;
  request.method = method;
  request.path = path;
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return router.dispatch(request);
}

/// The value of `series` (name plus label block) in the router's
/// /metrics scrape, or -1 when the scrape does not carry it.
double scraped(const http::Router& router, const std::string& series) {
  const std::string text = dispatch(router, "GET", "/metrics").body;
  const std::string prefix = series + " ";
  std::size_t at = text.find("\n" + prefix);
  if (at == std::string::npos) return -1;
  at += 1 + prefix.size();
  return std::stod(text.substr(at, text.find('\n', at) - at));
}

/// The invalid-row counts one POST /api/ingest leaves behind.
struct InvalidReading {
  std::int64_t answered = -1;   ///< the response body's "invalid"
  std::int64_t stats = -1;      ///< /api/ingest/stats "invalid"
  double transport = -1;        ///< crowdweb_transport_events_total, outcome invalid
};

InvalidReading post_one_bad_row(const http::Router& router) {
  const std::string body =
      "user,category,lat,lon,timestamp\n"
      "3000,Eatery,40.75,-73.98,2012-04-10 12:00:00\n"
      "3001,No Such Category,40.74,-73.99,2012-04-10 13:00:00\n";
  InvalidReading reading;
  const http::Response posted = dispatch(router, "POST", "/api/ingest", body);
  if (const auto payload = json::parse(posted.body); payload.is_ok())
    reading.answered = payload->find("invalid")->as_int();
  const http::Response stats = dispatch(router, "GET", "/api/ingest/stats");
  if (const auto payload = json::parse(stats.body); payload.is_ok())
    reading.stats = payload->find("invalid")->as_int();
  reading.transport = scraped(
      router, R"(crowdweb_transport_events_total{source="http_csv",outcome="invalid"})");
  return reading;
}

TEST(IngestApiTest, InvalidRowsAreChargedOnceAtEveryDeploymentShape) {
  const core::Platform& platform = test_platform();
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;

  // One worker behind a caller-built pipeline, wired the way the
  // end-to-end benchmark wires it: metrics only, no other hook.
  telemetry::Registry piped_metrics;
  config.metrics = &piped_metrics;
  auto piped = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(piped->start().is_ok());
  transport::PipelineConfig pipeline_config;
  pipeline_config.metrics = &piped_metrics;
  transport::IngestPipeline pipeline(
      [worker = piped.get()](std::span<const ingest::IngestEvent> events) {
        return worker->submit(events);
      },
      pipeline_config);
  core::ApiOptions piped_options;
  piped_options.ingest = piped.get();
  piped_options.metrics = &piped_metrics;
  piped_options.pipeline = &pipeline;
  const http::Router piped_router = core::make_api_router(platform, piped_options);

  // One worker, no pipeline: the router builds its own.
  telemetry::Registry single_metrics;
  config.metrics = &single_metrics;
  auto single = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(single->start().is_ok());
  core::ApiOptions single_options;
  single_options.ingest = single.get();
  single_options.metrics = &single_metrics;
  const http::Router single_router = core::make_api_router(platform, single_options);

  // Four shards.
  telemetry::Registry sharded_metrics;
  shard::ShardRouterConfig shard_config;
  shard_config.shard_count = 4;
  shard_config.worker = config;
  shard_config.metrics = &sharded_metrics;
  auto shards = shard::ShardRouter::create(platform, shard_config);
  ASSERT_TRUE(shards.is_ok()) << shards.status().to_string();
  ASSERT_TRUE((*shards)->start().is_ok());
  shard::ShardApiOptions shard_api;
  shard_api.metrics = &sharded_metrics;
  const http::Router sharded_router = shard::make_shard_api_router(**shards, shard_api);

  const InvalidReading readings[] = {post_one_bad_row(piped_router),
                                     post_one_bad_row(single_router),
                                     post_one_bad_row(sharded_router)};
  // crowdweb_ingest_invalid_total: every deployment charges skipped rows
  // to its (first) worker, shard="0", on the scrape.
  const std::string invalid_series = R"(crowdweb_ingest_invalid_total{shard="0"})";
  const double counters[] = {scraped(piped_router, invalid_series),
                             scraped(single_router, invalid_series),
                             scraped(sharded_router, invalid_series)};
  const char* const names[] = {"one worker + pipeline", "one worker", "4 shards"};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(names[i]);
    EXPECT_EQ(readings[i].answered, 1);
    EXPECT_EQ(readings[i].stats, 1);
    EXPECT_EQ(counters[i], 1.0);
    EXPECT_EQ(readings[i].transport, 1.0);
  }
  (*shards)->stop();
  single->stop();
  piped->stop();
}

}  // namespace
}  // namespace crowdweb
