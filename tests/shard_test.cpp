// Sharding suite: deterministic user→shard assignment, scatter-gather
// equivalence (an N-shard deployment must answer crowd/flow/pattern
// queries exactly like a single-process worker over the same corpus,
// across interleaved ingest and a kill-and-restart of the store), and
// the degraded-read contract when a shard is down.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/platform.hpp"
#include "http/cache.hpp"
#include "http/router.hpp"
#include "ingest/worker.hpp"
#include "json/json.hpp"
#include "shard/api.hpp"
#include "shard/hash.hpp"
#include "shard/router.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/metrics.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace crowdweb {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kError); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("crowdweb_shard_test_" + tag)) {
    fs::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// One platform for every test — phases 1-3 run once per binary.
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

/// The pipeline every shard runs, plus what the single-worker baseline
/// needs to build its own seed: the platform's grid cell and crowd
/// options, with the grid pinned to the experiment box. The baseline
/// stays on the unseeded constructor, so a built seed is checked
/// against the shards' adopted slices.
ingest::IngestPipelineConfig pinned_pipeline() {
  const core::Platform& platform = test_platform();
  ingest::IngestPipelineConfig pipeline = core::ingest_pipeline_config(platform);
  pipeline.mining_threads = 1;
  pipeline.grid_cell_meters = platform.config().grid_cell_meters;
  pipeline.crowd = platform.config().crowd;
  pipeline.fixed_grid_bounds = platform.experiment_dataset().bounds();
  return pipeline;
}

ingest::IngestWorkerConfig worker_config() {
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  return config;
}

shard::ShardRouterConfig router_config(std::size_t shards) {
  shard::ShardRouterConfig config;
  config.shard_count = shards;
  config.worker = worker_config();
  return config;
}

/// Live traffic at *existing* venues (position + category of a venue
/// already in the corpus), so every shard and the baseline resolve the
/// event to the same venue id and no shard-local venues are minted —
/// the precondition for exact N-vs-1 equivalence. Users alternate
/// between corpus users and fresh ids so re-mining and new-user paths
/// are both exercised.
std::vector<ingest::IngestEvent> venue_traffic(std::size_t count, std::size_t start = 0) {
  const data::Dataset& dataset = test_platform().experiment_dataset();
  const auto venues = dataset.venues();
  const auto users = dataset.users();
  std::vector<ingest::IngestEvent> events;
  events.reserve(count);
  for (std::size_t i = start; i < start + count; ++i) {
    const data::Venue& venue = venues[(i * 7) % venues.size()];
    ingest::IngestEvent event;
    event.user = (i % 3 == 0) ? static_cast<data::UserId>(50'000 + i % 5)
                              : users[(i * 13) % users.size()];
    event.category = venue.category;
    event.position = venue.position;
    event.timestamp = static_cast<std::int64_t>(1'334'000'000 + i * 300);
    events.push_back(event);
  }
  return events;
}

void feed_and_settle(ingest::IngestWorker& worker,
                     std::span<const ingest::IngestEvent> events,
                     std::uint64_t expected_live) {
  ASSERT_EQ(worker.submit(events).accepted, events.size());
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    const ingest::SnapshotPtr snapshot = worker.hub().current();
    if (snapshot != nullptr && snapshot->live_checkins >= expected_live) return;
    std::this_thread::sleep_for(5ms);
  }
  FAIL() << "live corpus never reached " << expected_live << " check-ins";
}

void feed_and_settle(shard::ShardRouter& router,
                     std::span<const ingest::IngestEvent> events,
                     std::size_t expected_live) {
  ASSERT_EQ(router.submit(events).accepted, events.size());
  ASSERT_TRUE(router.wait_for_live(expected_live, 10s))
      << "sharded live corpus never reached " << expected_live << " check-ins";
}

http::Request get_request(std::string path) {
  http::Request request;
  request.method = "GET";
  request.path = std::move(path);
  return request;
}

std::string body_of(const http::Router& router, const std::string& path) {
  const http::Response response = router.dispatch(get_request(path));
  EXPECT_EQ(response.status, 200) << path << ": " << response.body;
  return response.body;
}

void expect_crowd_eq(const crowd::CrowdModel& a, const crowd::CrowdModel& b) {
  ASSERT_EQ(a.window_count(), b.window_count());
  ASSERT_EQ(a.total_placements(), b.total_placements());
  for (int w = 0; w < a.window_count(); ++w) {
    const auto pa = a.placements(w);
    const auto pb = b.placements(w);
    ASSERT_EQ(pa.size(), pb.size()) << "window " << w;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].user, pb[i].user) << "window " << w << " slot " << i;
      ASSERT_EQ(pa[i].label, pb[i].label);
      ASSERT_EQ(pa[i].venue, pb[i].venue);
      ASSERT_EQ(pa[i].cell, pb[i].cell);
      ASSERT_EQ(pa[i].pattern_support, pb[i].pattern_support);
    }
  }
}

/// Merged per-shard mobility must equal the baseline's table: same
/// users in the same order, same mined patterns.
void expect_merged_mobility_eq(const core::PinnedView& view,
                               const patterns::MobilityTable& reference) {
  std::vector<const patterns::UserMobility*> merged;
  {
    std::vector<const patterns::MobilityTable*> parts;
    for (const ingest::SnapshotPtr& pin : view.pins)
      if (pin != nullptr) parts.push_back(&pin->mobility);
    std::vector<std::size_t> cursor(parts.size(), 0);
    while (true) {
      std::size_t pick = parts.size();
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (cursor[i] >= parts[i]->size()) continue;
        if (pick == parts.size() ||
            (*parts[i])[cursor[i]].user < (*parts[pick])[cursor[pick]].user)
          pick = i;
      }
      if (pick == parts.size()) break;
      merged.push_back(&(*parts[pick])[cursor[pick]++]);
    }
  }
  ASSERT_EQ(merged.size(), reference.size());
  std::size_t i = 0;
  for (const patterns::UserMobility& expected : reference) {
    const patterns::UserMobility& actual = *merged[i++];
    ASSERT_EQ(actual.user, expected.user);
    ASSERT_EQ(actual.recorded_days, expected.recorded_days);
    ASSERT_EQ(actual.patterns.size(), expected.patterns.size()) << "user " << actual.user;
  }
}

double metric_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
  return -1.0;
}

// ------------------------------------------------------------ hashing

TEST(ShardHash, PinnedSplitmix64Values) {
  // These constants pin the documented splitmix64 assignment. If this
  // test fails, the hash function changed — which silently reassigns
  // every user to a different shard and corrupts recovered deployments.
  EXPECT_EQ(shard::stable_hash64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(shard::stable_hash64(1), 0x910a2dec89025cc1ull);
  EXPECT_EQ(shard::stable_hash64(2), 0x975835de1c9756ceull);
  EXPECT_EQ(shard::stable_hash64(42), 0xbdd732262feb6e95ull);
  EXPECT_EQ(shard::stable_hash64(2'999'999'999ull), 0xf92bc4e74dded745ull);
}

TEST(ShardHash, PinnedAssignments) {
  EXPECT_EQ(shard::shard_of_user(0, 4), 3u);
  EXPECT_EQ(shard::shard_of_user(1, 4), 1u);
  EXPECT_EQ(shard::shard_of_user(2, 4), 2u);
  EXPECT_EQ(shard::shard_of_user(3, 4), 1u);
  EXPECT_EQ(shard::shard_of_user(1234, 4), 3u);
  EXPECT_EQ(shard::shard_of_user(5000, 8), 2u);
  // Degenerate layouts: everything on shard 0.
  EXPECT_EQ(shard::shard_of_user(1234, 1), 0u);
  EXPECT_EQ(shard::shard_of_user(1234, 0), 0u);
}

TEST(ShardHash, EpochVectorMixing) {
  const std::vector<std::uint64_t> a{3, 5, 2};
  const std::vector<std::uint64_t> b{5, 3, 2};  // permutation
  const std::vector<std::uint64_t> c{3, 5, 3};  // one shard advanced
  EXPECT_NE(shard::mix_epoch_vector(a), shard::mix_epoch_vector(b));
  EXPECT_NE(shard::mix_epoch_vector(a), shard::mix_epoch_vector(c));
  EXPECT_EQ(shard::mix_epoch_vector(a), shard::mix_epoch_vector(a));
}

// ------------------------------------------------------ layout / routing

TEST(ShardRouter, HashLayoutPartitionsAllUsers) {
  auto router = shard::ShardRouter::create(test_platform(), router_config(4));
  ASSERT_TRUE(router.is_ok()) << router.status().to_string();
  const data::Dataset& experiment = test_platform().experiment_dataset();
  std::size_t seeded_users = 0;
  std::size_t seeded_checkins = 0;
  ASSERT_TRUE((*router)->start().is_ok());
  for (std::size_t id = 0; id < (*router)->shard_count(); ++id) {
    const ingest::SnapshotPtr snapshot = (*router)->shard(id).snapshot();
    ASSERT_NE(snapshot, nullptr);
    seeded_users += snapshot->dataset.user_count();
    seeded_checkins += snapshot->dataset.checkin_count();
    for (const data::UserId user : snapshot->dataset.users())
      EXPECT_EQ(shard::shard_of_user(user, 4), id) << "user " << user;
  }
  EXPECT_EQ(seeded_users, experiment.user_count());
  EXPECT_EQ(seeded_checkins, experiment.checkin_count());
  (*router)->stop();
}

TEST(ShardRouter, GuestIdsStayFreshAcrossARestartWhenTheLastGuestHashesAway) {
  // Shard 0 allocates every guest id, but a guest's events hash to any
  // shard, so shard 0's own WAL may never see the last id it handed
  // out. start() must raise its allocator past every shard's.
  ScratchDir dir("guest_ids");
  shard::ShardRouterConfig config = router_config(4);
  config.worker.store.dir = dir.str();
  data::UserId last_guest = 0;
  {
    auto before = shard::ShardRouter::create(test_platform(), config);
    ASSERT_TRUE(before.is_ok()) << before.status().to_string();
    ASSERT_TRUE((*before)->start().is_ok());
    do {
      last_guest = (*before)->shard(0).worker().allocate_guest_id();
    } while (shard::shard_of_user(last_guest, 4) == 0);
    const data::Venue& venue = test_platform().experiment_dataset().venues()[0];
    ingest::IngestEvent event;
    event.user = last_guest;
    event.category = venue.category;
    event.position = venue.position;
    event.timestamp = 1'334'000'000;
    feed_and_settle(**before, {&event, 1}, 1);
    (*before)->stop();
  }

  auto after = shard::ShardRouter::create(test_platform(), config);
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  ASSERT_TRUE((*after)->start().is_ok());
  EXPECT_GT((*after)->shard(0).worker().allocate_guest_id(), last_guest);
  (*after)->stop();
}

// ------------------------------------------------- N-vs-1 equivalence

/// The heart of the PR: a 4-shard deployment and a single worker fed
/// the same interleaved live stream must be indistinguishable — same
/// merged crowd model, same mobility, and byte-identical JSON/SVG on
/// every scatter-gather route.
TEST(ShardEquivalence, FourShardsMatchSingleWorkerAcrossInterleavedIngest) {
  const core::Platform& platform = test_platform();

  auto router_result = shard::ShardRouter::create(platform, router_config(4));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  ASSERT_TRUE(router.start().is_ok());

  ingest::IngestWorker single(platform.experiment_dataset(), platform.mobility(),
                              platform.taxonomy(), pinned_pipeline(), worker_config());
  ASSERT_TRUE(single.start().is_ok());

  core::ApiOptions single_options;
  single_options.ingest = &single;
  const http::Router single_api = core::make_api_router(platform, single_options);
  const http::Router shard_api = shard::make_shard_api_router(router);

  // Seed state (epoch 1 everywhere): the batch-backed routes must
  // already agree, including /api/users (live tables == batch mining).
  EXPECT_EQ(body_of(shard_api, "/api/users"), body_of(single_api, "/api/users"));
  const data::UserId probe = platform.experiment_dataset().users()[0];
  EXPECT_EQ(body_of(shard_api, crowdweb::format("/api/user/{}/patterns", probe)),
            body_of(single_api, crowdweb::format("/api/user/{}/patterns", probe)));

  // Interleave three live chunks through both deployments.
  std::size_t live = 0;
  for (const std::size_t chunk : {40u, 25u, 35u}) {
    const auto events = venue_traffic(chunk, live);
    feed_and_settle(router, events, live + chunk);
    feed_and_settle(single, events, live + chunk);
    live += chunk;
  }

  const ingest::SnapshotPtr baseline = single.hub().current();
  ASSERT_NE(baseline, nullptr);
  const core::ViewPtr merged = router.merged();
  ASSERT_FALSE(merged->degraded);
  ASSERT_NE(merged->crowd, nullptr);
  EXPECT_EQ(merged->live_checkins, baseline->live_checkins);
  expect_crowd_eq(*merged->crowd, baseline->crowd);
  expect_merged_mobility_eq(*merged, baseline->mobility);

  // Byte-identical wire responses on every crowd-facing route.
  const int windows = baseline->crowd.window_count();
  ASSERT_GT(windows, 1);
  const int w = windows / 2;
  for (const std::string& path :
       {crowdweb::format("/api/crowd/{}", w),
        crowdweb::format("/api/crowd/{}/geojson", w),
        crowdweb::format("/api/crowd/{}/map.svg", w),
        crowdweb::format("/api/groups/{}", w),
        crowdweb::format("/api/flow/{}/{}", w - 1, w),
        crowdweb::format("/api/flow/{}/{}/map.svg", w - 1, w),
        std::string("/api/rhythm.svg")}) {
    EXPECT_EQ(body_of(shard_api, path), body_of(single_api, path)) << path;
  }

  // ...and on every user-facing route: both deployments render them
  // from the live epoch (re-mined users, guest ids), never from the
  // frozen batch build.
  EXPECT_EQ(body_of(shard_api, "/api/users"), body_of(single_api, "/api/users"));
  EXPECT_EQ(body_of(shard_api, "/api/communities"), body_of(single_api, "/api/communities"));
  ASSERT_NE(baseline->mobility.find(50'000), nullptr);
  for (const patterns::UserMobility& entry : baseline->mobility) {
    for (const std::string& path :
         {crowdweb::format("/api/user/{}/patterns", entry.user),
          crowdweb::format("/api/user/{}/graph.svg", entry.user),
          crowdweb::format("/api/user/{}/timeline.svg", entry.user),
          crowdweb::format("/api/predict/{}", entry.user)}) {
      EXPECT_EQ(body_of(shard_api, path), body_of(single_api, path)) << path;
    }
  }

  single.stop();
  router.stop();
}

TEST(ShardEquivalence, OutOfBoxEventRendersTheSameCellsAtOneWorkerAndFourShards) {
  // One event north of the experiment box. Every worker's grid is fixed
  // at its seed, so it clamps to an edge cell at every shard count
  // instead of growing one deployment's grid. The user hashes to shard
  // 0: the live venue the event mints is shard-local, and labels read
  // shard 0's corpus.
  const core::Platform& platform = test_platform();
  auto single = core::make_ingest_worker(platform, worker_config());
  ASSERT_TRUE(single->start().is_ok());
  auto router_result = shard::ShardRouter::create(platform, router_config(4));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  ASSERT_TRUE(router.start().is_ok());

  const data::Dataset& experiment = platform.experiment_dataset();
  const auto users = experiment.users();
  const auto user = std::find_if(users.begin(), users.end(), [](data::UserId id) {
    return shard::shard_of_user(id, 4) == 0;
  });
  ASSERT_NE(user, users.end());
  const geo::BoundingBox box = experiment.bounds();
  ingest::IngestEvent event;
  event.user = *user;
  event.category = experiment.venues()[0].category;
  event.position = {box.max_lat + 0.05, (box.min_lon + box.max_lon) / 2.0};
  event.timestamp = 1'334'000'000;
  feed_and_settle(*single, {&event, 1}, 1);
  feed_and_settle(router, {&event, 1}, 1);

  core::ApiOptions single_options;
  single_options.ingest = single.get();
  const http::Router single_api = core::make_api_router(platform, single_options);
  const http::Router shard_api = shard::make_shard_api_router(router);
  const auto grid_of = [](const http::Router& api) {
    const auto status = json::parse(body_of(api, "/api/status"));
    EXPECT_TRUE(status.is_ok());
    return status.is_ok() ? json::dump(*status->find("grid")) : std::string();
  };
  EXPECT_EQ(grid_of(shard_api), grid_of(single_api));
  EXPECT_EQ(router.merged()->grid->rows(), platform.grid().rows());
  for (int w = 0; w < platform.crowd_model().window_count(); ++w) {
    const std::string path = crowdweb::format("/api/crowd/{}", w);
    EXPECT_EQ(body_of(shard_api, path), body_of(single_api, path)) << path;
  }

  single->stop();
  router.stop();
}

TEST(ShardEquivalence, SurvivesKillAndRestartOfStore) {
  const core::Platform& platform = test_platform();
  ScratchDir dir("restart");

  shard::ShardRouterConfig config = router_config(3);
  config.worker.store.dir = dir.str();

  const auto chunk1 = venue_traffic(30);
  const auto chunk2 = venue_traffic(30, 30);

  {
    auto before = shard::ShardRouter::create(platform, config);
    ASSERT_TRUE(before.is_ok()) << before.status().to_string();
    ASSERT_TRUE((*before)->start().is_ok());
    feed_and_settle(**before, chunk1, chunk1.size());
    (*before)->stop();  // hard stop: all shards go down together
  }

  // Restart over the same store root: every shard recovers its WAL.
  auto after = shard::ShardRouter::create(platform, config);
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  ASSERT_TRUE((*after)->start().is_ok());
  ASSERT_TRUE((*after)->wait_for_live(chunk1.size(), 10s));
  feed_and_settle(**after, chunk2, chunk1.size() + chunk2.size());

  // Baseline: one worker, no crash, same stream.
  ingest::IngestWorker single(platform.experiment_dataset(), platform.mobility(),
                              platform.taxonomy(), pinned_pipeline(), worker_config());
  ASSERT_TRUE(single.start().is_ok());
  feed_and_settle(single, chunk1, chunk1.size());
  feed_and_settle(single, chunk2, chunk1.size() + chunk2.size());

  const ingest::SnapshotPtr baseline = single.hub().current();
  const core::ViewPtr merged = (*after)->merged();
  ASSERT_NE(merged->crowd, nullptr);
  expect_crowd_eq(*merged->crowd, baseline->crowd);
  expect_merged_mobility_eq(*merged, baseline->mobility);

  single.stop();
  (*after)->stop();
}

// ------------------------------------------------------ degraded reads

TEST(ShardDegraded, DownShardYields200WithMarkerAndCounter) {
  telemetry::Registry metrics;
  shard::ShardRouterConfig config = router_config(4);
  config.metrics = &metrics;

  auto router_result = shard::ShardRouter::create(test_platform(), std::move(config));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  ASSERT_TRUE(router.start().is_ok());
  router.shard(2).stop();  // the shard crashes
  EXPECT_EQ(router.up_count(), 3u);

  shard::ShardApiOptions options;
  options.metrics = &metrics;
  const http::Router api = shard::make_shard_api_router(router, options);

  const core::ViewPtr merged = router.merged();
  ASSERT_TRUE(merged->degraded);
  ASSERT_EQ(merged->missing, std::vector<std::size_t>{2});
  const int w = merged->crowd->window_count() / 2;

  // Crowd reads answer 200 with an explicit marker, not a 500.
  const http::Response crowd = api.dispatch(get_request(crowdweb::format("/api/crowd/{}", w)));
  EXPECT_EQ(crowd.status, 200);
  EXPECT_NE(crowd.body.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(crowd.body.find("\"missing_shards\":[2]"), std::string::npos);
  const http::Response users = api.dispatch(get_request("/api/users"));
  EXPECT_EQ(users.status, 200);
  EXPECT_NE(users.body.find("\"degraded\":true"), std::string::npos);

  // Status reports the hole: epoch 0 in the vector, shard marked down.
  const auto status = json::parse(api.dispatch(get_request("/api/status")).body);
  ASSERT_TRUE(status.is_ok());
  EXPECT_TRUE(status->find("degraded")->as_bool());
  EXPECT_EQ(status->find("epoch_vector")->as_array()[2].as_int(), 0);
  EXPECT_FALSE(status->find("shards")->as_array()[2].find("up")->as_bool());
  EXPECT_TRUE(status->find("shards")->as_array()[0].find("up")->as_bool());
  EXPECT_GT(status->find("shards")->as_array()[0].find("corpus")->find("checkins")->as_int(),
            0);

  // Writes routed to the dead shard are refused, not dropped.
  std::vector<ingest::IngestEvent> doomed;
  for (data::UserId user = 0; doomed.empty(); ++user) {
    if (shard::shard_of_user(user, 4) == 2) {
      ingest::IngestEvent event;
      event.user = user;
      event.category = 1;
      event.position = test_platform().experiment_dataset().venues()[0].position;
      event.timestamp = 1'334'000'000;
      doomed.push_back(event);
    }
  }
  const ingest::SubmitResult result = router.submit(doomed);
  EXPECT_EQ(result.accepted, 0u);
  EXPECT_EQ(result.rejected, 1u);

  // The degraded-read counter moved.
  const std::string scrape = telemetry::render_prometheus(metrics);
  EXPECT_GE(metric_value(scrape, "crowdweb_shard_degraded_reads_total"), 2.0);
  EXPECT_EQ(metric_value(scrape, "crowdweb_shard_count"), 4.0);

  router.stop();
}

// --------------------------------------------- epoch vector / caching

TEST(ShardEpochs, EtagEmbedsDottedVectorAndRekeysOnPublish) {
  const core::Platform& platform = test_platform();
  http::ResponseCache cache;

  auto router_result = shard::ShardRouter::create(platform, router_config(2));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  router.rekey_cache_on_publish(&cache);
  ASSERT_TRUE(router.start().is_ok());

  EXPECT_EQ(router.epoch_tag(), "1.1");
  EXPECT_EQ(cache.epoch(), router.combined_epoch());

  http::Response response = http::Response::json(200, "{\"x\":1}");
  const auto entry = cache.insert("GET", "/api/crowd/9", response);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->etag.rfind("\"1.1-", 0), 0u) << entry->etag;

  // Advance exactly one shard; the vector, the tag, and the cache key
  // must all move.
  const std::uint64_t old_epoch = cache.epoch();
  data::UserId user = 0;
  while (shard::shard_of_user(user, 2) != 0) ++user;
  const data::Venue& venue = platform.experiment_dataset().venues()[0];
  ingest::IngestEvent event;
  event.user = user;
  event.category = venue.category;
  event.position = venue.position;
  event.timestamp = 1'334'000'000;
  ASSERT_EQ(router.submit({&event, 1}).accepted, 1u);
  ASSERT_TRUE(router.shard(0).worker().wait_for_epoch(2, 10s));

  EXPECT_EQ(router.epoch_vector(), (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(router.epoch_tag(), "2.1");
  EXPECT_NE(cache.epoch(), old_epoch);
  EXPECT_EQ(cache.epoch(), router.combined_epoch());
  const auto entry2 = cache.insert("GET", "/api/crowd/9", response);
  EXPECT_EQ(entry2->etag.rfind("\"2.1-", 0), 0u) << entry2->etag;
  // The old entry is unreachable at the new epoch key.
  EXPECT_EQ(cache.lookup("GET", "/api/crowd/9")->etag, entry2->etag);

  router.stop();
}

TEST(ShardEpochs, ConcurrentPublishesLeaveTheNewestVectorInstalled) {
  // Every shard publishes at once, round after round. Each publish hook
  // re-keys the cache; whichever hook runs last must install the newest
  // vector, with its key and tag from the same read.
  const core::Platform& platform = test_platform();
  http::ResponseCache cache;
  auto router_result = shard::ShardRouter::create(platform, router_config(4));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  router.rekey_cache_on_publish(&cache);
  ASSERT_TRUE(router.start().is_ok());

  // One event per shard per round, so all four publish together.
  std::vector<std::vector<ingest::IngestEvent>> per_shard(4);
  for (std::size_t i = 0; i < 4'000; ++i) {
    const std::vector<ingest::IngestEvent> one = venue_traffic(1, i);
    std::vector<ingest::IngestEvent>& slice = per_shard[router.owner_of(one.front())];
    if (slice.size() < 40) slice.push_back(one.front());
  }
  for (const auto& slice : per_shard) ASSERT_EQ(slice.size(), 40u);

  std::size_t live = 0;
  for (std::size_t round = 0; round < 40; ++round) {
    std::vector<std::thread> producers;
    for (std::size_t k = 0; k < 4; ++k) {
      producers.emplace_back([&, k] {
        (void)router.shard(k).worker().submit({&per_shard[k][round], 1});
      });
    }
    for (std::thread& producer : producers) producer.join();
    live += 4;
    ASSERT_TRUE(router.wait_for_live(live, 10s));
    // Hooks run just after each swap; give the last one a moment, then
    // the cache must hold the vector every shard now reports.
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (cache.epoch() != router.combined_epoch() &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    ASSERT_EQ(cache.epoch(), router.combined_epoch()) << "round " << round;
    const auto entry = cache.insert("GET", "/probe", http::Response::json(200, "{}"));
    ASSERT_EQ(entry->etag.rfind("\"" + router.epoch_tag() + "-", 0), 0u)
        << entry->etag << " round " << round;
  }
  router.stop();
}

TEST(ShardMetrics, GaugesFollowEveryPublishWithoutARead) {
  // Rows that all hash to one shard: its publish hook alone must move
  // the live and lag gauges on /metrics, with no read merging in between.
  const core::Platform& platform = test_platform();
  telemetry::Registry registry;
  shard::ShardRouterConfig config = router_config(4);
  config.metrics = &registry;
  auto router_result = shard::ShardRouter::create(platform, config);
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  ASSERT_TRUE(router.start().is_ok());
  const double merges_before =
      metric_value(telemetry::render_prometheus(registry), "crowdweb_shard_merges_total");

  std::vector<ingest::IngestEvent> rows;
  std::size_t target = router.shard_count();
  for (std::size_t i = 0; rows.size() < 24; ++i) {
    const ingest::IngestEvent event = venue_traffic(1, i).front();
    if (target == router.shard_count()) target = router.owner_of(event);
    if (router.owner_of(event) == target) rows.push_back(event);
  }
  ASSERT_EQ(router.submit(rows).accepted, rows.size());

  const std::string live_series =
      "crowdweb_shard_live_checkins{shard=\"" + std::to_string(target) + "\"}";
  // The epochs the lags are checked against are read before and after
  // the scrape, and the scrape is retaken until the two reads agree: a
  // publish in between would make the expected lag disagree with it.
  const auto shard_epochs = [&router] {
    std::vector<std::uint64_t> epochs;
    for (std::size_t k = 0; k < router.shard_count(); ++k)
      epochs.push_back(router.shard(k).epoch());
    return epochs;
  };
  std::string scrape;
  std::vector<std::uint64_t> epochs;
  bool epochs_agree = false;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::vector<std::uint64_t> before = shard_epochs();
    scrape = telemetry::render_prometheus(registry);
    epochs = shard_epochs();
    epochs_agree = before == epochs;
    if (epochs_agree && metric_value(scrape, live_series) == static_cast<double>(rows.size()))
      break;
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(epochs_agree);
  ASSERT_EQ(metric_value(scrape, live_series), static_cast<double>(rows.size())) << scrape;
  const std::uint64_t target_epoch = epochs[target];
  ASSERT_GT(target_epoch, 1u);
  for (std::size_t k = 0; k < router.shard_count(); ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const std::string label = "{shard=\"" + std::to_string(k) + "\"}";
    EXPECT_EQ(metric_value(scrape, "crowdweb_shard_up" + label), 1.0);
    EXPECT_EQ(metric_value(scrape, "crowdweb_shard_epoch_lag" + label),
              static_cast<double>(target_epoch - epochs[k]));
    if (k != target) {
      EXPECT_GT(metric_value(scrape, "crowdweb_shard_epoch_lag" + label), 0.0);
    }
  }
  EXPECT_EQ(metric_value(scrape, "crowdweb_shard_merges_total"), merges_before);

  // A stopped deployment reads down with no live events.
  router.stop();
  const std::string stopped = telemetry::render_prometheus(registry);
  EXPECT_EQ(metric_value(stopped, "crowdweb_shard_up{shard=\"0\"}"), 0.0);
  EXPECT_EQ(metric_value(stopped, live_series), 0.0);
}

TEST(ShardStatus, ReportsPerShardBlocksAndAggregates) {
  auto router_result = shard::ShardRouter::create(test_platform(), router_config(2));
  ASSERT_TRUE(router_result.is_ok()) << router_result.status().to_string();
  shard::ShardRouter& router = **router_result;
  ASSERT_TRUE(router.start().is_ok());
  const http::Router api = shard::make_shard_api_router(router);

  const auto status = json::parse(body_of(api, "/api/status"));
  ASSERT_TRUE(status.is_ok());
  const auto& shards = status->find("shards")->as_array();
  ASSERT_EQ(shards.size(), 2u);
  std::size_t users = 0;
  for (const auto& block : shards) {
    EXPECT_TRUE(block.find("up")->as_bool());
    EXPECT_EQ(block.find("epoch")->as_int(), 1);
    users += static_cast<std::size_t>(block.find("corpus")->find("users")->as_int());
    EXPECT_GE(block.find("queue")->find("capacity")->as_int(), 1);
  }
  EXPECT_EQ(users, test_platform().experiment_dataset().user_count());
  EXPECT_EQ(status->find("epoch_vector")->as_array().size(), 2u);
  EXPECT_EQ(status->find("epoch_tag")->as_string(), "1.1");
  EXPECT_FALSE(status->find("degraded")->as_bool());
  EXPECT_NE(status->find("ingest"), nullptr);

  router.stop();
}

// ------------------------------------------------------ route surface

/// Every GET route the API documents (SSE aside: sharded deployments
/// do not stream), with valid parameters for `user`.
std::vector<std::string> documented_reads(data::UserId user) {
  std::vector<std::string> paths = {"/",
                                    "/api/status",
                                    "/metrics",
                                    "/api/shards",
                                    "/api/users",
                                    "/api/crowd/12",
                                    "/api/crowd/12/map.svg",
                                    "/api/crowd/12/geojson",
                                    "/api/groups/12",
                                    "/api/flow/11/12",
                                    "/api/flow/11/12/map.svg",
                                    "/api/animation.svg",
                                    "/api/rhythm.svg",
                                    "/api/communities",
                                    "/api/ingest/stats",
                                    "/api/store/stats"};
  for (const char* route : {"patterns", "graph.svg", "timeline.svg"})
    paths.push_back(crowdweb::format("/api/user/{}/{}", user, route));
  paths.push_back(crowdweb::format("/api/predict/{}", user));
  return paths;
}

std::vector<std::string> keys_of(const std::string& body) {
  const auto parsed = json::parse(body);
  EXPECT_TRUE(parsed.is_ok());
  std::vector<std::string> keys;
  if (parsed.is_ok())
    for (const auto& [key, value] : parsed->as_object()) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(RouteSurface, OneWorkerAndFourShardsServeEveryRoute) {
  const core::Platform& platform = test_platform();
  ScratchDir single_dir("surface_single");
  ScratchDir shard_dir("surface_shards");
  telemetry::Registry single_metrics;
  telemetry::Registry shard_metrics;

  ingest::IngestWorkerConfig single_config = worker_config();
  single_config.store.dir = single_dir.str();
  auto single = core::make_ingest_worker(platform, single_config);
  ASSERT_TRUE(single->start().is_ok());
  core::ApiOptions single_options;
  single_options.ingest = single.get();
  single_options.metrics = &single_metrics;
  single_options.stream = true;
  const http::Router single_api = core::make_api_router(platform, single_options);
  // The SSE subscribe routes (one worker only) open with the current
  // epoch and window.
  const http::Response epochs = single_api.dispatch(get_request("/api/stream/epochs"));
  EXPECT_EQ(epochs.status, 200);
  EXPECT_NE(epochs.body.find("event: epoch"), std::string::npos) << epochs.body;
  const http::Response crowd = single_api.dispatch(get_request("/api/stream/crowd/12"));
  EXPECT_EQ(crowd.status, 200);
  EXPECT_NE(crowd.body.find("event: crowd"), std::string::npos) << crowd.body;

  shard::ShardRouterConfig config = router_config(4);
  config.worker.store.dir = shard_dir.str();
  auto router = shard::ShardRouter::create(platform, std::move(config));
  ASSERT_TRUE(router.is_ok()) << router.status().to_string();
  ASSERT_TRUE((*router)->start().is_ok());
  shard::ShardApiOptions shard_options;
  shard_options.metrics = &shard_metrics;
  const http::Router shard_api = shard::make_shard_api_router(**router, shard_options);

  // The /api/status mining block, before any event: the same keys and
  // the same values at 1 and 4 shards (the 4-shard pattern set sums the
  // shards' slices of the one seed table).
  const auto mining_of = [](const http::Router& api) {
    const auto status = json::parse(body_of(api, "/api/status"));
    EXPECT_TRUE(status.is_ok());
    const json::Value* mining = status.is_ok() ? status->find("mining") : nullptr;
    EXPECT_NE(mining, nullptr);
    return mining != nullptr ? *mining : json::Value{};
  };
  const json::Value single_mining = mining_of(single_api);
  const json::Value shard_mining = mining_of(shard_api);
  EXPECT_EQ(keys_of(json::dump(single_mining)),
            (std::vector<std::string>{"max_patterns", "min_support", "pattern_set"}));
  const json::Value* pattern_set = single_mining.find("pattern_set");
  ASSERT_NE(pattern_set, nullptr);
  EXPECT_EQ(keys_of(json::dump(*pattern_set)),
            (std::vector<std::string>{"bytes", "entries", "patterns"}));
  EXPECT_EQ(pattern_set->find("entries")->as_int(),
            static_cast<std::int64_t>(platform.mobility().size()));
  EXPECT_EQ(pattern_set->find("bytes")->as_int(),
            static_cast<std::int64_t>(platform.mobility().stats().bytes));
  EXPECT_EQ(json::dump(single_mining), json::dump(shard_mining));

  const data::UserId user = platform.experiment_dataset().users()[0];
  for (const http::Router* api : {&single_api, &shard_api}) {
    const char* name = api == &single_api ? "1 worker" : "4 shards";
    for (const std::string& path : documented_reads(user)) {
      const http::Response response = api->dispatch(get_request(path));
      EXPECT_GE(response.status, 200) << name << " " << path;
      EXPECT_LT(response.status, 300) << name << " " << path << ": " << response.body;
    }
    http::Request ingest = get_request("/api/ingest");
    ingest.method = "POST";
    ingest.body = "category,lat,lon,timestamp\nEatery,40.75,-73.98,2012-04-10 12:00:00\n";
    EXPECT_EQ(api->dispatch(ingest).status, 200) << name;
    http::Request analyze = get_request("/api/analyze");
    analyze.method = "POST";
    analyze.body = ingest.body;
    EXPECT_EQ(api->dispatch(analyze).status, 200) << name;
    http::Request checkpoint = get_request("/api/admin/checkpoint");
    checkpoint.method = "POST";
    EXPECT_EQ(api->dispatch(checkpoint).status, 200) << name;
  }

  // One /api/status schema at every shard count.
  const std::string single_status = body_of(single_api, "/api/status");
  EXPECT_EQ(keys_of(single_status), keys_of(body_of(shard_api, "/api/status")));
  const auto status = json::parse(single_status);
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(status->find("shards")->as_array().size(), 1u);
  EXPECT_EQ(status->find("epoch_vector")->as_array().size(), 1u);
  const std::int64_t epoch = status->find("epoch_vector")->as_array()[0].as_int();
  EXPECT_EQ(status->find("epoch_tag")->as_string(), std::to_string(epoch));

  single->stop();
  (*router)->stop();
}

TEST(RouteSurface, StaticBuildServesEveryReadRoute) {
  const http::Router api = core::make_api_router(test_platform());
  const data::UserId user = test_platform().experiment_dataset().users()[0];
  for (const std::string& path : documented_reads(user)) {
    // No registry, and no worker behind the ingest and store routes.
    if (path == "/metrics" || path.starts_with("/api/ingest") ||
        path.starts_with("/api/store"))
      continue;
    EXPECT_EQ(api.dispatch(get_request(path)).status, 200) << path;
  }
  http::Request checkpoint = get_request("/api/admin/checkpoint");
  checkpoint.method = "POST";
  EXPECT_EQ(api.dispatch(checkpoint).status, 404);
}

}  // namespace
}  // namespace crowdweb
