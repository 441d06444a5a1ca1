// Equivalence suite for the incremental epoch pipeline: a corpus grown
// by any interleaving of deltas — including a crash-recovery replay —
// must be indistinguishable from one built from scratch over the same
// records, at every layer (dataset, mobility, crowd model) and on the
// wire (byte-identical /api/crowd/:window JSON). Also pins the sharing
// contract: state the delta did not touch is reused by pointer, never
// copied.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/platform.hpp"
#include "crowd/model.hpp"
#include "data/dataset.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "ingest/worker.hpp"
#include "json/json.hpp"
#include "patterns/mobility.hpp"
#include "shard/api.hpp"
#include "shard/router.hpp"
#include "store/store.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/metrics.hpp"
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

/// A scratch store directory, wiped on construction and destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("crowdweb_equivalence_test_" + tag)) {
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

patterns::MobilityOptions mobility_options() {
  patterns::MobilityOptions options;
  options.sequences = test_platform().config().sequences;
  options.mining = test_platform().config().mining;
  return options;
}

ingest::IngestEvent make_event(data::UserId user, std::int64_t timestamp) {
  ingest::IngestEvent event;
  event.user = user;
  event.category = static_cast<data::CategoryId>(user % 7);
  event.position = {40.70 + static_cast<double>(user % 10) * 0.01, -74.00};
  event.timestamp = timestamp;
  return event;
}

/// Valid live traffic: events the platform's taxonomy accepts, spread
/// over eleven users at unique timestamps.
std::vector<ingest::IngestEvent> live_traffic(std::size_t count, std::size_t start = 0) {
  std::vector<ingest::IngestEvent> events;
  events.reserve(count);
  for (std::size_t i = start; i < start + count; ++i)
    events.push_back(make_event(static_cast<data::UserId>(5'000 + i % 11),
                                static_cast<std::int64_t>(1'334'000'000 + i * 60)));
  return events;
}

ingest::IngestWorkerConfig worker_config() {
  ingest::IngestWorkerConfig config;
  config.rebuild_interval = 20ms;
  return config;
}

/// Submits `events` and waits until all of them are merged and published.
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

// ------------------------------------------------------- value equality

void expect_dataset_eq(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.checkin_count(), b.checkin_count());
  ASSERT_EQ(a.user_count(), b.user_count());
  ASSERT_EQ(a.venue_count(), b.venue_count());
  EXPECT_TRUE(a.bounds() == b.bounds());
  EXPECT_TRUE(std::equal(a.users().begin(), a.users().end(), b.users().begin()));
  for (std::size_t v = 0; v < a.venue_count(); ++v) {
    const data::Venue& va = a.venues()[v];
    const data::Venue& vb = b.venues()[v];
    ASSERT_EQ(va.id, vb.id);
    ASSERT_EQ(a.venue_name(va.id), b.venue_name(vb.id));
    ASSERT_EQ(va.category, vb.category);
    ASSERT_EQ(va.position.lat, vb.position.lat);
    ASSERT_EQ(va.position.lon, vb.position.lon);
  }
  const auto view_a = a.checkins();
  const auto view_b = b.checkins();
  auto it_b = view_b.begin();
  std::size_t rank = 0;
  for (const data::CheckIn& checkin : view_a) {
    ASSERT_EQ(checkin, *it_b) << "check-in rank " << rank;
    ++it_b;
    ++rank;
  }
}

void expect_mobility_entry_eq(const patterns::UserMobility& a,
                              const patterns::UserMobility& b) {
  ASSERT_EQ(a.user, b.user);
  ASSERT_EQ(a.recorded_days, b.recorded_days);
  ASSERT_EQ(a.patterns.size(), b.patterns.size()) << "user " << a.user;
  for (std::size_t p = 0; p < a.patterns.size(); ++p) {
    const patterns::MobilityPattern& pa = a.patterns[p];
    const patterns::MobilityPattern& pb = b.patterns[p];
    ASSERT_EQ(pa.support_count, pb.support_count);
    ASSERT_EQ(pa.support, pb.support);
    ASSERT_EQ(pa.elements.size(), pb.elements.size());
    for (std::size_t e = 0; e < pa.elements.size(); ++e) {
      ASSERT_EQ(pa.elements[e].label, pb.elements[e].label);
      ASSERT_EQ(pa.elements[e].mean_minute, pb.elements[e].mean_minute);
      ASSERT_EQ(pa.elements[e].stddev_minute, pb.elements[e].stddev_minute);
    }
  }
}

void expect_mobility_eq(const patterns::MobilityTable& table,
                        std::span<const patterns::UserMobility> reference) {
  ASSERT_EQ(table.size(), reference.size());
  std::size_t i = 0;
  for (const patterns::UserMobility& entry : table)
    expect_mobility_entry_eq(entry, reference[i++]);
}

void expect_mobility_eq(const patterns::MobilityTable& a,
                        const patterns::MobilityTable& b) {
  ASSERT_EQ(a.size(), b.size());
  auto it = b.begin();
  for (const patterns::UserMobility& entry : a) expect_mobility_entry_eq(entry, *it++);
}

void expect_crowd_eq(const crowd::CrowdModel& a, const crowd::CrowdModel& b) {
  ASSERT_EQ(a.window_count(), b.window_count());
  ASSERT_EQ(a.total_placements(), b.total_placements());
  for (int w = 0; w < a.window_count(); ++w) {
    const auto pa = a.placements(w);
    const auto pb = b.placements(w);
    ASSERT_EQ(pa.size(), pb.size()) << "window " << w;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].user, pb[i].user) << "window " << w;
      ASSERT_EQ(pa[i].label, pb[i].label);
      ASSERT_EQ(pa[i].venue, pb[i].venue);
      ASSERT_EQ(pa[i].cell, pb[i].cell);
      ASSERT_EQ(pa[i].position.lat, pb[i].position.lat);
      ASSERT_EQ(pa[i].position.lon, pb[i].position.lon);
      ASSERT_EQ(pa[i].pattern_support, pb[i].pattern_support);
    }
  }
}

bool window_has_user(const crowd::CrowdModel& model, int window, data::UserId user) {
  const auto placements = model.placements(window);
  return std::any_of(placements.begin(), placements.end(),
                     [user](const crowd::CrowdPlacement& p) { return p.user == user; });
}

/// Phase 2 for `users` only, one from-scratch mine each: the entries an
/// epoch that touched them re-mines.
std::vector<patterns::UserMobility> mine_users(const data::Dataset& dataset,
                                               std::span<const data::UserId> users) {
  std::vector<patterns::UserMobility> entries;
  for (const data::UserId user : users)
    entries.push_back(patterns::mine_user_mobility(dataset, user, test_platform().taxonomy(),
                                                   mobility_options()));
  return entries;
}

/// Each user's venue tally over their records in `dataset`, counted at
/// `window_minutes`.
std::vector<crowd::VenueTally> count_tallies(const data::Dataset& dataset,
                                             std::span<const data::UserId> users,
                                             int window_minutes) {
  std::vector<crowd::VenueTally> tallies;
  for (const data::UserId user : users)
    tallies.emplace_back(dataset.checkins_for(user), window_minutes);
  return tallies;
}

std::vector<const crowd::VenueTally*> pointers(const std::vector<crowd::VenueTally>& tallies) {
  std::vector<const crowd::VenueTally*> out;
  for (const crowd::VenueTally& tally : tallies) out.push_back(&tally);
  return out;
}

/// The crowd model a from-scratch derivation gives over `snapshot`'s
/// corpus: phase 2 re-mined for every user, phase 3 built over that.
crowd::CrowdModel rebuilt_crowd(const ingest::PlatformSnapshot& snapshot) {
  const std::vector<patterns::UserMobility> mobility = patterns::mine_all_mobility(
      snapshot.dataset, test_platform().taxonomy(), mobility_options(), 0);
  auto model = crowd::CrowdModel::build(snapshot.dataset, mobility, snapshot.grid,
                                        test_platform().config().crowd);
  if (!model.is_ok()) std::abort();
  return std::move(model).value();
}

/// Every `GET /api/crowd/:w` body `api` serves, in window order.
std::vector<std::string> crowd_bodies(const http::Router& api, int windows) {
  std::vector<std::string> bodies;
  for (int w = 0; w < windows; ++w) {
    http::Request request;
    request.method = "GET";
    request.path = "/api/crowd/" + std::to_string(w);
    const http::Response response = api.dispatch(request);
    EXPECT_EQ(response.status, 200) << request.path;
    bodies.push_back(response.body);
  }
  return bodies;
}

/// Value of an unlabeled metric in a Prometheus exposition, or -1.
double metric_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(name + " ", 0) == 0) return std::stod(line.substr(name.size() + 1));
  return -1.0;
}

// -------------------------------------------------- dataset delta layer

/// A small hand-built corpus: four venues, three users.
struct Corpus {
  std::vector<data::VenueSpec> venues;
  std::vector<data::CheckIn> checkins;
};

Corpus base_corpus() {
  Corpus corpus;
  corpus.venues = {{0, "cafe", 1, {40.70, -74.00}},
                   {1, "bar", 2, {40.72, -73.99}},
                   {2, "park", 3, {40.74, -73.98}}};
  const auto at = [&](data::UserId user, data::VenueId venue, std::int64_t ts) {
    const data::VenueSpec& v = corpus.venues[venue];
    corpus.checkins.push_back({user, venue, v.category, v.position, ts});
  };
  at(1, 0, 1'000);
  at(1, 1, 2'000);
  at(2, 0, 1'500);
  at(2, 2, 2'500);
  at(3, 2, 3'000);
  return corpus;
}

/// The delta applied on top: a new venue, a new user, and — for user 2 —
/// a timestamp tie with an existing record, pinning the stable order.
Corpus delta_corpus() {
  Corpus corpus;
  corpus.venues = {{3, "pier", 1, {40.76, -73.97}}};
  corpus.checkins = {{2, 3, 1, {40.76, -73.97}, 2'500},  // ties base's 2'500
                     {2, 3, 1, {40.76, -73.97}, 500},    // before all base records
                     {4, 3, 1, {40.76, -73.97}, 4'000},  // brand new user
                     {1, 3, 1, {40.76, -73.97}, 5'000}};
  return corpus;
}

data::Dataset build_dataset(const Corpus& corpus, const data::Dataset* base = nullptr) {
  data::DatasetBuilder builder = base ? data::DatasetBuilder(*base) : data::DatasetBuilder();
  for (const data::VenueSpec& venue : corpus.venues)
    EXPECT_TRUE(builder.add_venue(venue).is_ok());
  for (const data::CheckIn& checkin : corpus.checkins)
    EXPECT_TRUE(builder.add_checkin(checkin).is_ok());
  return builder.build();
}

TEST(DatasetEquivalenceTest, IncrementalBuildMatchesFromScratchForAnyChunking) {
  const Corpus base = base_corpus();
  const Corpus delta = delta_corpus();

  // Reference: one from-scratch build over every record in arrival order.
  Corpus all = base;
  all.venues.insert(all.venues.end(), delta.venues.begin(), delta.venues.end());
  all.checkins.insert(all.checkins.end(), delta.checkins.begin(), delta.checkins.end());
  const data::Dataset reference = build_dataset(all);

  // The delta applied in one piece, and one event at a time: both must
  // land on the reference exactly, ties included.
  const data::Dataset base_built = build_dataset(base);
  expect_dataset_eq(build_dataset(delta, &base_built), reference);

  data::Dataset stepped = build_dataset(base);
  Corpus chunk;
  chunk.venues = delta.venues;
  for (const data::CheckIn& checkin : delta.checkins) {
    chunk.checkins = {checkin};
    stepped = build_dataset(chunk, &stepped);
    chunk.venues.clear();  // the venue only arrives once
  }
  expect_dataset_eq(stepped, reference);

  // The tie resolved base-first: user 2's records run 500 (delta),
  // 1'500, 2'500 (base), 2'500 (delta, venue 3).
  const auto user2 = reference.checkins_for(2);
  ASSERT_EQ(user2.size(), 4u);
  EXPECT_EQ(user2[0].timestamp, 500);
  EXPECT_EQ(user2[2].timestamp, 2'500);
  EXPECT_EQ(user2[2].venue, 2u);
  EXPECT_EQ(user2[3].timestamp, 2'500);
  EXPECT_EQ(user2[3].venue, 3u);
}

TEST(DatasetEquivalenceTest, BuilderSharesUntouchedShardsAndVenueTable) {
  const data::Dataset base = build_dataset(base_corpus());

  // A delta touching only user 2, at an existing venue: users 1 and 3
  // keep their exact shard objects, and the venue table is adopted.
  data::DatasetBuilder builder(base);
  ASSERT_TRUE(builder.add_checkin({2, 0, 1, {40.70, -74.00}, 9'000}).is_ok());
  const data::Dataset next = builder.build();
  EXPECT_EQ(next.shard_for(1), base.shard_for(1));
  EXPECT_EQ(next.shard_for(3), base.shard_for(3));
  EXPECT_NE(next.shard_for(2), base.shard_for(2));
  EXPECT_EQ(next.venue_table(), base.venue_table());
  EXPECT_EQ(builder.stats().shards_reused, 2u);
  EXPECT_EQ(builder.stats().shards_rebuilt, 1u);
  EXPECT_TRUE(builder.stats().venue_table_shared);

  // Registering a venue forces a new table (copy-on-write, not in-place).
  data::DatasetBuilder with_venue(next);
  ASSERT_TRUE(with_venue.add_venue({3, "pier", 1, {40.76, -73.97}}).is_ok());
  const data::Dataset grown = with_venue.build();
  EXPECT_NE(grown.venue_table(), next.venue_table());
  EXPECT_FALSE(with_venue.stats().venue_table_shared);
  ASSERT_EQ(next.venue_table()->size(), 3u);  // the old table is untouched
  EXPECT_EQ(grown.venue_table()->size(), 4u);
}

// ----------------------------------------------------- crowd delta layer

TEST(CrowdUpdateTest, MatchesFullRebuildAndSharesUnaffectedWindows) {
  const core::Platform& platform = test_platform();
  const data::Dataset& base = platform.experiment_dataset();
  const patterns::MobilityTable& table = platform.mobility();
  auto full = crowd::CrowdModel::build(base, table, platform.grid(),
                                       platform.config().crowd);
  ASSERT_TRUE(full.is_ok()) << full.status().to_string();

  // Extend one user's history and re-mine only that user.
  data::UserId changed = base.users().front();
  const data::CheckIn seed = base.checkins_for(changed).front();
  data::DatasetBuilder builder(base);
  for (int day = 1; day <= 3; ++day) {
    data::CheckIn extra = seed;
    extra.timestamp += day * 86'400 + day * 1'800;
    ASSERT_TRUE(builder.add_checkin(extra).is_ok());
  }
  const data::Dataset extended = builder.build();
  const std::span<const data::UserId> changed_span(&changed, 1);
  const patterns::MobilityTable updated =
      table.with_updates(mine_users(extended, changed_span));

  const std::vector<crowd::VenueTally> tallies =
      count_tallies(extended, changed_span, platform.config().crowd.window_minutes);
  auto incremental =
      crowd::CrowdModel::update(*full, extended, updated, changed_span, pointers(tallies));
  ASSERT_TRUE(incremental.is_ok()) << incremental.status().to_string();
  auto rebuilt = crowd::CrowdModel::build(extended, updated, platform.grid(),
                                          platform.config().crowd);
  ASSERT_TRUE(rebuilt.is_ok());
  expect_crowd_eq(*incremental, *rebuilt);

  // Windows the changed user appears in neither model are shared with
  // the previous model by pointer.
  for (int w = 0; w < full->window_count(); ++w) {
    if (window_has_user(*full, w, changed) || window_has_user(*incremental, w, changed))
      continue;
    EXPECT_EQ(incremental->window_identity(w), full->window_identity(w)) << "window " << w;
  }
}

TEST(CrowdUpdateTest, KeptTalliesPlaceLikeTheRecords) {
  // The worker hands update() each changed user's kept venue tally
  // instead of the records: one counted before the delta and then given
  // the delta's check-ins places exactly like the full build. A tally
  // kept at other window minutes is refused, not misread.
  const core::Platform& platform = test_platform();
  const data::Dataset& base = platform.experiment_dataset();
  const patterns::MobilityTable& table = platform.mobility();
  const crowd::CrowdOptions& options = platform.config().crowd;
  auto full = crowd::CrowdModel::build(base, table, platform.grid(), options);
  ASSERT_TRUE(full.is_ok()) << full.status().to_string();

  std::vector<data::UserId> changed(base.users().begin(), base.users().begin() + 4);
  std::vector<crowd::VenueTally> kept;
  data::DatasetBuilder builder(base);
  for (const data::UserId user : changed) {
    kept.emplace_back(base.checkins_for(user), options.window_minutes);
    const data::CheckIn seed = base.checkins_for(user).back();
    for (int day = 1; day <= 3; ++day) {
      data::CheckIn extra = seed;
      extra.timestamp += day * 86'400 - day * 3'600;
      ASSERT_TRUE(builder.add_checkin(extra).is_ok());
      kept.back().add(extra);
    }
  }
  const data::Dataset extended = builder.build();
  const patterns::MobilityTable updated = table.with_updates(mine_users(extended, changed));
  auto rebuilt = crowd::CrowdModel::build(extended, updated, platform.grid(), options);
  ASSERT_TRUE(rebuilt.is_ok());
  std::size_t placed_windows = 0;
  for (int w = 0; w < rebuilt->window_count(); ++w) {
    for (const data::UserId user : changed)
      placed_windows += window_has_user(*rebuilt, w, user) ? 1 : 0;
  }
  ASSERT_GT(placed_windows, 0u);  // the tallies are read

  std::vector<const crowd::VenueTally*> tallies = pointers(kept);
  auto incremental = crowd::CrowdModel::update(*full, extended, updated, changed, tallies);
  ASSERT_TRUE(incremental.is_ok()) << incremental.status().to_string();
  expect_crowd_eq(*incremental, *rebuilt);

  // Counted at other window minutes: its windows mean other hours.
  const std::vector<crowd::VenueTally> other =
      count_tallies(extended, changed, options.window_minutes == 60 ? 30 : 60);
  const auto mismatched = crowd::CrowdModel::update(*full, extended, updated, changed,
                                                    pointers(other));
  ASSERT_FALSE(mismatched.is_ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  EXPECT_FALSE(crowd::CrowdModel::update(*full, extended, updated, changed,
                                         std::span(tallies).first(1))
                   .is_ok());
  std::vector<data::UserId> reversed(changed.rbegin(), changed.rend());
  std::vector<const crowd::VenueTally*> reversed_tallies(tallies.rbegin(), tallies.rend());
  EXPECT_FALSE(
      crowd::CrowdModel::update(*full, extended, updated, reversed, reversed_tallies).is_ok());
  tallies.back() = nullptr;
  EXPECT_FALSE(crowd::CrowdModel::update(*full, extended, updated, changed, tallies).is_ok());
}

TEST(CrowdUpdateTest, EmptyDeltaSharesEveryWindow) {
  const core::Platform& platform = test_platform();
  const patterns::MobilityTable& table = platform.mobility();
  auto full = crowd::CrowdModel::build(platform.experiment_dataset(), table,
                                       platform.grid(), platform.config().crowd);
  ASSERT_TRUE(full.is_ok());
  auto same = crowd::CrowdModel::update(*full, platform.experiment_dataset(), table, {}, {});
  ASSERT_TRUE(same.is_ok());
  for (int w = 0; w < full->window_count(); ++w)
    EXPECT_EQ(same->window_identity(w), full->window_identity(w)) << "window " << w;
}

// ------------------------------------------------- worker interleavings

TEST(WorkerEquivalenceTest, ChunkedAndBulkIngestPublishIdenticalState) {
  const core::Platform& platform = test_platform();
  const std::vector<ingest::IngestEvent> events = live_traffic(44);

  // Worker A sees the traffic as eleven small deltas, each its own
  // epoch; worker B sees one big delta. Same events, same order.
  auto chunked = core::make_ingest_worker(platform, worker_config());
  ASSERT_TRUE(chunked->start().is_ok());
  for (std::size_t offset = 0; offset < events.size(); offset += 4) {
    const std::span<const ingest::IngestEvent> chunk(events.data() + offset, 4);
    feed_and_settle(*chunked, chunk, offset + 4);
  }
  auto bulk = core::make_ingest_worker(platform, worker_config());
  ASSERT_TRUE(bulk->start().is_ok());
  feed_and_settle(*bulk, events, events.size());

  const ingest::SnapshotPtr a = chunked->hub().current();
  const ingest::SnapshotPtr b = bulk->hub().current();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  expect_dataset_eq(a->dataset, b->dataset);
  expect_mobility_eq(a->mobility, b->mobility);
  expect_crowd_eq(a->crowd, b->crowd);

  // Both equal a from-scratch derivation over the final corpus: phase 2
  // re-mined for every user, phase 3 rebuilt over that.
  const std::vector<patterns::UserMobility> reference_mobility =
      patterns::mine_all_mobility(a->dataset, platform.taxonomy(), mobility_options(), 0);
  expect_mobility_eq(a->mobility, reference_mobility);
  auto reference_crowd = crowd::CrowdModel::build(a->dataset, reference_mobility,
                                                  a->grid, platform.config().crowd);
  ASSERT_TRUE(reference_crowd.is_ok());
  expect_crowd_eq(a->crowd, *reference_crowd);

  // On the wire: every window's JSON is byte-identical across the two
  // ingestion histories.
  http::Server server_a(core::make_api_router(platform, {chunked.get(), nullptr}));
  http::Server server_b(core::make_api_router(platform, {bulk.get(), nullptr}));
  ASSERT_TRUE(server_a.start().is_ok());
  ASSERT_TRUE(server_b.start().is_ok());
  for (int w = 0; w < a->crowd.window_count(); ++w) {
    const std::string path = "/api/crowd/" + std::to_string(w);
    const auto from_a = http::get("127.0.0.1", server_a.port(), path);
    const auto from_b = http::get("127.0.0.1", server_b.port(), path);
    ASSERT_TRUE(from_a.is_ok());
    ASSERT_TRUE(from_b.is_ok());
    ASSERT_EQ(from_a->status, 200) << path;
    EXPECT_EQ(from_a->body, from_b->body) << path;
  }
  server_a.stop();
  server_b.stop();
  chunked->stop();
  bulk->stop();
}

TEST(WorkerEquivalenceTest, UntouchedUsersShareStateAcrossEpochs) {
  const core::Platform& platform = test_platform();
  telemetry::Registry registry;
  ingest::IngestWorkerConfig config = worker_config();
  config.metrics = &registry;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());

  // Epoch 1 seeds from the batch build's epoch 0 by sharing every mined
  // entry, not copying it; so does every shard of a sharded deployment.
  const ingest::SnapshotPtr seed = worker->hub().current();
  ASSERT_NE(seed, nullptr);
  ASSERT_EQ(seed->epoch, 1u);
  ASSERT_EQ(seed->mobility.size(), platform.mobility().size());
  for (const patterns::UserMobility& entry : platform.mobility())
    EXPECT_EQ(seed->mobility.entry_for(entry.user), platform.mobility().entry_for(entry.user))
        << "user " << entry.user;
  // Its crowd model is the batch build's, adopted: every window shared.
  ASSERT_EQ(seed->crowd.window_count(), platform.crowd_model().window_count());
  for (int w = 0; w < seed->crowd.window_count(); ++w)
    EXPECT_EQ(seed->crowd.window_identity(w), platform.crowd_model().window_identity(w))
        << "window " << w;
  {
    // Shards share the users' record columns with the batch corpus too.
    const data::Dataset& corpus = platform.experiment_dataset();
    const std::vector<data::CheckIn> epoch0(corpus.checkins().begin(),
                                            corpus.checkins().end());
    shard::ShardRouterConfig shard_config;
    shard_config.shard_count = 4;
    shard_config.worker = worker_config();
    auto router = shard::ShardRouter::create(platform, shard_config);
    ASSERT_TRUE(router.is_ok()) << router.status().to_string();
    ASSERT_TRUE((*router)->start().is_ok());
    std::size_t seeded = 0;
    std::size_t seeded_users = 0;
    std::vector<ingest::IngestEvent> appended;
    for (std::size_t id = 0; id < (*router)->shard_count(); ++id) {
      const ingest::SnapshotPtr shard_seed = (*router)->shard(id).snapshot();
      ASSERT_NE(shard_seed, nullptr) << "shard " << id;
      for (const patterns::UserMobility& entry : shard_seed->mobility)
        EXPECT_EQ(shard_seed->mobility.entry_for(entry.user),
                  platform.mobility().entry_for(entry.user))
            << "shard " << id << " user " << entry.user;
      seeded += shard_seed->mobility.size();
      EXPECT_EQ(shard_seed->dataset.venue_table(), corpus.venue_table()) << "shard " << id;
      for (const data::UserId user : shard_seed->dataset.users()) {
        EXPECT_EQ(shard_seed->dataset.shard_for(user), corpus.shard_for(user))
            << "shard " << id << " user " << user;
        // One in-order check-in per seeded user: the shard appends to
        // the columns it shares with the batch corpus.
        appended.push_back(make_event(user, corpus.checkins_for(user).timestamps().back() + 60));
      }
      seeded_users += shard_seed->dataset.user_count();
    }
    EXPECT_EQ(seeded, platform.mobility().size());
    EXPECT_EQ(seeded_users, corpus.user_count());
    ASSERT_EQ((*router)->submit(appended).accepted, appended.size());
    ASSERT_TRUE((*router)->wait_for_live(appended.size(), 10s));
    (*router)->stop();
    // The batch corpus still reads its epoch-0 records, every column.
    ASSERT_EQ(corpus.checkin_count(), epoch0.size());
    std::size_t i = 0;
    for (const data::CheckIn& record : corpus.checkins()) {
      EXPECT_EQ(record.user, epoch0[i].user) << "record " << i;
      EXPECT_EQ(record.venue, epoch0[i].venue) << "record " << i;
      EXPECT_EQ(record.timestamp, epoch0[i].timestamp) << "record " << i;
      EXPECT_EQ(record.position.lat, epoch0[i].position.lat) << "record " << i;
      EXPECT_EQ(record.position.lon, epoch0[i].position.lon) << "record " << i;
      ++i;
    }
  }

  // Epoch N: traffic over all eleven users.
  const std::vector<ingest::IngestEvent> first = live_traffic(33);
  feed_and_settle(*worker, first, first.size());
  const ingest::SnapshotPtr before = worker->hub().current();
  ASSERT_NE(before, nullptr);

  // Epoch N+k: a delta touching only user 5000, at a position and venue
  // the corpus already knows — bounds unchanged, no new venue.
  std::vector<ingest::IngestEvent> second;
  for (std::int64_t j = 0; j < 3; ++j)
    second.push_back(make_event(5'000, 1'334'000'000 + (33 + j) * 60));
  feed_and_settle(*worker, second, first.size() + second.size());
  const ingest::SnapshotPtr after = worker->hub().current();
  ASSERT_NE(after, nullptr);
  ASSERT_GT(after->epoch, before->epoch);

  // The delta's user was rebuilt; every other user's shard and mobility
  // entry — and the venue table — are the same objects, not copies.
  EXPECT_NE(after->dataset.shard_for(5'000), before->dataset.shard_for(5'000));
  for (data::UserId user = 5'001; user <= 5'010; ++user) {
    ASSERT_NE(before->dataset.shard_for(user), nullptr);
    EXPECT_EQ(after->dataset.shard_for(user), before->dataset.shard_for(user));
    ASSERT_NE(before->mobility.entry_for(user), nullptr);
    EXPECT_EQ(after->mobility.entry_for(user), before->mobility.entry_for(user));
  }
  EXPECT_EQ(after->dataset.venue_table(), before->dataset.venue_table());

  // Crowd windows the changed user appears in neither epoch are shared.
  int shared_windows = 0;
  for (int w = 0; w < before->crowd.window_count(); ++w) {
    if (window_has_user(before->crowd, w, 5'000) || window_has_user(after->crowd, w, 5'000))
      continue;
    EXPECT_EQ(after->crowd.window_identity(w), before->crowd.window_identity(w))
        << "window " << w;
    ++shared_windows;
  }
  EXPECT_GT(shared_windows, 0);

  // The delta telemetry saw it: untouched shards were shared.
  const std::string scrape = telemetry::render_prometheus(registry);
  EXPECT_GT(metric_value(scrape, R"(crowdweb_ingest_delta_shards_reused_total{shard="0"})"),
            0.0);
  EXPECT_GT(metric_value(scrape, R"(crowdweb_ingest_delta_events_total{shard="0"})"), 0.0);
  worker->stop();
}

TEST(WorkerEquivalenceTest, UpdatedCrowdMatchesAFullBuildAcrossOneHundredThirtyEpochs) {
  // The worker never builds a crowd model: every epoch updates the last
  // one. Past two points where a periodic full rebuild used to run
  // (epochs 65 and 129), the updated model must still equal a full
  // build over the same corpus.
  const core::Platform& platform = test_platform();
  const data::Dataset& base = platform.experiment_dataset();
  const data::Taxonomy& taxonomy = platform.taxonomy();
  telemetry::Registry registry;
  ingest::IngestWorkerConfig config = worker_config();
  config.rebuild_interval = 1ms;
  config.metrics = &registry;
  auto worker = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker->start().is_ok());
  const crowd::CrowdModel& seed_crowd = platform.crowd_model();

  // The fading user: the placed corpus user with the fewest recorded
  // days. Each epoch gives them a new day at a label they never used,
  // so their old patterns' supports fall below min_pattern_support.
  const patterns::UserMobility* fading = nullptr;
  for (const patterns::UserMobility& entry : platform.mobility()) {
    bool placed = false;
    for (int w = 0; w < seed_crowd.window_count() && !placed; ++w)
      placed = window_has_user(seed_crowd, w, entry.user);
    if (placed && (fading == nullptr || entry.recorded_days < fading->recorded_days))
      fading = &entry;
  }
  ASSERT_NE(fading, nullptr);
  std::vector<data::CategoryId> used;
  for (const data::CheckIn& checkin : base.checkins_for(fading->user))
    used.push_back(taxonomy.root_of(checkin.category));
  const auto fresh_label = std::find_if(
      taxonomy.roots().begin(), taxonomy.roots().end(), [&](data::CategoryId root) {
        return std::find(used.begin(), used.end(), root) == used.end();
      });
  ASSERT_NE(fresh_label, taxonomy.roots().end());
  std::set<std::pair<int, mining::Item>> fading_seed_pairs;
  for (int w = 0; w < seed_crowd.window_count(); ++w) {
    for (const crowd::CrowdPlacement& p : seed_crowd.placements(w))
      if (p.user == fading->user) fading_seed_pairs.insert({w, p.label});
  }

  // New days start after the corpus ends.
  std::int64_t last = 0;
  for (const data::CheckIn& checkin : base.checkins()) last = std::max(last, checkin.timestamp);
  constexpr std::int64_t kDay = 86'400;
  const std::int64_t day0 = (last / kDay + 1) * kDay;
  const std::vector<data::UserId> guests = {worker->allocate_guest_id(),
                                            worker->allocate_guest_id()};
  const auto users = base.users();
  const auto at = [](data::UserId user, data::CategoryId category, geo::LatLon position,
                     std::int64_t timestamp) {
    ingest::IngestEvent event;
    event.user = user;
    event.category = category;
    event.position = position;
    event.timestamp = timestamp;
    return event;
  };

  std::size_t live = 0;
  std::uint64_t epoch = worker->hub().epoch();
  for (std::size_t step = 0; epoch < 131 || epoch % 64 <= 1; ++step) {
    const std::int64_t day = day0 + static_cast<std::int64_t>(2 * step) * kDay;
    std::vector<ingest::IngestEvent> delta;
    // Two new days for the fading user, at 03:10.
    delta.push_back(at(fading->user, *fresh_label, {40.75, -73.99}, day + 3 * 3600 + 600));
    delta.push_back(
        at(fading->user, *fresh_label, {40.75, -73.99}, day + kDay + 3 * 3600 + 600));
    // Guests keep a routine at venues of their own, new live venues.
    for (std::size_t g = 0; g < guests.size(); ++g) {
      const double offset = 0.01 * static_cast<double>(g + 1);
      delta.push_back(at(guests[g], taxonomy.roots()[g], {40.701 + offset, -73.951},
                         day + 8 * 3600 + 900));
      delta.push_back(at(guests[g], taxonomy.roots()[g + 2], {40.702 + offset, -73.952},
                         day + 19 * 3600 + 1800));
    }
    // A corpus user appends a check-in at their first record's spot.
    const data::UserId appender = users[(step * 13) % users.size()];
    const data::Dataset::UserColumns appended = base.checkins_for(appender);
    delta.push_back(at(appender, appended.category(0), appended.position(0),
                       day + 12 * 3600));
    // Every fourth epoch, another checks in before their last record
    // (out of order: their history is refiled and copied).
    if (step % 4 == 0) {
      const data::UserId late = users[(step * 7 + 3) % users.size()];
      const data::Dataset::UserColumns records = base.checkins_for(late);
      delta.push_back(
          at(late, records.category(0), records.position(0), records.timestamp(0) + 60));
    }
    live += delta.size();
    feed_and_settle(*worker, delta, live);
    const ingest::SnapshotPtr snapshot = worker->hub().current();
    ASSERT_NE(snapshot, nullptr);
    epoch = snapshot->epoch;
    if (step % 40 == 0) expect_crowd_eq(snapshot->crowd, rebuilt_crowd(*snapshot));
  }

  const ingest::SnapshotPtr last_epoch = worker->hub().current();
  ASSERT_NE(last_epoch, nullptr);
  EXPECT_GE(last_epoch->epoch, 131u);
  expect_crowd_eq(last_epoch->crowd, rebuilt_crowd(*last_epoch));

  // Every kind of delta happened: guests placed, live venues minted,
  // histories copied, and the fading user's seed placements retracted.
  for (const data::UserId guest : guests) {
    bool placed = false;
    for (int w = 0; w < last_epoch->crowd.window_count() && !placed; ++w)
      placed = window_has_user(last_epoch->crowd, w, guest);
    EXPECT_TRUE(placed) << "guest " << guest;
  }
  EXPECT_GT(last_epoch->dataset.venue_count(), base.venue_count());
  const std::string scrape = telemetry::render_prometheus(registry);
  EXPECT_GT(
      metric_value(scrape, R"(crowdweb_ingest_delta_records_copied_total{shard="0"})"), 0.0);
  ASSERT_FALSE(fading_seed_pairs.empty());
  for (int w = 0; w < last_epoch->crowd.window_count(); ++w) {
    for (const crowd::CrowdPlacement& p : last_epoch->crowd.placements(w)) {
      if (p.user != fading->user) continue;
      EXPECT_FALSE(fading_seed_pairs.contains({w, p.label}))
          << "user " << fading->user << " (" << fading->recorded_days
          << " seed days) still placed at window " << w;
    }
  }
  worker->stop();
}

// ------------------------------------------- static build vs worker

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

/// Byte-compares every crowd window, the user roster, and one user's
/// full pattern list as served by two deployments.
void expect_wire_eq(const http::Router& a, const http::Router& b, int windows,
                    data::UserId probe) {
  for (int w = 0; w < windows; ++w) {
    const std::string path = "/api/crowd/" + std::to_string(w);
    EXPECT_EQ(body_of(a, path), body_of(b, path)) << path;
  }
  EXPECT_EQ(body_of(a, "/api/users"), body_of(b, "/api/users"));
  const std::string patterns_path = "/api/user/" + std::to_string(probe) + "/patterns";
  EXPECT_EQ(body_of(a, patterns_path), body_of(b, patterns_path)) << patterns_path;
}

TEST(WorkerEquivalenceTest, StaticBuildAndWorkerEpochOneServeIdenticalBodies) {
  // The static deployment serves the batch build as epoch 0; a worker
  // republishes the same corpus as its epoch 1. Both render through the
  // one view constructor, so every body must match byte for byte.
  const core::Platform& platform = test_platform();
  auto worker = core::make_ingest_worker(platform, worker_config());
  ASSERT_TRUE(worker->start().is_ok());
  const http::Router static_api = core::make_api_router(platform);
  const http::Router worker_api = core::make_api_router(platform, {worker.get(), nullptr});

  // Every crowd window, /api/users and one user's patterns...
  expect_wire_eq(static_api, worker_api, platform.crowd_model().window_count(),
                 platform.experiment_dataset().users()[0]);
  // ...and the corpus and pattern-set blocks of /api/status.
  const auto static_status = json::parse(body_of(static_api, "/api/status"));
  const auto worker_status = json::parse(body_of(worker_api, "/api/status"));
  ASSERT_TRUE(static_status.is_ok());
  ASSERT_TRUE(worker_status.is_ok());
  for (const char* block : {"experiment", "mining"}) {
    ASSERT_NE(static_status->find(block), nullptr) << block;
    ASSERT_NE(worker_status->find(block), nullptr) << block;
    EXPECT_EQ(json::dump(*static_status->find(block)), json::dump(*worker_status->find(block)))
        << block;
  }
  worker->stop();
}

// ------------------------------------------------- crash-recovery replay

TEST(RecoveryEquivalenceTest, ReplayedStateMatchesThePreCrashEpoch) {
  const core::Platform& platform = test_platform();
  ScratchDir dir("replay");
  ScratchDir image("replay_image");

  ingest::IngestWorkerConfig config = worker_config();
  config.store.dir = dir.str();
  config.store.fsync = store::FsyncPolicy::kEveryBatch;
  auto worker_a = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker_a->start().is_ok());
  const std::vector<ingest::IngestEvent> events = live_traffic(40);
  feed_and_settle(*worker_a, events, events.size());
  const ingest::SnapshotPtr before = worker_a->hub().current();
  ASSERT_NE(before, nullptr);

  http::Server server_a(core::make_api_router(platform, {worker_a.get(), nullptr}));
  ASSERT_TRUE(server_a.start().is_ok());
  const auto crowd_before = http::get("127.0.0.1", server_a.port(), "/api/crowd/12");
  ASSERT_TRUE(crowd_before.is_ok());
  ASSERT_EQ(crowd_before->status, 200);
  server_a.stop();

  // Crash image: copied while worker A is live — it never sees the
  // clean shutdown below. every_batch journaled each merged batch
  // before its epoch published, so the image holds all 40 events.
  fs::copy(dir.str(), image.str(), fs::copy_options::recursive);
  worker_a->stop();

  ingest::IngestWorkerConfig recovered_config = worker_config();
  recovered_config.store.dir = image.str();
  recovered_config.store.fsync = store::FsyncPolicy::kEveryBatch;
  auto worker_b = core::make_ingest_worker(platform, recovered_config);
  ASSERT_TRUE(worker_b->start().is_ok());
  const ingest::SnapshotPtr after = worker_b->hub().current();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->live_checkins, events.size());
  EXPECT_GE(after->epoch, before->epoch);

  // The replayed corpus and everything derived from it equal the
  // pre-crash epoch, layer by layer...
  expect_dataset_eq(after->dataset, before->dataset);
  expect_mobility_eq(after->mobility, before->mobility);
  expect_crowd_eq(after->crowd, before->crowd);

  // ...and equal a from-scratch derivation over the recovered corpus.
  const std::vector<patterns::UserMobility> reference_mobility =
      patterns::mine_all_mobility(after->dataset, platform.taxonomy(), mobility_options(), 0);
  expect_mobility_eq(after->mobility, reference_mobility);
  auto reference_crowd = crowd::CrowdModel::build(after->dataset, reference_mobility,
                                                  after->grid, platform.config().crowd);
  ASSERT_TRUE(reference_crowd.is_ok());
  expect_crowd_eq(after->crowd, *reference_crowd);

  // On the wire, recovery is invisible.
  http::Server server_b(core::make_api_router(platform, {worker_b.get(), nullptr}));
  ASSERT_TRUE(server_b.start().is_ok());
  const auto crowd_after = http::get("127.0.0.1", server_b.port(), "/api/crowd/12");
  ASSERT_TRUE(crowd_after.is_ok());
  ASSERT_EQ(crowd_after->status, 200);
  EXPECT_EQ(crowd_after->body, crowd_before->body);
  server_b.stop();
  worker_b->stop();
}

TEST(RecoveryEquivalenceTest, CheckpointAdoptUpdatesTheSeedToThePreCrashCrowd) {
  const core::Platform& platform = test_platform();
  const data::Dataset& base = platform.experiment_dataset();
  ScratchDir dir("checkpoint");
  ScratchDir image("checkpoint_image");

  // Live users plus corpus users checking in again at their first
  // record's spot: recovery must re-place both kinds.
  std::vector<ingest::IngestEvent> events = live_traffic(40);
  for (std::size_t i = 0; i < 20; ++i) {
    const data::UserId user = base.users()[(i * 5) % base.user_count()];
    const data::Dataset::UserColumns records = base.checkins_for(user);
    ingest::IngestEvent event;
    event.user = user;
    event.category = records.category(0);
    event.position = records.position(0);
    event.timestamp = records.timestamp(records.size() - 1) + 3'600;
    events.insert(events.begin() + static_cast<std::ptrdiff_t>(2 * i), event);
  }
  const std::span<const ingest::IngestEvent> all(events);

  ingest::IngestWorkerConfig config = worker_config();
  config.store.dir = dir.str();
  config.store.fsync = store::FsyncPolicy::kEveryBatch;
  auto worker_a = core::make_ingest_worker(platform, config);
  ASSERT_TRUE(worker_a->start().is_ok());
  feed_and_settle(*worker_a, all.first(30), 30);
  ASSERT_TRUE(worker_a->checkpoint_now(10s).is_ok());
  feed_and_settle(*worker_a, all.subspan(30), all.size());
  const ingest::SnapshotPtr before = worker_a->hub().current();
  ASSERT_NE(before, nullptr);
  const std::vector<std::string> bodies_before = crowd_bodies(
      core::make_api_router(platform, {worker_a.get(), nullptr}), before->crowd.window_count());

  // Crash image: the checkpoint plus the WAL tail written after it.
  fs::copy(dir.str(), image.str(), fs::copy_options::recursive);
  worker_a->stop();

  ingest::IngestWorkerConfig recovered_config = worker_config();
  recovered_config.store.dir = image.str();
  recovered_config.store.fsync = store::FsyncPolicy::kEveryBatch;
  auto worker_b = core::make_ingest_worker(platform, recovered_config);
  ASSERT_TRUE(worker_b->start().is_ok());
  const ingest::SnapshotPtr after = worker_b->hub().current();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->live_checkins, all.size());

  // The first epoch updated the seed's model for the recovered users;
  // it equals the pre-crash model and a full build.
  expect_dataset_eq(after->dataset, before->dataset);
  expect_mobility_eq(after->mobility, before->mobility);
  expect_crowd_eq(after->crowd, before->crowd);
  expect_crowd_eq(after->crowd, rebuilt_crowd(*after));

  EXPECT_EQ(crowd_bodies(core::make_api_router(platform, {worker_b.get(), nullptr}),
                         after->crowd.window_count()),
            bodies_before);
  worker_b->stop();
}

}  // namespace
}  // namespace crowdweb
