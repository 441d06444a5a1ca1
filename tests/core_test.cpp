#include <gtest/gtest.h>

#include <algorithm>

#include "core/api.hpp"
#include "data/dataset_io.hpp"

#include <filesystem>
#include "core/platform.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "json/json.hpp"
#include "reference/render_oracle.hpp"
#include "telemetry/metrics.hpp"
#include "util/civil_time.hpp"
#include "util/format.hpp"
#include "util/log.hpp"

namespace crowdweb::core {
namespace {

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

PlatformConfig small_config() {
  PlatformConfig config;
  config.small_corpus = true;
  config.min_active_days = 20;
  config.mining.min_support = 0.25;
  return config;
}

/// The platform is expensive to build; share one across tests.
const Platform& platform() {
  static const Platform* instance = [] {
    auto p = Platform::create(small_config());
    EXPECT_TRUE(p.is_ok()) << p.status().to_string();
    return new Platform(std::move(p).value());
  }();
  return *instance;
}

// --------------------------------------------------------------- Platform

TEST(PlatformTest, PipelinePhasesRan) {
  const Platform& p = platform();
  EXPECT_GT(p.full_dataset().checkin_count(), 0u);
  EXPECT_GT(p.experiment_dataset().user_count(), 0u);
  EXPECT_LE(p.experiment_dataset().user_count(), p.full_dataset().user_count());
  EXPECT_EQ(p.mobility().size(), p.experiment_dataset().user_count());
  EXPECT_GT(p.crowd_model().total_placements(), 0u);
  EXPECT_GE(p.timings().acquisition_ms, 0.0);
  EXPECT_GT(p.timings().mining_ms, 0.0);
}

TEST(PlatformTest, ExperimentWindowRespected) {
  const Platform& p = platform();
  for (const data::CheckIn& c : p.experiment_dataset().checkins()) {
    EXPECT_GE(c.timestamp, p.config().experiment_start);
    EXPECT_LT(c.timestamp, p.config().experiment_end);
  }
}

TEST(PlatformTest, UserMobilityLookup) {
  const Platform& p = platform();
  const data::UserId known = p.experiment_dataset().users()[0];
  const patterns::UserMobility* mobility = p.user_mobility(known);
  ASSERT_NE(mobility, nullptr);
  EXPECT_EQ(mobility->user, known);
  EXPECT_EQ(p.user_mobility(999'999), nullptr);
}

TEST(PlatformTest, SequencesMatchMobilityDayCount) {
  const Platform& p = platform();
  const data::UserId user = p.experiment_dataset().users()[0];
  const auto sequences = p.sequences_for(user);
  EXPECT_EQ(sequences.day_count(), p.user_mobility(user)->recorded_days);
}

TEST(PlatformTest, PlaceGraphForPatternUser) {
  const Platform& p = platform();
  // Find a user with patterns.
  const auto it =
      std::find_if(p.mobility().begin(), p.mobility().end(),
                   [](const patterns::UserMobility& m) { return !m.patterns.empty(); });
  ASSERT_NE(it, p.mobility().end());
  const patterns::PlaceGraph graph = p.place_graph(it->user);
  EXPECT_FALSE(graph.nodes.empty());
}

TEST(PlatformTest, FromDatasetRunsPipeline) {
  const Platform& p = platform();
  auto again = Platform::from_dataset(p.full_dataset(), small_config());
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again->experiment_dataset().user_count(),
            p.experiment_dataset().user_count());
}

TEST(PlatformTest, EmptyDatasetFails) {
  EXPECT_FALSE(Platform::from_dataset(data::Dataset{}, small_config()).is_ok());
}

TEST(PlatformTest, ImpossibleCriteriaFail) {
  PlatformConfig config = small_config();
  config.min_active_days = 10'000;  // nobody qualifies
  EXPECT_FALSE(Platform::create(config).is_ok());
}

TEST(PlatformTest, FromCsvFilesRoundTrip) {
  const Platform& p = platform();
  const std::string dir = ::testing::TempDir() + "/crowdweb_csv_platform";
  std::filesystem::create_directories(dir);
  const data::Taxonomy& tax = p.taxonomy();
  ASSERT_TRUE(data::write_file(dir + "/venues.csv",
                               data::venues_to_csv(p.full_dataset(), tax))
                  .is_ok());
  ASSERT_TRUE(data::write_file(dir + "/checkins.csv",
                               data::checkins_to_csv(p.full_dataset(), tax))
                  .is_ok());
  auto reloaded =
      Platform::from_csv_files(dir + "/venues.csv", dir + "/checkins.csv", small_config());
  ASSERT_TRUE(reloaded.is_ok()) << reloaded.status().to_string();
  EXPECT_EQ(reloaded->experiment_dataset().user_count(),
            p.experiment_dataset().user_count());
  EXPECT_EQ(reloaded->crowd_model().total_placements(),
            p.crowd_model().total_placements());
  EXPECT_FALSE(
      Platform::from_csv_files("/no/venues.csv", "/no/checkins.csv", small_config())
          .is_ok());
}

// ------------------------------------------------------------ API routing

json::Value get_json(std::uint16_t port, const std::string& target, int expect = 200) {
  const auto response = http::get("127.0.0.1", port, target);
  EXPECT_TRUE(response.is_ok()) << target << ": " << response.status().to_string();
  EXPECT_EQ(response->status, expect) << target << " body: " << response->body;
  auto parsed = json::parse(response->body);
  EXPECT_TRUE(parsed.is_ok()) << target;
  return parsed.is_ok() ? std::move(parsed).value() : json::Value{};
}

class ApiFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<http::Server>(make_api_router(platform()));
    ASSERT_TRUE(server_->start().is_ok());
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<http::Server> server_;
};

TEST_F(ApiFixture, ViewerPageServed) {
  const auto response = http::get("127.0.0.1", server_->port(), "/");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("CrowdWeb"), std::string::npos);
  EXPECT_NE(response->body.find("<html"), std::string::npos);
}

TEST_F(ApiFixture, StatusEndpoint) {
  const json::Value status = get_json(server_->port(), "/api/status");
  EXPECT_EQ(status.find("full")->find("users")->as_int(),
            static_cast<std::int64_t>(platform().full_dataset().user_count()));
  EXPECT_EQ(status.find("windows")->as_int(), 24);
  EXPECT_GT(status.find("placements")->as_int(), 0);
}

TEST(StatusMirrorTest, TelemetryIsTheLastKeyAndEqualsTheTreeDump) {
  telemetry::Registry registry;
  registry.counter_family("test_requests_total", "Requests.", {"route"})
      .with_labels({"/api/\"x\""})
      .increment(5);
  registry.gauge("test_depth", "Depth.").set(-0.0);
  registry.histogram("test_seconds", "Seconds.", {0.1, 1.0}).observe(0.5);
  ApiOptions options;
  options.metrics = &registry;
  const http::Router router = make_api_router(platform(), options);
  http::Request request;
  request.method = "GET";
  request.path = "/api/status";
  const std::string body = router.dispatch(request).body;
  const std::string tail =
      ",\"telemetry\":" + json::dump_per_token(telemetry::render_json_tree(registry)) + "}";
  ASSERT_GE(body.size(), tail.size());
  EXPECT_EQ(body.substr(body.size() - tail.size()), tail);
  const auto parsed = json::parse(body);
  ASSERT_TRUE(parsed.is_ok()) << body;
  EXPECT_EQ(parsed->as_object().back().first, "telemetry");
  EXPECT_EQ(parsed->as_object().front().first, "full");
}

TEST_F(ApiFixture, UsersEndpoint) {
  const json::Value users = get_json(server_->port(), "/api/users");
  const auto& list = users.find("users")->as_array();
  EXPECT_EQ(list.size(), platform().mobility().size());
  EXPECT_TRUE(list[0].find("id") != nullptr);
  EXPECT_TRUE(list[0].find("patterns") != nullptr);
}

TEST_F(ApiFixture, UserPatternsEndpoint) {
  // Pick a user with patterns.
  const auto it = std::find_if(
      platform().mobility().begin(), platform().mobility().end(),
      [](const patterns::UserMobility& m) { return !m.patterns.empty(); });
  ASSERT_NE(it, platform().mobility().end());
  const json::Value doc = get_json(
      server_->port(), "/api/user/" + std::to_string(it->user) + "/patterns");
  EXPECT_EQ(doc.find("user")->as_int(), static_cast<std::int64_t>(it->user));
  const auto& patterns = doc.find("patterns")->as_array();
  EXPECT_EQ(patterns.size(), it->patterns.size());
  EXPECT_TRUE(patterns[0].find("elements")->as_array()[0].find("label")->is_string());
}

TEST_F(ApiFixture, UserGraphSvg) {
  const auto it = std::find_if(
      platform().mobility().begin(), platform().mobility().end(),
      [](const patterns::UserMobility& m) { return !m.patterns.empty(); });
  ASSERT_NE(it, platform().mobility().end());
  const auto response = http::get(
      "127.0.0.1", server_->port(), "/api/user/" + std::to_string(it->user) + "/graph.svg");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), "image/svg+xml");
  EXPECT_NE(response->body.find("<svg"), std::string::npos);
}

TEST_F(ApiFixture, UserTimelineSvg) {
  const auto it = std::find_if(
      platform().mobility().begin(), platform().mobility().end(),
      [](const patterns::UserMobility& m) { return !m.patterns.empty(); });
  ASSERT_NE(it, platform().mobility().end());
  const auto response = http::get(
      "127.0.0.1", server_->port(),
      "/api/user/" + std::to_string(it->user) + "/timeline.svg");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), "image/svg+xml");
  EXPECT_NE(response->body.find("visit timeline"), std::string::npos);
  const auto missing =
      http::get("127.0.0.1", server_->port(), "/api/user/424242/timeline.svg");
  ASSERT_TRUE(missing.is_ok());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(ApiFixture, RhythmSvg) {
  const auto response = http::get("127.0.0.1", server_->port(), "/api/rhythm.svg");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("Crowd rhythm"), std::string::npos);
}

TEST_F(ApiFixture, CrowdEndpoints) {
  const json::Value crowd = get_json(server_->port(), "/api/crowd/9");
  EXPECT_EQ(crowd.find("window")->as_int(), 9);
  EXPECT_EQ(crowd.find("label")->as_string(), "09:00-10:00");
  EXPECT_GE(crowd.find("total")->as_int(), 0);

  const auto map = http::get("127.0.0.1", server_->port(), "/api/crowd/9/map.svg");
  ASSERT_TRUE(map.is_ok());
  EXPECT_EQ(map->status, 200);
  EXPECT_NE(map->body.find("<svg"), std::string::npos);

  const json::Value geo = get_json(server_->port(), "/api/crowd/9/geojson");
  EXPECT_EQ(geo.find("type")->as_string(), "FeatureCollection");
}

TEST_F(ApiFixture, GroupsEndpoint) {
  const json::Value groups = get_json(server_->port(), "/api/groups/9");
  ASSERT_NE(groups.find("groups"), nullptr);
  for (const json::Value& group : groups.find("groups")->as_array()) {
    EXPECT_GE(group.find("users")->as_array().size(), 2u);
    EXPECT_TRUE(group.find("label")->is_string());
  }
}

TEST_F(ApiFixture, FlowEndpoints) {
  const json::Value flow = get_json(server_->port(), "/api/flow/9/12");
  EXPECT_EQ(flow.find("from_window")->as_int(), 9);
  EXPECT_EQ(flow.find("to_window")->as_int(), 12);
  EXPECT_GE(flow.find("total")->as_int(), 0);

  const auto map = http::get("127.0.0.1", server_->port(), "/api/flow/9/12/map.svg");
  ASSERT_TRUE(map.is_ok());
  EXPECT_EQ(map->status, 200);
}

TEST_F(ApiFixture, AnimationEndpoint) {
  const auto response = http::get("127.0.0.1", server_->port(), "/api/animation.svg");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), "image/svg+xml");
  EXPECT_NE(response->body.find("<animate "), std::string::npos);

  const auto slow =
      http::get("127.0.0.1", server_->port(), "/api/animation.svg?seconds=2");
  ASSERT_TRUE(slow.is_ok());
  EXPECT_EQ(slow->status, 200);
  EXPECT_NE(slow->body.find("dur=\"48.00s\""), std::string::npos);

  const auto bad =
      http::get("127.0.0.1", server_->port(), "/api/animation.svg?seconds=-1");
  ASSERT_TRUE(bad.is_ok());
  EXPECT_EQ(bad->status, 400);
}

TEST_F(ApiFixture, CommunitiesEndpoint) {
  const json::Value doc = get_json(server_->port(), "/api/communities");
  ASSERT_NE(doc.find("graph"), nullptr);
  EXPECT_GE(doc.find("graph")->find("users")->as_int(), 0);
  for (const json::Value& community : doc.find("communities")->as_array()) {
    EXPECT_GE(community.find("size")->as_int(), 2);
    EXPECT_EQ(community.find("size")->as_int(),
              static_cast<std::int64_t>(community.find("members")->as_array().size()));
  }
}

TEST_F(ApiFixture, AnalyzeEndpointMinesUploadedHistory) {
  // The booth scenario: a visitor's Thai-lunch week, a different venue
  // every day — only abstraction makes the pattern visible.
  std::string csv = "category,lat,lon,timestamp\n";
  for (int day = 2; day <= 8; ++day) {
    csv += "Coffee Shop,40.71,-74.00,2012-04-0" + std::to_string(day) + " 08:30:00\n";
    csv += "Thai Restaurant,40.7" + std::to_string(day % 3) +
           ",-73.99,2012-04-0" + std::to_string(day) + " 12:3" + std::to_string(day % 6) +
           ":00\n";
  }
  const auto response =
      http::fetch("127.0.0.1", server_->port(), "POST", "/api/analyze?support=0.9", csv);
  ASSERT_TRUE(response.is_ok());
  ASSERT_EQ(response->status, 200) << response->body;
  const auto doc = json::parse(response->body);
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc->find("records")->as_int(), 14);
  EXPECT_EQ(doc->find("recorded_days")->as_int(), 7);
  // Both check-ins collapse to Eatery; the daily "Eatery -> Eatery" is
  // collapsed too, so the strongest pattern is a single Eatery element
  // around the morning coffee time.
  const auto& patterns = doc->find("patterns")->as_array();
  ASSERT_FALSE(patterns.empty());
  EXPECT_EQ(patterns[0].find("elements")->as_array()[0].find("label")->as_string(),
            "Eatery");
  EXPECT_DOUBLE_EQ(patterns[0].find("support")->as_double(), 1.0);
}

TEST_F(ApiFixture, AnalyzeEndpointMinesWithPrefixSpanOnly) {
  // Every day: coffee, then the office. PrefixSpan finds Eatery, the
  // office label and Eatery -> office.
  std::string csv = "category,lat,lon,timestamp\n";
  for (int day = 2; day <= 8; ++day) {
    const std::string date = "2012-04-0" + std::to_string(day);
    csv += "Coffee Shop,40.71,-74.00," + date + " 08:30:00\n";
    csv += "Office,40.75,-73.98," + date + " 09:10:00\n";
  }
  const auto analyze = [&](const std::string& target) {
    auto response = http::fetch("127.0.0.1", server_->port(), "POST", target, csv);
    EXPECT_TRUE(response.is_ok()) << target;
    return response.is_ok() ? std::move(response).value() : http::ClientResponse{};
  };

  // Naming the one miner changes nothing.
  const http::ClientResponse implicit = analyze("/api/analyze");
  const http::ClientResponse named = analyze("/api/analyze?algorithm=prefixspan");
  ASSERT_EQ(implicit.status, 200) << implicit.body;
  ASSERT_EQ(named.status, 200) << named.body;
  EXPECT_EQ(named.body, implicit.body);
  const auto doc = json::parse(implicit.body);
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc->find("patterns")->as_array().size(), 3u);
  EXPECT_EQ(doc->find("algorithm"), nullptr);
  EXPECT_EQ(doc->find("closed"), nullptr);

  // Any other miner name is refused, naming the one there is.
  for (const char* algorithm : {"bide", "gsp"}) {
    const http::ClientResponse refused =
        analyze(std::string("/api/analyze?algorithm=") + algorithm);
    EXPECT_EQ(refused.status, 400) << algorithm;
    EXPECT_NE(refused.body.find("the only miner is prefixspan"), std::string::npos)
        << refused.body;
  }
}

TEST(AnalyzeEndpointTest, MinesPhaseTwosDaysUnderTheSequenceConfig) {
  // Uploading a corpus user's own history must reproduce that user's
  // phase-2 entry, also under a non-default day rule, for both category
  // label modes.
  for (const mining::LabelMode mode :
       {mining::LabelMode::kRootCategory, mining::LabelMode::kLeafCategory}) {
    SCOPED_TRACE(mode == mining::LabelMode::kRootCategory ? "root categories"
                                                          : "leaf categories");
    PlatformConfig config = small_config();
    config.sequences.mode = mode;
    config.sequences.collapse_repeats = false;
    config.sequences.min_day_length = 3;
    auto built = Platform::create(config);
    ASSERT_TRUE(built.is_ok()) << built.status().to_string();
    const Platform& p = *built;
    const patterns::UserMobility* subject = nullptr;
    for (const patterns::UserMobility& entry : p.mobility()) {
      if (subject == nullptr || entry.patterns.size() > subject->patterns.size())
        subject = &entry;
    }
    ASSERT_NE(subject, nullptr);
    ASSERT_GT(subject->patterns.size(), 0u);

    std::string csv = "category,lat,lon,timestamp\n";
    for (const data::CheckIn& c : p.experiment_dataset().checkins_for(subject->user)) {
      csv += crowdweb::format("{},{},{},{}\n", p.taxonomy().name(c.category),
                              c.position.lat, c.position.lon, format_timestamp(c.timestamp));
    }
    http::Server server(make_api_router(p));
    ASSERT_TRUE(server.start().is_ok());
    const auto analyzed =
        http::fetch("127.0.0.1", server.port(), "POST",
                    crowdweb::format("/api/analyze?algorithm=prefixspan&support={}",
                                     config.mining.min_support),
                    csv);
    const json::Value served =
        get_json(server.port(), crowdweb::format("/api/user/{}/patterns", subject->user));
    server.stop();
    ASSERT_TRUE(analyzed.is_ok());
    ASSERT_EQ(analyzed->status, 200) << analyzed->body;
    const auto doc = json::parse(analyzed->body);
    ASSERT_TRUE(doc.is_ok());
    EXPECT_EQ(doc->find("recorded_days")->as_int(),
              static_cast<std::int64_t>(subject->recorded_days));
    EXPECT_EQ(json::dump(*doc->find("patterns")), json::dump(*served.find("patterns")));
  }
}

TEST(AnalyzeEndpointTest, VenueLabelModeIsRefusedByName) {
  // Venue-id labels need the venue, which an upload does not carry.
  PlatformConfig config = small_config();
  config.sequences.mode = mining::LabelMode::kVenue;
  auto built = Platform::create(config);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const http::Router router = make_api_router(*built);
  http::Request request;
  request.method = "POST";
  request.path = "/api/analyze";
  request.version = "HTTP/1.1";
  request.body = "category,lat,lon,timestamp\nEatery,40.75,-73.98,2012-04-10 12:00:00\n";
  const http::Response response = router.dispatch(request);
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("kVenue"), std::string::npos) << response.body;
}

TEST_F(ApiFixture, AnalyzeEndpointOrdersEqualTimestampsByRow) {
  // Coffee, then the office, logged at the same second every day: row
  // order decides the day's order, on every call.
  std::string csv = "category,lat,lon,timestamp\n";
  for (int day = 10; day <= 29; ++day) {
    const std::string stamp = "2012-04-" + std::to_string(day) + " 08:30:00";
    csv += "Coffee Shop,40.71,-74.00," + stamp + "\n";
    csv += "Office,40.75,-73.98," + stamp + "\n";
  }
  const auto analyze = [&] {
    auto response =
        http::fetch("127.0.0.1", server_->port(), "POST", "/api/analyze?support=0.9", csv);
    EXPECT_TRUE(response.is_ok());
    return response.is_ok() ? std::move(response).value() : http::ClientResponse{};
  };
  const http::ClientResponse first = analyze();
  ASSERT_EQ(first.status, 200) << first.body;
  for (int call = 0; call < 3; ++call) EXPECT_EQ(analyze().body, first.body);

  const data::Taxonomy& taxonomy = platform().taxonomy();
  const auto root_name = [&](std::string_view category) {
    return std::string(taxonomy.name(taxonomy.root_of(*taxonomy.find(category))));
  };
  const auto doc = json::parse(first.body);
  ASSERT_TRUE(doc.is_ok());
  std::vector<std::vector<std::string>> sequences;
  for (const json::Value& pattern : doc->find("patterns")->as_array()) {
    std::vector<std::string> labels;
    for (const json::Value& element : pattern.find("elements")->as_array())
      labels.push_back(element.find("label")->as_string());
    sequences.push_back(std::move(labels));
  }
  const std::vector<std::string> row_order{root_name("Coffee Shop"), root_name("Office")};
  const std::vector<std::string> reversed{row_order[1], row_order[0]};
  EXPECT_NE(std::find(sequences.begin(), sequences.end(), row_order), sequences.end());
  EXPECT_EQ(std::find(sequences.begin(), sequences.end(), reversed), sequences.end());
}

TEST_F(ApiFixture, AnalyzeEndpointValidatesInput) {
  const auto bad_header =
      http::fetch("127.0.0.1", server_->port(), "POST", "/api/analyze", "a,b,c\n1,2,3\n");
  ASSERT_TRUE(bad_header.is_ok());
  EXPECT_EQ(bad_header->status, 400);

  const auto bad_category = http::fetch(
      "127.0.0.1", server_->port(), "POST", "/api/analyze",
      "category,lat,lon,timestamp\nMoon Base,40.7,-74.0,2012-04-02 09:00:00\n");
  ASSERT_TRUE(bad_category.is_ok());
  EXPECT_EQ(bad_category->status, 400);

  const auto bad_support = http::fetch(
      "127.0.0.1", server_->port(), "POST", "/api/analyze?support=7",
      "category,lat,lon,timestamp\nCoffee Shop,40.7,-74.0,2012-04-02 09:00:00\n");
  ASSERT_TRUE(bad_support.is_ok());
  EXPECT_EQ(bad_support->status, 400);

  const auto nan_support = http::fetch(
      "127.0.0.1", server_->port(), "POST", "/api/analyze?support=nan",
      "category,lat,lon,timestamp\nCoffee Shop,40.7,-74.0,2012-04-02 09:00:00\n");
  ASSERT_TRUE(nan_support.is_ok());
  EXPECT_EQ(nan_support->status, 400);

  const auto empty = http::fetch("127.0.0.1", server_->port(), "POST", "/api/analyze",
                                 "category,lat,lon,timestamp\n");
  ASSERT_TRUE(empty.is_ok());
  EXPECT_EQ(empty->status, 400);

  // GSP is a test-only reference, not a served miner.
  const auto gsp = http::fetch(
      "127.0.0.1", server_->port(), "POST", "/api/analyze?algorithm=gsp",
      "category,lat,lon,timestamp\nCoffee Shop,40.7,-74.0,2012-04-02 09:00:00\n");
  ASSERT_TRUE(gsp.is_ok());
  EXPECT_EQ(gsp->status, 400);
  EXPECT_NE(gsp->body.find("the only miner is prefixspan"), std::string::npos) << gsp->body;

  const auto wrong_method = http::get("127.0.0.1", server_->port(), "/api/analyze");
  ASSERT_TRUE(wrong_method.is_ok());
  EXPECT_EQ(wrong_method->status, 405);
}

TEST_F(ApiFixture, PredictEndpoint) {
  const auto it = std::find_if(
      platform().mobility().begin(), platform().mobility().end(),
      [](const patterns::UserMobility& m) { return !m.patterns.empty(); });
  ASSERT_NE(it, platform().mobility().end());
  const json::Value doc = get_json(
      server_->port(), "/api/predict/" + std::to_string(it->user) + "?minute=540");
  EXPECT_EQ(doc.find("minute")->as_int(), 540);
  EXPECT_EQ(doc.find("predictor")->as_string(), "ensemble");
  const auto& predictions = doc.find("predictions")->as_array();
  ASSERT_FALSE(predictions.empty());
  EXPECT_TRUE(predictions[0].find("label")->is_string());
  // Scores descend.
  for (std::size_t i = 1; i < predictions.size(); ++i) {
    EXPECT_LE(predictions[i].find("score")->as_double(),
              predictions[i - 1].find("score")->as_double());
  }
  const auto bad =
      http::get("127.0.0.1", server_->port(),
                "/api/predict/" + std::to_string(it->user) + "?minute=5000");
  ASSERT_TRUE(bad.is_ok());
  EXPECT_EQ(bad->status, 400);
  const auto missing = http::get("127.0.0.1", server_->port(), "/api/predict/424242");
  ASSERT_TRUE(missing.is_ok());
  EXPECT_EQ(missing->status, 404);
}

TEST_F(ApiFixture, BadInputsRejected) {
  const auto bad_window = http::get("127.0.0.1", server_->port(), "/api/crowd/99");
  ASSERT_TRUE(bad_window.is_ok());
  EXPECT_EQ(bad_window->status, 400);

  const auto junk_window = http::get("127.0.0.1", server_->port(), "/api/crowd/abc");
  ASSERT_TRUE(junk_window.is_ok());
  EXPECT_EQ(junk_window->status, 400);

  const auto unknown_user =
      http::get("127.0.0.1", server_->port(), "/api/user/424242/patterns");
  ASSERT_TRUE(unknown_user.is_ok());
  EXPECT_EQ(unknown_user->status, 404);

  const auto bad_flow = http::get("127.0.0.1", server_->port(), "/api/flow/9/99");
  ASSERT_TRUE(bad_flow.is_ok());
  EXPECT_EQ(bad_flow->status, 400);

  // One past the largest user id must not wrap onto user 0.
  for (const char* path :
       {"/api/user/4294967296/patterns", "/api/user/4294967296/graph.svg",
        "/api/user/4294967296/timeline.svg", "/api/predict/4294967296"}) {
    const auto wrapped = http::get("127.0.0.1", server_->port(), path);
    ASSERT_TRUE(wrapped.is_ok()) << path;
    EXPECT_EQ(wrapped->status, 400) << path;
    EXPECT_NE(wrapped->body.find("[0, 4294967295]"), std::string::npos) << wrapped->body;
  }

  // NaN fails no range test; the parser itself must refuse it.
  const auto nan_seconds =
      http::get("127.0.0.1", server_->port(), "/api/animation.svg?seconds=nan");
  ASSERT_TRUE(nan_seconds.is_ok());
  EXPECT_EQ(nan_seconds->status, 400);

  const auto wrong_method =
      http::fetch("127.0.0.1", server_->port(), "POST", "/api/status");
  ASSERT_TRUE(wrong_method.is_ok());
  EXPECT_EQ(wrong_method->status, 405);
}

// ------------------------------------------------------------ golden bytes

/// FNV-1a 64 over a body.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Every rendered read route on the fixed-seed test corpus. The
/// equivalence suites compare deployments with each other, so a change
/// to how a body is written (number spelling, escaping, key order) would
/// pass them unseen; these fingerprints pin the bytes themselves.
std::vector<std::string> golden_targets() {
  std::vector<std::string> targets = {"/api/users", "/api/animation.svg", "/api/rhythm.svg",
                                      "/api/communities"};
  for (const int window : {0, 8, 9, 13, 17, 23}) {
    const std::string base = "/api/crowd/" + std::to_string(window);
    targets.push_back(base);
    targets.push_back(base + "/map.svg");
    targets.push_back(base + "/geojson");
    targets.push_back("/api/groups/" + std::to_string(window));
  }
  for (const auto& [from, to] : {std::pair{8, 9}, std::pair{9, 12}, std::pair{17, 18}}) {
    const std::string base = "/api/flow/" + std::to_string(from) + "/" + std::to_string(to);
    targets.push_back(base);
    targets.push_back(base + "/map.svg");
  }
  // The first four users with patterns, and the first without if any.
  int with_patterns = 0;
  int without_patterns = 0;
  for (const patterns::UserMobility& mobility : platform().mobility()) {
    int& picked = mobility.patterns.empty() ? without_patterns : with_patterns;
    if (picked == (mobility.patterns.empty() ? 1 : 4)) continue;
    ++picked;
    const std::string base = "/api/user/" + std::to_string(mobility.user);
    targets.push_back(base + "/patterns");
    targets.push_back(base + "/graph.svg");
    targets.push_back(base + "/timeline.svg");
    targets.push_back("/api/predict/" + std::to_string(mobility.user));
  }
  return targets;
}

struct GoldenBody {
  const char* target;
  std::size_t length;
  std::uint64_t fnv;
};

// Regenerate only for an intended change of the bytes; the failure
// message prints the new table.
constexpr GoldenBody kGoldenBodies[] = {
    {"/api/users", 2274, 0xa35a58c7404adfe1ull},
    {"/api/animation.svg", 42419, 0x22bfb88267fb0687ull},
    {"/api/rhythm.svg", 17735, 0x35abded32a746ca1ull},
    {"/api/communities", 49, 0xeed9d54ea2b2d8feull},
    {"/api/crowd/0", 78, 0x2557bb2997c64b66ull},
    {"/api/crowd/0/map.svg", 9583, 0x3ebf2e886a03dff9ull},
    {"/api/crowd/0/geojson", 42, 0x52397dcff1cb45d6ull},
    {"/api/groups/0", 13, 0x37843c78294022bfull},
    {"/api/crowd/8", 945, 0x8c15c5383a312e76ull},
    {"/api/crowd/8/map.svg", 13441, 0xe73c7259ef6e0125ull},
    {"/api/crowd/8/geojson", 3749, 0xb621971e8da46016ull},
    {"/api/groups/8", 338, 0x5f4d9176e9f93fbull},
    {"/api/crowd/9", 2263, 0xd9f20eadcde4638ull},
    {"/api/crowd/9/map.svg", 15242, 0xb6b977187a91452cull},
    {"/api/crowd/9/geojson", 9331, 0xeec16b6ab9c22cdbull},
    {"/api/groups/9", 133, 0x3124c1b6d9083a91ull},
    {"/api/crowd/13", 367, 0xb5813ec5e7b2f498ull},
    {"/api/crowd/13/map.svg", 11307, 0xaf503a9f8cd51fe0ull},
    {"/api/crowd/13/geojson", 1289, 0x60d3a8d315144f32ull},
    {"/api/groups/13", 106, 0x5657be3b070f2b46ull},
    {"/api/crowd/17", 366, 0xfb4ee50c5d1087ebull},
    {"/api/crowd/17/map.svg", 11311, 0x537bdee577f3c3bdull},
    {"/api/crowd/17/geojson", 1284, 0x817f3dc924165f18ull},
    {"/api/groups/17", 122, 0xa81c47dcb507f9fbull},
    {"/api/crowd/23", 79, 0x27dcb06bc4843d41ull},
    {"/api/crowd/23/map.svg", 9583, 0xd84e571c358da1e3ull},
    {"/api/crowd/23/geojson", 42, 0x52397dcff1cb45d6ull},
    {"/api/groups/23", 13, 0x37843c78294022bfull},
    {"/api/flow/8/9", 719, 0x9c9a05733466a249ull},
    {"/api/flow/8/9/map.svg", 13581, 0xee798c5e0ae14e5eull},
    {"/api/flow/9/12", 1130, 0xedd704d461958898ull},
    {"/api/flow/9/12/map.svg", 12754, 0xcc91f0dc18a19536ull},
    {"/api/flow/17/18", 188, 0x99977b573e0cd34ull},
    {"/api/flow/17/18/map.svg", 10097, 0x9f2608c262c46562ull},
    {"/api/user/0/patterns", 559, 0xd8cf8fe60d9fe6f0ull},
    {"/api/user/0/graph.svg", 2397, 0x2302c5c20de528c9ull},
    {"/api/user/0/timeline.svg", 12885, 0x279b8a703ca7dd8aull},
    {"/api/predict/0", 298, 0x9a9400c746ad8988ull},
    {"/api/user/1/patterns", 500, 0xe3ece9dcaf3363f7ull},
    {"/api/user/1/graph.svg", 2397, 0x88784adebd2339f4ull},
    {"/api/user/1/timeline.svg", 11134, 0x220f61de2fec0cc8ull},
    {"/api/predict/1", 298, 0xdd2df7f8f126b82bull},
    {"/api/user/2/patterns", 385, 0xb20e675ae86c9992ull},
    {"/api/user/2/graph.svg", 1533, 0x2a1e205427abc61eull},
    {"/api/user/2/timeline.svg", 8224, 0x4af0fdbc1af0c8a8ull},
    {"/api/predict/2", 297, 0x58f6236a15a3bd16ull},
    {"/api/user/3/patterns", 4131, 0x85c6a9f8a0bd5557ull},
    {"/api/user/3/graph.svg", 3671, 0x54f430ef10427038ull},
    {"/api/user/3/timeline.svg", 20622, 0xac45930c476f007dull},
    {"/api/predict/3", 331, 0x9fafef01eadaed43ull},
};

TEST(GoldenBytesTest, EveryRenderedRouteKeepsItsBytes) {
  const http::Router router = make_api_router(platform());
  const std::vector<std::string> targets = golden_targets();
  std::string actual_table;
  std::size_t mismatches = 0;
  ASSERT_EQ(targets.size(), std::size(kGoldenBodies));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    http::Request request;
    request.method = "GET";
    request.path = targets[i];
    const http::Response response = router.dispatch(request);
    EXPECT_EQ(response.status, 200) << targets[i];
    const std::uint64_t fnv = fnv1a64(response.body);
    actual_table += crowdweb::format("    {{\"{}\", {}, 0x{:x}ull}},\n", targets[i],
                                     response.body.size(), fnv);
    const GoldenBody& golden = kGoldenBodies[i];
    if (targets[i] != golden.target || response.body.size() != golden.length ||
        fnv != golden.fnv) {
      ++mismatches;
      ADD_FAILURE() << targets[i] << ": " << response.body.size() << " bytes, fnv 0x"
                    << std::hex << fnv;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "actual table:\n" << actual_table;
}

}  // namespace
}  // namespace crowdweb::core
