// Telemetry subsystem tests: registry correctness under concurrency,
// Prometheus exposition validity, scoped timers, cardinality guards,
// route-pattern labels, and a full /metrics scrape over a real socket
// cross-checked against docs/OBSERVABILITY.md.
//
// Every suite here is named Telemetry* so CI can select the whole group
// with `ctest -R '^Telemetry'` (the sanitizer job does exactly that).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/platform.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "json/json.hpp"
#include "reference/render_oracle.hpp"
#include "shard/api.hpp"
#include "shard/router.hpp"
#include "store/store.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timer.hpp"
#include "util/log.hpp"

namespace crowdweb {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::Registry;
using telemetry::ScopedTimer;

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kError); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

// ------------------------------------------------------------- registry

TEST(TelemetryRegistryTest, CounterStartsAtZeroAndIncrements) {
  Registry registry;
  Counter& counter = registry.counter("test_events_total", "Test events.");
  EXPECT_EQ(counter.value(), 0u);
  counter.increment();
  counter.increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(TelemetryRegistryTest, RegistrationIsIdempotent) {
  Registry registry;
  Counter& a = registry.counter("test_events_total", "Test events.");
  Counter& b = registry.counter("test_events_total", "Test events.");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.histogram("test_seconds", "Test.", {0.1, 1.0});
  Histogram& h2 = registry.histogram("test_seconds", "Test.", {0.1, 1.0});
  EXPECT_EQ(&h1, &h2);
}

TEST(TelemetryRegistryTest, KindMismatchReturnsDetachedShadow) {
  Registry registry;
  registry.counter("test_metric", "A counter.");
  // Re-registering the same name as a gauge is a programming error; the
  // registry must survive it and keep the shadow out of the exposition.
  Gauge& shadow = registry.gauge("test_metric", "Oops, a gauge.");
  shadow.set(7.0);
  const std::string text = telemetry::render_prometheus(registry);
  EXPECT_NE(text.find("# TYPE test_metric counter"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE test_metric gauge"), std::string::npos);
}

TEST(TelemetryRegistryTest, GaugeSetAndAdd) {
  Registry registry;
  Gauge& gauge = registry.gauge("test_depth", "Test depth.");
  gauge.set(10.0);
  gauge.add(-3.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
}

TEST(TelemetryRegistryTest, HistogramBucketsFillByBound) {
  Registry registry;
  Histogram& histogram =
      registry.histogram("test_seconds", "Test durations.", {0.01, 0.1, 1.0});
  histogram.observe(0.005);  // bucket 0 (le 0.01)
  histogram.observe(0.05);   // bucket 1 (le 0.1)
  histogram.observe(0.05);
  histogram.observe(0.5);    // bucket 2 (le 1.0)
  histogram.observe(30.0);   // +Inf
  EXPECT_EQ(histogram.cell(0), 1u);
  EXPECT_EQ(histogram.cell(1), 2u);
  EXPECT_EQ(histogram.cell(2), 1u);
  EXPECT_EQ(histogram.cell(3), 1u);
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_NEAR(histogram.sum(), 30.605, 1e-9);
}

TEST(TelemetryRegistryTest, HistogramBoundaryValueLandsInLowerBucket) {
  Registry registry;
  Histogram& histogram = registry.histogram("test_seconds", "Test.", {0.1, 1.0});
  histogram.observe(0.1);  // le is inclusive
  EXPECT_EQ(histogram.cell(0), 1u);
  EXPECT_EQ(histogram.cell(1), 0u);
}

TEST(TelemetryRegistryTest, LabeledFamilyKeepsSeriesApart) {
  Registry registry;
  telemetry::CounterFamily& family =
      registry.counter_family("test_requests_total", "Requests.", {"method", "route"});
  family.with_labels({"GET", "/a"}).increment(2);
  family.with_labels({"GET", "/b"}).increment();
  family.with_labels({"POST", "/a"}).increment();
  EXPECT_EQ(family.series_count(), 3u);
  EXPECT_EQ(family.with_labels({"GET", "/a"}).value(), 2u);
  EXPECT_EQ(family.total(), 4u);
}

// --------------------------------------------------------- concurrency

TEST(TelemetryConcurrencyTest, CountersSumExactlyAcrossThreads) {
  Registry registry;
  Counter& counter = registry.counter("test_events_total", "Test events.");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(TelemetryConcurrencyTest, HistogramObservationsSumExactlyAcrossThreads) {
  Registry registry;
  Histogram& histogram =
      registry.histogram("test_seconds", "Test.", telemetry::default_latency_buckets());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i)
        histogram.observe(0.001 * static_cast<double>((t + i) % 100));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(TelemetryConcurrencyTest, LabelResolutionRacesCreateEachSeriesOnce) {
  Registry registry;
  telemetry::CounterFamily& family =
      registry.counter_family("test_requests_total", "Requests.", {"route"});
  constexpr int kThreads = 8;
  constexpr int kRoutes = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&family] {
      for (int i = 0; i < 1'000; ++i)
        family.with_labels({"/route/" + std::to_string(i % kRoutes)}).increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(family.series_count(), kRoutes);
  EXPECT_EQ(family.total(), static_cast<std::uint64_t>(kThreads) * 1'000);
}

TEST(TelemetryConcurrencyTest, ScrapingWhileWritingStaysConsistent) {
  Registry registry;
  Histogram& histogram = registry.histogram("test_seconds", "Test.", {0.01, 0.1, 1.0});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) histogram.observe(0.05);
  });
  // Each scrape must satisfy the Prometheus invariant even mid-write:
  // cumulative buckets non-decreasing and +Inf bucket == _count.
  const std::regex bucket_line(R"re(test_seconds_bucket\{le="([^"]+)"\} (\d+))re");
  for (int scrape = 0; scrape < 50; ++scrape) {
    const std::string text = telemetry::render_prometheus(registry);
    std::uint64_t previous = 0;
    std::uint64_t inf_bucket = 0;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), bucket_line);
         it != std::sregex_iterator(); ++it) {
      const std::uint64_t value = std::stoull((*it)[2]);
      EXPECT_GE(value, previous);
      previous = value;
      if ((*it)[1] == "+Inf") inf_bucket = value;
    }
    const std::regex count_line(R"(test_seconds_count (\d+))");
    std::smatch match;
    ASSERT_TRUE(std::regex_search(text, match, count_line));
    EXPECT_EQ(inf_bucket, std::stoull(match[1]));
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// --------------------------------------------------------- scoped timer

TEST(TelemetryTimerTest, RecordsElapsedIntoHistogram) {
  Registry registry;
  Histogram& histogram = registry.histogram("test_seconds", "Test.", {0.001, 10.0});
  {
    ScopedTimer timer(histogram);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(histogram.count(), 1u);
  // 5 ms of sleep cannot land in the 1 ms bucket, and should not take 10 s.
  EXPECT_EQ(histogram.cell(0), 0u);
  EXPECT_EQ(histogram.cell(1), 1u);
  EXPECT_GE(histogram.sum(), 0.005);
}

TEST(TelemetryTimerTest, StopRecordsOnceAndReturnsElapsed) {
  Registry registry;
  Histogram& histogram = registry.histogram("test_seconds", "Test.", {10.0});
  ScopedTimer timer(histogram);
  const double elapsed = timer.stop();
  EXPECT_GE(elapsed, 0.0);
  EXPECT_EQ(timer.stop(), 0.0);  // second stop is a no-op
  EXPECT_EQ(histogram.count(), 1u);  // destructor must not double-record
}

TEST(TelemetryTimerTest, CancelDropsTheMeasurement) {
  Registry registry;
  Histogram& histogram = registry.histogram("test_seconds", "Test.", {10.0});
  {
    ScopedTimer timer(histogram);
    timer.cancel();
  }
  EXPECT_EQ(histogram.count(), 0u);
}

TEST(TelemetryTimerTest, NullHistogramIsInert) {
  ScopedTimer timer(static_cast<Histogram*>(nullptr));
  EXPECT_EQ(timer.stop(), 0.0);
}

// ---------------------------------------------------- cardinality guard

TEST(TelemetryCardinalityTest, OverflowCollapsesIntoOtherSeries) {
  Registry registry;
  telemetry::CounterFamily& family = registry.counter_family(
      "test_requests_total", "Requests.", {"route"}, /*max_series=*/3);
  family.with_labels({"/a"}).increment();
  family.with_labels({"/b"}).increment();
  family.with_labels({"/c"}).increment();
  EXPECT_EQ(registry.dropped_label_sets(), 0u);
  // Past the cap: both runaway label sets share the overflow series.
  Counter& overflow1 = family.with_labels({"/d"});
  Counter& overflow2 = family.with_labels({"/e"});
  EXPECT_EQ(&overflow1, &overflow2);
  overflow1.increment();
  overflow2.increment();
  EXPECT_EQ(registry.dropped_label_sets(), 2u);
  EXPECT_EQ(family.with_labels({"other"}).value(), 2u);
  // Known series are unaffected and the total stays exact.
  EXPECT_EQ(family.with_labels({"/a"}).value(), 1u);
  EXPECT_EQ(family.total(), 5u);
  // The drop counter is part of the exposition.
  const std::string text = telemetry::render_prometheus(registry);
  EXPECT_NE(text.find("crowdweb_telemetry_dropped_label_sets_total 2"),
            std::string::npos);
}

// ------------------------------------------------------------ exposition

/// Splits exposition text into lines (no trailing empty line).
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  return lines;
}

TEST(TelemetryExpositionTest, EveryLineIsValidPrometheusText) {
  Registry registry;
  registry.counter("test_events_total", "Events with \"quotes\" and \\slashes\\.")
      .increment(3);
  registry.gauge("test_depth", "Depth.").set(2.5);
  registry.histogram("test_seconds", "Durations.", {0.1, 1.0}).observe(0.5);
  registry.counter_family("test_by_route_total", "By route.", {"method", "route"})
      .with_labels({"GET", "/a/:id"})
      .increment();

  const std::regex help_line(R"(^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$)");
  const std::regex type_line(R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$)");
  const std::regex sample_line(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$)");
  for (const std::string& line : lines_of(telemetry::render_prometheus(registry))) {
    const bool valid = std::regex_match(line, help_line) ||
                       std::regex_match(line, type_line) ||
                       std::regex_match(line, sample_line);
    EXPECT_TRUE(valid) << "invalid exposition line: " << line;
  }
}

TEST(TelemetryExpositionTest, HistogramRendersCumulativeBucketsAndInf) {
  Registry registry;
  Histogram& histogram = registry.histogram("test_seconds", "Test.", {0.1, 1.0});
  histogram.observe(0.05);
  histogram.observe(0.5);
  histogram.observe(5.0);
  const std::string text = telemetry::render_prometheus(registry);
  EXPECT_NE(text.find("test_seconds_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_seconds_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("test_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_seconds_count 3"), std::string::npos);
}

TEST(TelemetryExpositionTest, LabelValuesAreEscaped) {
  Registry registry;
  registry.counter_family("test_total", "Test.", {"path"})
      .with_labels({"a\"b\\c\nd"})
      .increment();
  const std::string text = telemetry::render_prometheus(registry);
  EXPECT_NE(text.find(R"(test_total{path="a\"b\\c\nd"} 1)"), std::string::npos);
}

TEST(TelemetryExpositionTest, JsonMirrorCarriesValues) {
  Registry registry;
  registry.counter("test_events_total", "Events.").increment(7);
  registry.histogram("test_seconds", "Durations.", {1.0}).observe(0.5);
  std::string mirror;
  telemetry::render_json(registry, mirror);
  const auto parsed = json::parse(mirror);
  ASSERT_TRUE(parsed.is_ok()) << mirror;
  const json::Value& root = *parsed;
  const json::Value* counter = root.find("test_events_total");
  ASSERT_NE(counter, nullptr);
  const json::Value* series = counter->find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->as_array().at(0).find("value")->as_int(), 7);
  const json::Value* histogram = root.find("test_seconds");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->find("series")->as_array().at(0).find("count")->as_int(), 1);
  // One shape for every family, the registry's own counter included.
  for (const auto& [name, metric] : root.as_object())
    EXPECT_NE(metric.find("series"), nullptr) << name;
  EXPECT_NE(root.find("crowdweb_telemetry_dropped_label_sets_total"), nullptr);
}

/// The mirror appended straight into a body, as /api/status writes it.
std::string mirror_of(const Registry& registry) {
  std::string out;
  telemetry::render_json(registry, out);
  return out;
}

TEST(TelemetryExpositionTest, JsonMirrorEqualsTheTreeDump) {
  // The direct writer against json::dump of the json::Value tree it
  // replaced, on every kind, empty families, bound-less histograms,
  // label values and help text that need escaping, and every special
  // gauge value.
  Registry registry;
  registry.counter("test_events_total", "Events \"quoted\" \\ and\nnewline.").increment(7);
  registry.counter("test_huge_total", "Past INT64_MAX.").increment(~std::uint64_t{0} - 3);
  auto& labelled = registry.counter_family("test_labelled_total", "Labelled.", {"path", "code"});
  for (const char* value : {"plain", "quote\"", "back\\slash", "new\nline", "ctl\x01",
                            "caf\xc3\xa9 \xe2\x98\x95", ""})
    labelled.with_labels({value, "200"}).increment(3);
  registry.counter_family("test_empty_total", "No series.", {"path"});
  auto& gauges = registry.gauge_family("test_gauge", "Gauges.", {"value"});
  const double kInf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, double> specials[] = {
      {"nan", std::nan("")}, {"inf", kInf},  {"-inf", -kInf}, {"-0", -0.0},
      {"3", 3.0},            {"0.1", 0.1},   {"1e300", 1e300}, {"-2", -2.0}};
  for (const auto& [label, value] : specials) gauges.with_labels({label}).set(value);
  registry.gauge_family("test_empty_gauge", "No series.", {"shard"});
  registry.histogram("test_unbounded_seconds", "No bounds.", {}).observe(0.25);
  registry.histogram("test_idle_seconds", "Never observed.", {0.5, 1.0});
  auto& stages = registry.histogram_family("test_stage_seconds", "Stages.", {"stage"},
                                           telemetry::default_duration_buckets());
  for (const char* stage : {"merge", "mine", "crowd\"x"})
    for (int i = 0; i < 40; ++i) stages.with_labels({stage}).observe(0.013 * i);
  registry.histogram_family("test_empty_seconds", "No series.", {"stage"}, {1.0});

  const std::string mirror = mirror_of(registry);
  const json::Value tree = telemetry::render_json_tree(registry);
  EXPECT_EQ(mirror, json::dump(tree));
  EXPECT_EQ(mirror, json::dump_per_token(tree));
  EXPECT_TRUE(json::parse(mirror).is_ok()) << mirror;

  // An empty registry still holds its own drop counter.
  const Registry fresh;
  EXPECT_EQ(mirror_of(fresh), json::dump_per_token(telemetry::render_json_tree(fresh)));
}

TEST(TelemetryRegistryTest, RepeatedLabelNamesReturnDetachedShadow) {
  // {a="x",a="y"} is not valid exposition; such a family is detached.
  Registry registry;
  registry.counter_family("test_twice_total", "Twice.", {"a", "a"}).with_labels({"x", "y"})
      .increment();
  EXPECT_EQ(telemetry::render_prometheus(registry).find("test_twice_total"),
            std::string::npos);
}

// ----------------------------------------------------- route labels e2e

http::Router pattern_router() {
  http::Router router;
  router.get("/user/:id/patterns",
             [](const http::Request&, const http::PathParams&) {
               return http::Response::text(200, "ok");
             });
  return router;
}

TEST(TelemetryRouteLabelTest, RoutesLabelWithPatternNotRawUrl) {
  Registry registry;
  http::ServerConfig config;
  config.metrics = &registry;
  http::Server server(pattern_router(), config);
  ASSERT_TRUE(server.start().is_ok());
  // Different raw URLs, same route pattern: must land on ONE series.
  ASSERT_TRUE(http::get("127.0.0.1", server.port(), "/user/1/patterns").is_ok());
  ASSERT_TRUE(http::get("127.0.0.1", server.port(), "/user/2/patterns").is_ok());
  ASSERT_TRUE(http::get("127.0.0.1", server.port(), "/missing").is_ok());
  server.stop();

  const std::string text = telemetry::render_prometheus(registry);
  EXPECT_NE(text.find(
                R"(crowdweb_http_requests_total{method="GET",route="/user/:id/patterns"} 2)"),
            std::string::npos);
  // Raw URLs must never become label values.
  EXPECT_EQ(text.find("/user/1/patterns"), std::string::npos);
  EXPECT_EQ(text.find("/user/2/patterns"), std::string::npos);
  // 404s collapse into the bounded "(unmatched)" series.
  EXPECT_NE(
      text.find(
          R"re(crowdweb_http_requests_total{method="GET",route="(unmatched)"} 1)re"),
      std::string::npos);
  EXPECT_EQ(text.find("/missing"), std::string::npos);
}

// ----------------------------------------------------- /metrics e2e

core::PlatformConfig e2e_config(Registry* metrics) {
  core::PlatformConfig config;
  config.seed = 42;
  config.small_corpus = true;
  config.min_active_days = 20;
  config.mining.min_support = 0.25;
  config.metrics = metrics;
  return config;
}

/// Base metric names declared by `# TYPE` lines, mapped to their type.
std::map<std::string, std::string> families_of(const std::string& text) {
  std::map<std::string, std::string> families;
  const std::regex type_line(R"(# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+))");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), type_line);
       it != std::sregex_iterator(); ++it)
    families[(*it)[1]] = (*it)[2];
  return families;
}

/// Every line of `text` parses as Prometheus text format.
void expect_parses(const std::string& text) {
  const std::regex comment_line(R"(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*$)");
  const std::regex sample_line(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$)");
  for (const std::string& line : lines_of(text)) {
    EXPECT_TRUE(std::regex_match(line, comment_line) ||
                std::regex_match(line, sample_line))
        << "invalid exposition line: " << line;
  }
}

/// Acceptance cross-check: every exported family is documented in
/// docs/OBSERVABILITY.md by its exact name.
void expect_documented(const std::map<std::string, std::string>& families) {
#ifdef CROWDWEB_DOCS_DIR
  std::ifstream docs(std::string(CROWDWEB_DOCS_DIR) + "/OBSERVABILITY.md");
  ASSERT_TRUE(docs.is_open()) << "docs/OBSERVABILITY.md missing";
  std::stringstream buffer;
  buffer << docs.rdbuf();
  const std::string docs_text = buffer.str();
  for (const auto& [name, type] : families) {
    EXPECT_NE(docs_text.find(name), std::string::npos)
        << "metric " << name << " (" << type << ") is not documented in "
        << "docs/OBSERVABILITY.md";
  }
#else
  (void)families;
#endif
}

TEST(TelemetryMetricsEndpointTest, ScrapeCoversEverySubsystemAndParses) {
  Registry registry;
  auto platform = core::Platform::create(e2e_config(&registry));
  ASSERT_TRUE(platform.is_ok()) << platform.status().to_string();

  auto worker = core::make_ingest_worker(*platform);
  ASSERT_TRUE(worker->start().is_ok());

  core::ApiOptions api_options;
  api_options.ingest = worker.get();
  api_options.metrics = &registry;
  http::ServerConfig server_config;
  server_config.metrics = &registry;
  http::Server server(core::make_api_router(*platform, api_options), server_config);
  ASSERT_TRUE(server.start().is_ok());

  // Exercise the API so http series exist, then scrape.
  ASSERT_TRUE(http::get("127.0.0.1", server.port(), "/api/status").is_ok());
  const auto response = http::get("127.0.0.1", server.port(), "/metrics");
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), telemetry::kPrometheusContentType);

  expect_parses(response->body);

  // The scrape covers all four subsystems of the issue: http, ingest
  // (queue + epoch), pipeline stages, and the platform batch build.
  const auto families = families_of(response->body);
  for (const char* required :
       {"crowdweb_http_requests_total", "crowdweb_http_request_duration_seconds",
        "crowdweb_ingest_queue_depth", "crowdweb_ingest_epoch",
        "crowdweb_ingest_epochs_published_total",
        "crowdweb_ingest_epoch_rebuild_duration_seconds",
        "crowdweb_ingest_rebuild_stage_duration_seconds",
        "crowdweb_platform_build_stage_duration_seconds"}) {
    EXPECT_TRUE(families.contains(required)) << "missing family: " << required;
  }
  EXPECT_EQ(families.at("crowdweb_http_requests_total"), "counter");
  EXPECT_EQ(families.at("crowdweb_ingest_queue_depth"), "gauge");
  EXPECT_EQ(families.at("crowdweb_ingest_epoch_rebuild_duration_seconds"), "histogram");

  // The worker published at least the base epoch before the scrape.
  const std::regex epoch_line(R"(crowdweb_ingest_epoch\{shard="0"\} (\d+))");
  std::smatch match;
  const std::string& body = response->body;
  ASSERT_TRUE(std::regex_search(body, match, epoch_line));
  EXPECT_GE(std::stoull(match[1]), 1u);

  // /api/status mirrors the registry under "telemetry".
  const auto status_response = http::get("127.0.0.1", server.port(), "/api/status");
  ASSERT_TRUE(status_response.is_ok());
  const auto status_json = json::parse(status_response->body);
  ASSERT_TRUE(status_json.is_ok());
  const json::Value* mirror = status_json->find("telemetry");
  ASSERT_NE(mirror, nullptr);
  EXPECT_NE(mirror->find("crowdweb_http_requests_total"), nullptr);

  server.stop();
  worker->stop();

  expect_documented(families);
}

/// The `shard` label values on the sample lines of the per-worker
/// families (crowdweb_ingest_*, crowdweb_mining_*, crowdweb_store_*);
/// "(none)" for a line without one.
std::set<std::string> worker_shard_labels(const std::string& text) {
  const std::regex worker_line(R"(^crowdweb_(ingest|mining|store)_.*)");
  const std::regex shard_label(R"(shard="([^"]*)\")");
  std::set<std::string> shards;
  for (const std::string& line : lines_of(text)) {
    if (!std::regex_match(line, worker_line)) continue;
    std::smatch match;
    shards.insert(std::regex_search(line, match, shard_label) ? match[1].str() : "(none)");
  }
  return shards;
}

/// The per-worker family names among `names`.
template <typename Names>
std::set<std::string> worker_families(const Names& names) {
  std::set<std::string> out;
  for (const auto& entry : names) {
    const std::string& name = entry.first;
    if (name.starts_with("crowdweb_ingest_") || name.starts_with("crowdweb_mining_") ||
        name.starts_with("crowdweb_store_"))
      out.insert(name);
  }
  return out;
}

/// The value of the sample line `series` (name plus label block), or -1.
double series_value(const std::string& text, const std::string& series) {
  for (const std::string& line : lines_of(text))
    if (line.starts_with(series + " ")) return std::stod(line.substr(series.size() + 1));
  return -1.0;
}

/// A scratch store root, wiped on construction and destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() / ("crowdweb_telemetry_test_" + tag)) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str(const std::string& child) const {
    return (path_ / child).string();
  }

 private:
  std::filesystem::path path_;
};

TEST(TelemetryMetricsEndpointTest, FourShardsRecordEveryWorkerSeriesIntoOneRegistry) {
  // Four shard workers and their stores record into the registry the
  // platform and the server share, each series under shard="k", while
  // /metrics renders; a lone worker records the same families as
  // shard="0".
  using namespace std::chrono_literals;
  Registry registry;
  auto platform = core::Platform::create(e2e_config(&registry));
  ASSERT_TRUE(platform.is_ok()) << platform.status().to_string();
  ScratchDir dir("four_shards");

  shard::ShardRouterConfig config;
  config.shard_count = 4;
  config.metrics = &registry;
  config.worker.rebuild_interval = 20ms;
  config.worker.store.dir = dir.str("shards");
  config.worker.store.fsync = store::FsyncPolicy::kNever;
  auto router = shard::ShardRouter::create(*platform, config);
  ASSERT_TRUE(router.is_ok()) << router.status().to_string();
  ASSERT_TRUE((*router)->start().is_ok());
  shard::ShardApiOptions api;
  api.metrics = &registry;
  http::ServerConfig server_config;
  server_config.metrics = &registry;
  http::Server server(shard::make_shard_api_router(**router, api), server_config);
  ASSERT_TRUE(server.start().is_ok());

  // One check-in per corpus user, so every shard journals and re-mines.
  const data::Dataset& corpus = platform->experiment_dataset();
  const data::Venue& venue = corpus.venues()[0];
  std::vector<ingest::IngestEvent> events;
  std::set<std::size_t> owners;
  for (const data::UserId user : corpus.users()) {
    ingest::IngestEvent event;
    event.user = user;
    event.category = venue.category;
    event.position = venue.position;
    event.timestamp = corpus.checkins_for(user).timestamps().back() + 60;
    events.push_back(event);
    owners.insert((*router)->owner_of(event));
  }
  ASSERT_EQ(owners.size(), 4u);

  // Scrape while the shards record.
  std::thread feeder([&] {
    for (std::size_t at = 0; at < events.size(); at += 8) {
      const std::size_t end = std::min(events.size(), at + 8);
      (*router)->submit(std::span(events).subspan(at, end - at));
      std::this_thread::sleep_for(1ms);
    }
  });
  for (int i = 0; i < 5; ++i) {
    const auto scrape = http::get("127.0.0.1", server.port(), "/metrics");
    EXPECT_TRUE(scrape.is_ok()) << scrape.status().to_string();
    if (scrape.is_ok()) expect_parses(scrape->body);
  }
  feeder.join();
  ASSERT_TRUE((*router)->wait_for_live(events.size(), 10s));

  const auto response = http::get("127.0.0.1", server.port(), "/metrics");
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  const std::string& sharded = response->body;
  expect_parses(sharded);
  for (std::size_t k = 0; k < 4; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const std::string shard = "shard=\"" + std::to_string(k) + "\"";
    EXPECT_GE(series_value(sharded, "crowdweb_ingest_rebuild_stage_duration_seconds_count{" +
                                         shard + ",stage=\"mine\"}"),
              1.0);
    EXPECT_GE(series_value(sharded, "crowdweb_mining_patterns_emitted_total{" + shard + "}"),
              0.0);
    EXPECT_GE(series_value(sharded, "crowdweb_store_append_records_total{" + shard + "}"),
              1.0);
  }
  EXPECT_EQ(worker_shard_labels(sharded), (std::set<std::string>{"0", "1", "2", "3"}));
  const auto status_response = http::get("127.0.0.1", server.port(), "/api/status");
  ASSERT_TRUE(status_response.is_ok()) << status_response.status().to_string();
  const auto status = json::parse(status_response->body);
  ASSERT_TRUE(status.is_ok());
  const json::Value* sharded_mirror = status->find("telemetry");
  ASSERT_NE(sharded_mirror, nullptr);
  expect_documented(families_of(sharded));

  // Each shard's stats() reads its own labelled cells.
  server.stop();
  (*router)->stop();
  const std::string stopped = telemetry::render_prometheus(registry);
  // At rest, the mirror of the service registry equals the tree dump.
  EXPECT_EQ(mirror_of(registry), json::dump_per_token(telemetry::render_json_tree(registry)));
  for (std::size_t k = 0; k < 4; ++k) {
    SCOPED_TRACE("shard " + std::to_string(k));
    const ingest::IngestStats stats = (*router)->shard(k).worker().stats();
    const auto cell = [&](const std::string& name) {
      return series_value(stopped, name + "{shard=\"" + std::to_string(k) + "\"}");
    };
    EXPECT_GT(stats.accepted, 0u);
    EXPECT_EQ(cell("crowdweb_ingest_submitted_total"), static_cast<double>(stats.submitted));
    EXPECT_EQ(cell("crowdweb_ingest_accepted_total"), static_cast<double>(stats.accepted));
    EXPECT_EQ(cell("crowdweb_ingest_rejected_total"), static_cast<double>(stats.rejected));
    EXPECT_EQ(cell("crowdweb_ingest_invalid_total"), static_cast<double>(stats.invalid));
    EXPECT_EQ(cell("crowdweb_ingest_epochs_published_total"),
              static_cast<double>(stats.epochs_published));
    EXPECT_EQ(cell("crowdweb_ingest_epoch"), static_cast<double>(stats.current_epoch));
    EXPECT_EQ(cell("crowdweb_ingest_queue_depth"), static_cast<double>(stats.queue_depth));
    EXPECT_EQ(cell("crowdweb_ingest_live_checkins"), static_cast<double>(stats.live_checkins));
    const store::StoreStats store = (*router)->shard(k).worker().store()->stats();
    EXPECT_EQ(cell("crowdweb_store_append_records_total"),
              static_cast<double>(store.append_records));
    EXPECT_EQ(cell("crowdweb_store_wal_bytes"), static_cast<double>(store.wal_bytes));
  }

  // A lone worker: the same families, all shard="0".
  Registry single_registry;
  ingest::IngestWorkerConfig single_config;
  single_config.rebuild_interval = 20ms;
  single_config.metrics = &single_registry;
  single_config.store.dir = dir.str("single");
  single_config.store.fsync = store::FsyncPolicy::kNever;
  auto worker = core::make_ingest_worker(*platform, single_config);
  ASSERT_TRUE(worker->start().is_ok());
  ASSERT_EQ(worker->submit(std::span(events).first(4)).accepted, 4u);
  ASSERT_TRUE(worker->wait_for_epoch(2, 10s));
  core::ApiOptions single_api;
  single_api.ingest = worker.get();
  single_api.metrics = &single_registry;
  http::ServerConfig single_server_config;
  single_server_config.metrics = &single_registry;
  http::Server single_server(core::make_api_router(*platform, single_api),
                             single_server_config);
  ASSERT_TRUE(single_server.start().is_ok());
  const auto single_response = http::get("127.0.0.1", single_server.port(), "/metrics");
  ASSERT_TRUE(single_response.is_ok()) << single_response.status().to_string();
  const std::string& single = single_response->body;
  expect_parses(single);
  EXPECT_EQ(worker_shard_labels(single), std::set<std::string>{"0"});
  EXPECT_EQ(worker_families(families_of(single)), worker_families(families_of(sharded)));
  const auto single_status_response =
      http::get("127.0.0.1", single_server.port(), "/api/status");
  ASSERT_TRUE(single_status_response.is_ok()) << single_status_response.status().to_string();
  const auto single_status = json::parse(single_status_response->body);
  ASSERT_TRUE(single_status.is_ok());
  const json::Value* single_mirror = single_status->find("telemetry");
  ASSERT_NE(single_mirror, nullptr);
  EXPECT_EQ(worker_families(single_mirror->as_object()),
            worker_families(sharded_mirror->as_object()));
  EXPECT_EQ(worker_families(single_mirror->as_object()), worker_families(families_of(single)));
  expect_documented(families_of(single));
  single_server.stop();
  worker->stop();
}

TEST(TelemetryMetricsEndpointTest, NoRegistryMeansNoMetricsRoute) {
  auto platform = core::Platform::create(e2e_config(nullptr));
  ASSERT_TRUE(platform.is_ok());
  http::Server server(core::make_api_router(*platform));
  ASSERT_TRUE(server.start().is_ok());
  const auto response = http::get("127.0.0.1", server.port(), "/metrics");
  ASSERT_TRUE(response.is_ok());
  EXPECT_EQ(response->status, 404);
  server.stop();
}

}  // namespace
}  // namespace crowdweb
