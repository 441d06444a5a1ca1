#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "http/cache.hpp"
#include "http/client.hpp"
#include "http/message.hpp"
#include "http/router.hpp"
#include "http/server.hpp"
#include "telemetry/metrics.hpp"
#include "util/log.hpp"

namespace crowdweb::http {
namespace {

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kError); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

Response body_response(std::string body) {
  return Response::text(200, std::move(body));
}

// ------------------------------------------------------------- Cache unit

TEST(ResponseCacheTest, MissThenHit) {
  ResponseCache cache;
  EXPECT_EQ(cache.lookup("GET", "/a"), nullptr);
  const auto inserted = cache.insert("GET", "/a", body_response("payload"));
  ASSERT_NE(inserted, nullptr);
  const auto hit = cache.lookup("GET", "/a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->body, "payload");
  EXPECT_EQ(hit->status, 200);
  const ResponseCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, std::string("payload").size());
}

TEST(ResponseCacheTest, KeyIncludesMethodAndTarget) {
  ResponseCache cache;
  (void)cache.insert("GET", "/a", body_response("a"));
  EXPECT_EQ(cache.lookup("GET", "/b"), nullptr);
  EXPECT_EQ(cache.lookup("GET", "/a?x=1"), nullptr);  // query is part of the target
  EXPECT_NE(cache.lookup("GET", "/a"), nullptr);
}

TEST(ResponseCacheTest, InsertedEntryCarriesStrongEtagHeader) {
  ResponseCache cache;
  const auto entry = cache.insert("GET", "/a", body_response("body"));
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->etag.empty());
  EXPECT_EQ(entry->etag.front(), '"');
  EXPECT_EQ(entry->etag.back(), '"');
  ASSERT_TRUE(entry->headers.contains("ETag"));
  EXPECT_EQ(entry->headers.at("ETag"), entry->etag);
  // Same body at the same epoch hashes to the same validator.
  const auto again = cache.insert("GET", "/other", body_response("body"));
  EXPECT_EQ(again->etag, entry->etag);
  // Different body -> different validator.
  const auto different = cache.insert("GET", "/third", body_response("BODY"));
  EXPECT_NE(different->etag, entry->etag);
}

TEST(ResponseCacheTest, EpochBumpMakesEntriesUnreachable) {
  ResponseCache cache;
  (void)cache.insert("GET", "/a", body_response("epoch0"));
  ASSERT_NE(cache.lookup("GET", "/a"), nullptr);

  cache.set_epoch(1);
  EXPECT_EQ(cache.epoch(), 1u);
  // Same target, new epoch: the old entry is invisible — no explicit
  // invalidation happened, the key simply changed.
  EXPECT_EQ(cache.lookup("GET", "/a"), nullptr);

  (void)cache.insert("GET", "/a", body_response("epoch1"));
  const auto fresh = cache.lookup("GET", "/a");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->body, "epoch1");
  EXPECT_EQ(fresh->epoch, 1u);

  // The bump freed epoch 0's entry: rolling back finds nothing, and
  // rolling back frees epoch 1's entry in turn.
  cache.set_epoch(0);
  EXPECT_EQ(cache.lookup("GET", "/a"), nullptr);
  const ResponseCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.superseded, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ResponseCacheTest, PublishFreesEverySupersededEntry) {
  telemetry::Registry registry;
  ResponseCacheConfig config;
  config.metrics = &registry;
  ResponseCache cache(config);
  for (int i = 0; i < 20; ++i)
    (void)cache.insert("GET", "/e0/" + std::to_string(i), body_response(std::string(100, 'a')));
  const ResponseCacheStats before = cache.stats();
  ASSERT_EQ(before.entries, 20u);

  // Re-publishing the current epoch frees nothing.
  cache.set_epoch(0);
  EXPECT_EQ(cache.stats().entries, 20u);
  EXPECT_EQ(cache.stats().superseded, 0u);

  cache.set_epoch(1, "tag1");
  for (int i = 0; i < 3; ++i)
    (void)cache.insert("GET", "/e1/" + std::to_string(i), body_response("fresh"));
  const ResponseCacheStats stats = cache.stats();
  EXPECT_EQ(stats.superseded, 20u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_LT(stats.bytes, before.bytes);
  // The gauges and counter on the registry match stats() exactly.
  EXPECT_EQ(registry.gauge("crowdweb_http_cache_entries", "").value(), 3.0);
  EXPECT_EQ(registry.gauge("crowdweb_http_cache_bytes", "").value(),
            static_cast<double>(stats.bytes));
  EXPECT_EQ(registry.counter("crowdweb_http_cache_superseded_total", "").value(), 20u);

  // A body rendered from the superseded epoch keeps its ETag but is not
  // stored.
  Response late = body_response("late");
  late.rendered_at = RenderedEpoch{0, "0"};
  const auto entry = cache.insert("GET", "/late", late);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->etag.rfind("\"0-", 0), 0u) << entry->etag;
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(registry.gauge("crowdweb_http_cache_entries", "").value(), 3.0);
}

TEST(ResponseCacheTest, ConcurrentPublishesLeaveOnlyTheFinalEpochResident) {
  telemetry::Registry registry;
  ResponseCacheConfig config;
  config.metrics = &registry;
  config.shards = 4;
  ResponseCache cache(config);
  constexpr std::uint64_t kFinalEpoch = 300;
  constexpr int kTargets = 16;
  const auto target = [](int i) { return "/t/" + std::to_string(i); };

  std::atomic<bool> stop{false};
  std::atomic<int> inserted{0};
  std::vector<std::thread> inserters;
  for (int t = 0; t < 4; ++t) {
    inserters.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); i = (i + 1) % kTargets) {
        Response response = body_response("body of " + target(i));
        if (t % 2 == 0) {  // pinned renders; the other threads insert unpinned
          const std::uint64_t pinned = cache.epoch();
          response.rendered_at = RenderedEpoch{pinned, "t" + std::to_string(pinned)};
        }
        (void)cache.insert("GET", target(i), response);
        inserted.fetch_add(1);
      }
    });
  }
  // Every epoch sees inserts land before the next publish.
  const auto wait_for_inserts = [&inserted](int count) {
    const int goal = inserted.load() + count;
    while (inserted.load() < goal) std::this_thread::yield();
  };
  for (std::uint64_t epoch = 1; epoch <= kFinalEpoch; ++epoch) {
    std::string tag = "t";
    tag += std::to_string(epoch);
    cache.set_epoch(epoch, std::move(tag));
    wait_for_inserts(8);
  }
  wait_for_inserts(4 * kTargets);  // let the final epoch fill
  stop.store(true);
  for (std::thread& thread : inserters) thread.join();

  // Every resident entry is reachable at the final epoch and tagged
  // with it; re-inserting exactly those bodies into an empty cache
  // reproduces the resident byte count.
  ResponseCache reference;
  reference.set_epoch(kFinalEpoch, "t" + std::to_string(kFinalEpoch));
  std::size_t reachable = 0;
  for (int i = 0; i < kTargets; ++i) {
    const auto entry = cache.lookup("GET", target(i), /*record_miss=*/false);
    if (entry == nullptr) continue;
    ++reachable;
    EXPECT_EQ(entry->epoch, kFinalEpoch);
    EXPECT_EQ(entry->etag.rfind("\"t" + std::to_string(kFinalEpoch) + "-", 0), 0u)
        << entry->etag;
    (void)reference.insert("GET", target(i), body_response(entry->body));
  }
  EXPECT_GT(reachable, 0u);
  const ResponseCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, reachable);
  EXPECT_EQ(stats.bytes, reference.stats().bytes);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(registry.gauge("crowdweb_http_cache_entries", "").value(),
            static_cast<double>(stats.entries));
  EXPECT_EQ(registry.gauge("crowdweb_http_cache_bytes", "").value(),
            static_cast<double>(stats.bytes));
}

TEST(ResponseCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  ResponseCacheConfig config;
  config.shards = 1;  // deterministic: one LRU list
  config.max_bytes = 4096;
  ResponseCache cache(config);

  // ~1500 bytes with headers + the pre-serialized wire image: 2 fit,
  // 3 don't.
  const std::string big(600, 'x');
  (void)cache.insert("GET", "/one", body_response(big));
  (void)cache.insert("GET", "/two", body_response(big));
  ASSERT_NE(cache.lookup("GET", "/one"), nullptr);  // /one is now MRU
  (void)cache.insert("GET", "/three", body_response(big));

  const ResponseCacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, config.max_bytes);
  // The LRU victim was /two (touched least recently); /one survived.
  EXPECT_NE(cache.lookup("GET", "/one"), nullptr);
  EXPECT_EQ(cache.lookup("GET", "/two"), nullptr);
  EXPECT_NE(cache.lookup("GET", "/three"), nullptr);
}

TEST(ResponseCacheTest, OversizedResponseIsNotCachedButStillGetsEtag) {
  ResponseCacheConfig config;
  config.shards = 1;
  config.max_bytes = 512;
  ResponseCache cache(config);
  const auto entry = cache.insert("GET", "/big", body_response(std::string(4096, 'y')));
  ASSERT_NE(entry, nullptr);  // caller can still use the ETag for a 304
  EXPECT_FALSE(entry->etag.empty());
  EXPECT_EQ(cache.lookup("GET", "/big"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResponseCacheTest, StatsReportBudgetAndEpoch) {
  ResponseCacheConfig config;
  config.max_bytes = 1234;
  ResponseCache cache(config);
  cache.set_epoch(7);
  const ResponseCacheStats stats = cache.stats();
  EXPECT_EQ(stats.byte_budget, 1234u);
  EXPECT_EQ(stats.epoch, 7u);
}

TEST(EtagMatchesTest, ExactWeakListAndStar) {
  EXPECT_TRUE(etag_matches("\"1-abc\"", "\"1-abc\""));
  EXPECT_FALSE(etag_matches("\"1-abc\"", "\"2-abc\""));
  EXPECT_TRUE(etag_matches("W/\"1-abc\"", "\"1-abc\""));
  EXPECT_TRUE(etag_matches("\"x\", \"1-abc\"", "\"1-abc\""));
  EXPECT_TRUE(etag_matches("*", "\"anything\""));
  EXPECT_FALSE(etag_matches("", "\"1-abc\""));
}

// ------------------------------------------------ Server + cache, e2e

/// A server whose single cacheable route counts handler invocations and
/// serves a body derived from `generation` — bumping the generation
/// models a new snapshot's content.
class CachedServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ResponseCacheConfig cache_config;
    cache_config.max_bytes = 1 << 20;
    cache_ = std::make_unique<ResponseCache>(cache_config);

    Router router;
    router.get_cached("/data/:key", [this](const Request&, const PathParams& params) {
      invocations_.fetch_add(1);
      return Response::json(
          200, "{\"key\":\"" + params.at("key") +
                   "\",\"generation\":" + std::to_string(generation_.load()) + "}");
    });
    // Renders from the epoch it pins, while a publish lands mid-render.
    router.get_cached("/pinned", [this](const Request&, const PathParams&) {
      invocations_.fetch_add(1);
      const std::uint64_t pinned = cache_->epoch();
      cache_->set_epoch(pinned + 1);
      Response response = Response::json(200, "{\"epoch\":" + std::to_string(pinned) + "}");
      response.rendered_at = RenderedEpoch{pinned, std::to_string(pinned)};
      return response;
    });
    router.get("/uncached", [this](const Request&, const PathParams&) {
      invocations_.fetch_add(1);
      return Response::text(200, "uncached");
    });

    ServerConfig config;
    config.worker_threads = 2;
    config.cache = cache_.get();
    server_ = std::make_unique<Server>(std::move(router), config);
    ASSERT_TRUE(server_->start().is_ok());
  }
  void TearDown() override { server_->stop(); }

  [[nodiscard]] Result<ClientResponse> fetch_path(const std::string& path,
                                                  ClientOptions options = {}) const {
    return get("127.0.0.1", server_->port(), path, std::move(options));
  }

  std::unique_ptr<ResponseCache> cache_;
  std::unique_ptr<Server> server_;
  std::atomic<int> invocations_{0};
  std::atomic<int> generation_{0};
};

TEST_F(CachedServerFixture, SecondRequestServedWithoutHandler) {
  const auto first = fetch_path("/data/a");
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first->status, 200);
  EXPECT_EQ(first->headers.at("x-cache"), "miss");
  ASSERT_TRUE(first->headers.contains("etag"));
  EXPECT_EQ(invocations_.load(), 1);

  const auto second = fetch_path("/data/a");
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second->status, 200);
  EXPECT_EQ(second->body, first->body);
  EXPECT_EQ(second->headers.at("x-cache"), "hit");
  EXPECT_EQ(second->headers.at("etag"), first->headers.at("etag"));
  EXPECT_EQ(invocations_.load(), 1) << "cache hit must not re-run the handler";

  const ResponseCacheStats stats = cache_->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(CachedServerFixture, UncachedRouteAlwaysExecutes) {
  ASSERT_TRUE(fetch_path("/uncached").is_ok());
  const auto second = fetch_path("/uncached");
  ASSERT_TRUE(second.is_ok());
  EXPECT_FALSE(second->headers.contains("x-cache"));
  EXPECT_EQ(invocations_.load(), 2);
}

TEST_F(CachedServerFixture, IfNoneMatchRoundTripYields304) {
  const auto first = fetch_path("/data/a");
  ASSERT_TRUE(first.is_ok());
  const std::string etag = first->headers.at("etag");

  ClientOptions revalidate;
  revalidate.headers["If-None-Match"] = etag;
  const auto second = fetch_path("/data/a", revalidate);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second->status, 304);
  EXPECT_TRUE(second->body.empty());
  EXPECT_EQ(second->headers.at("etag"), etag);
  EXPECT_EQ(invocations_.load(), 1) << "a 304 revalidation must not re-run the handler";
  EXPECT_EQ(cache_->stats().not_modified, 1u);

  // A stale validator gets the full body again.
  ClientOptions stale;
  stale.headers["If-None-Match"] = "\"0-deadbeef\"";
  const auto third = fetch_path("/data/a", stale);
  ASSERT_TRUE(third.is_ok());
  EXPECT_EQ(third->status, 200);
  EXPECT_EQ(third->body, first->body);
}

TEST_F(CachedServerFixture, EpochBumpServesFreshContentWithoutInvalidation) {
  const auto before = fetch_path("/data/a");
  ASSERT_TRUE(before.is_ok());
  EXPECT_NE(before->body.find("\"generation\":0"), std::string::npos);
  ASSERT_TRUE(fetch_path("/data/a").is_ok());  // warm the cache
  EXPECT_EQ(invocations_.load(), 1);

  // A new "snapshot": content changes and the epoch advances, exactly
  // what the SnapshotHub on_publish hook does in live mode.
  generation_.store(1);
  cache_->set_epoch(cache_->epoch() + 1);

  const auto after = fetch_path("/data/a");
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after->headers.at("x-cache"), "miss") << "old epoch's entry must be unreachable";
  EXPECT_NE(after->body.find("\"generation\":1"), std::string::npos);
  EXPECT_NE(after->headers.at("etag"), before->headers.at("etag"));
  EXPECT_EQ(invocations_.load(), 2);

  // The old validator no longer matches: revalidation refetches.
  ClientOptions revalidate;
  revalidate.headers["If-None-Match"] = before->headers.at("etag");
  const auto revalidated = fetch_path("/data/a", revalidate);
  ASSERT_TRUE(revalidated.is_ok());
  EXPECT_EQ(revalidated->status, 200);
  EXPECT_NE(revalidated->body.find("\"generation\":1"), std::string::npos);
}

TEST_F(CachedServerFixture, BodyIsFiledUnderTheEpochItWasRenderedFrom) {
  const auto first = fetch_path("/pinned");
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first->body, "{\"epoch\":0}");
  EXPECT_EQ(first->headers.at("etag").rfind("\"0-", 0), 0u) << first->headers.at("etag");
  EXPECT_EQ(cache_->epoch(), 1u);
  // No lookup can reach epoch 0 any more, so the body was not stored.
  EXPECT_EQ(cache_->stats().entries, 0u);

  // Epoch 0's body must not answer for epoch 1: the next GET executes.
  const auto second = fetch_path("/pinned");
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second->headers.at("x-cache"), "miss");
  EXPECT_EQ(second->body, "{\"epoch\":1}");
  EXPECT_EQ(invocations_.load(), 2);
}

TEST_F(CachedServerFixture, HeadSharesTheGetEntry) {
  ASSERT_TRUE(fetch_path("/data/a").is_ok());
  const auto head = fetch("127.0.0.1", server_->port(), "HEAD", "/data/a");
  ASSERT_TRUE(head.is_ok());
  EXPECT_EQ(head->status, 200);
  EXPECT_TRUE(head->body.empty());
  EXPECT_EQ(head->headers.at("x-cache"), "hit");
  EXPECT_EQ(invocations_.load(), 1);
}

// Hits are served on the loop thread without entering the worker queue,
// so a parked pool must not delay them.
TEST(CacheFastPathTest, HitBypassesBusyWorkerPool) {
  ResponseCache cache;
  Router router;
  std::atomic<int> slow_started{0};
  router.get_cached("/data", [](const Request&, const PathParams&) {
    return Response::json(200, "{\"cached\":true}");
  });
  router.get("/slow", [&slow_started](const Request&, const PathParams&) {
    slow_started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    return Response::text(200, "slow");
  });
  ServerConfig config;
  config.worker_threads = 1;  // the slow request occupies the whole pool
  config.cache = &cache;
  Server server(std::move(router), config);
  ASSERT_TRUE(server.start().is_ok());

  const auto warm = get("127.0.0.1", server.port(), "/data");
  ASSERT_TRUE(warm.is_ok());
  EXPECT_EQ(warm->headers.at("x-cache"), "miss");

  std::thread parked([&server] { (void)get("127.0.0.1", server.port(), "/slow"); });
  while (slow_started.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const auto start = std::chrono::steady_clock::now();
  const auto hit = get("127.0.0.1", server.port(), "/data");
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(hit.is_ok());
  EXPECT_EQ(hit->headers.at("x-cache"), "hit");
  EXPECT_LT(elapsed_ms, 300.0) << "cache hit waited on the busy worker pool";
  parked.join();
  server.stop();
  EXPECT_EQ(cache.stats().hits, 1u);
}

}  // namespace
}  // namespace crowdweb::http
