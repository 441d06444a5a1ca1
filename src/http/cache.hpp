// Epoch-keyed HTTP response cache for the serving path.
//
// Every crowd/flow/viz response is a pure function of (route, epoch):
// the ingestion worker publishes immutable snapshots (RCU-style, see
// src/ingest/snapshot.hpp), so a response rendered for epoch E stays
// correct for as long as E is the current epoch — and becomes garbage
// the moment E+1 publishes. The cache therefore holds one epoch only.
// Entries are looked up as (method, target, current_epoch); set_epoch
// frees every entry filed under any other epoch, and insert refuses a
// body rendered from an epoch that is no longer current. The byte
// budget and its LRU bound the current epoch's working set (a static
// build serves epoch 0 forever, so it still needs them).
//
// The cache is sharded (hash of the key picks a shard, each shard has
// its own mutex + LRU list) so the server's worker pool can hit it
// concurrently without a global lock. Each cached body carries a
// strong ETag ("<epoch>-<hash>") so repeat clients holding the body
// can revalidate with If-None-Match and get a 304 instead of bytes.
//
// Wiring: construct one cache per process, point
// ServerConfig::cache at it, and mark cacheable GET routes in the
// router (Router::get_cached). In live mode, hook epoch bumps with
//   worker->hub().on_publish([&](const auto& s) { cache.set_epoch(s.epoch); });
// In static/batch mode the epoch stays 0 and entries live until evicted.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "http/message.hpp"
#include "telemetry/metrics.hpp"

namespace crowdweb::http {

struct ResponseCacheConfig {
  /// Total byte budget across all shards (bodies + headers + keys).
  /// Oversized responses (bigger than one shard's share) are never
  /// cached.
  std::size_t max_bytes = 64 * 1024 * 1024;
  /// Lock shards; more shards = less contention, slightly worse LRU.
  std::size_t shards = 8;
  /// Telemetry registry the cache records onto (crowdweb_http_cache_*
  /// families; see docs/OBSERVABILITY.md). Must outlive the cache.
  /// Null = private registry (stats() still works). Attach at most one
  /// cache per registry.
  telemetry::Registry* metrics = nullptr;
};

/// Aggregate counters for /api/status and tests.
struct ResponseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;     ///< LRU evictions under the byte budget
  std::uint64_t superseded = 0;    ///< entries freed because a newer epoch published
  std::uint64_t not_modified = 0;  ///< 304s served off If-None-Match
  std::size_t bytes = 0;           ///< resident cost of the current epoch's entries
  std::size_t entries = 0;
  std::size_t byte_budget = 0;
  std::uint64_t epoch = 0;         ///< current key epoch
};

/// One cached response, shared with readers (a hit pins the entry even
/// if it is evicted an instant later).
struct CachedResponse {
  int status = 200;
  std::map<std::string, std::string> headers;  ///< includes ETag
  std::string body;
  /// Quoted strong validator, "\"<epoch>-<hash>\"" — the epoch part is
  /// the numeric key epoch, or the deployment's epoch tag when one is
  /// set (sharded mode uses the dotted epoch vector, "3.5.2-<hash>").
  std::string etag;
  std::uint64_t epoch = 0;
  /// Pre-serialized keep-alive GET hit (status line + headers with ETag
  /// and "X-Cache: hit" + body), rendered once at insert. The server's
  /// loop-thread fast path writes it verbatim — a hit costs one memcpy,
  /// not a header-map copy plus re-serialization.
  std::string wire;
};

class ResponseCache {
 public:
  explicit ResponseCache(ResponseCacheConfig config = {});
  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// The epoch new lookups and inserts are keyed on.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Keys all subsequent lookups/inserts on `epoch` and frees every
  /// entry filed under any other epoch (counted as superseded, not as
  /// evictions). ETags render the numeric epoch. Safe to call from any
  /// thread (the ingest worker calls it from its publish path).
  void set_epoch(std::uint64_t epoch);

  /// Same, with a human-readable rendition of the epoch that replaces
  /// the numeric epoch in ETags — a sharded deployment passes the mixed
  /// epoch vector as `epoch` and its dotted form (e.g. "3.5.2") as
  /// `tag`, so validators surface per-shard progress (see docs/API.md).
  /// Calls are serialised; shard publish hooks may call it concurrently.
  void set_epoch(std::uint64_t epoch, std::string tag);

  /// Looks up (method, target) at the current epoch. A hit refreshes
  /// LRU recency and counts toward crowdweb_http_cache_hits_total; a
  /// miss counts toward ..._misses_total. Callers should only consult
  /// the cache for routes marked cacheable (Router::cacheable), so the
  /// miss counter means "cacheable request that had to execute".
  ///
  /// `record_miss = false` turns a failed lookup into a silent probe:
  /// the server's loop-thread fast path probes before dispatching to
  /// the worker pool, and the worker's own lookup then records the miss
  /// exactly once.
  [[nodiscard]] std::shared_ptr<const CachedResponse> lookup(std::string_view method,
                                                             std::string_view target,
                                                             bool record_miss = true);

  /// Caches `response` for (method, target) at the epoch it was rendered
  /// from (Response::rendered_at; the current epoch when unset) and
  /// returns the stored entry (with its ETag computed and added to the
  /// stored headers). Evicts LRU entries until the shard fits its
  /// budget share. Two kinds of response are returned but not stored,
  /// so the caller can still use the ETag: one bigger than a shard's
  /// budget, and one rendered from an epoch a publish has already
  /// superseded (no lookup could reach it).
  std::shared_ptr<const CachedResponse> insert(std::string_view method,
                                               std::string_view target,
                                               const Response& response);

  [[nodiscard]] ResponseCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedResponse> response;
    std::size_t cost = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
  };

  [[nodiscard]] std::string make_key(std::string_view method, std::string_view target,
                                     std::uint64_t epoch) const;
  [[nodiscard]] Shard& shard_for(std::string_view key);
  void init_metrics();
  /// The current epoch as insert files and tags an unpinned body.
  [[nodiscard]] RenderedEpoch current_epoch() const;

  ResponseCacheConfig config_;
  std::size_t shard_budget_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
  /// Serialises set_epoch (tag, epoch and purge move together) and
  /// guards epoch_tag_. lookup() reads epoch_ alone, without it.
  mutable std::mutex epoch_mutex_;
  std::string epoch_tag_ = "0";
  std::vector<std::unique_ptr<Shard>> shards_;

  std::unique_ptr<telemetry::Registry> own_metrics_;
  telemetry::Registry* metrics_ = nullptr;
  telemetry::Counter* hits_ = nullptr;
  telemetry::Counter* misses_ = nullptr;
  telemetry::Counter* evictions_ = nullptr;
  telemetry::Counter* superseded_ = nullptr;
  telemetry::Counter* not_modified_ = nullptr;
  telemetry::Gauge* bytes_gauge_ = nullptr;
  telemetry::Gauge* entries_gauge_ = nullptr;

 public:
  /// Counts a 304 served off this cache (the server calls this when an
  /// If-None-Match revalidation matches a cached ETag).
  void note_not_modified() noexcept { not_modified_->increment(); }
};

/// True when `if_none_match` (the raw If-None-Match header value) names
/// `etag` — exact match, weak-prefix match ("W/<etag>"), or "*".
[[nodiscard]] bool etag_matches(std::string_view if_none_match, std::string_view etag);

}  // namespace crowdweb::http
