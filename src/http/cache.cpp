#include "http/cache.hpp"

#include <algorithm>

#include "util/format.hpp"
#include "util/strings.hpp"

namespace crowdweb::http {

namespace {

/// FNV-1a 64-bit; cheap, stable, and good enough for a strong validator
/// when combined with the epoch (a hash collision *within* one epoch on
/// one target would be needed to serve a wrong 304).
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed = 14695981039346656037ull) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Resident cost of an entry: key (stored once, referenced by the
/// index), body, headers, the pre-serialized wire image, plus a fixed
/// allowance for node overhead.
std::size_t cost_of(std::string_view key, const CachedResponse& response) {
  std::size_t cost = key.size() + response.body.size() + response.etag.size() +
                     response.wire.size() + 128;
  for (const auto& [name, value] : response.headers) cost += name.size() + value.size() + 32;
  return cost;
}

}  // namespace

ResponseCache::ResponseCache(ResponseCacheConfig config) : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.max_bytes == 0) config_.max_bytes = 1;
  shard_budget_ = std::max<std::size_t>(1, config_.max_bytes / config_.shards);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  init_metrics();
}

void ResponseCache::init_metrics() {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    own_metrics_ = std::make_unique<telemetry::Registry>();
    metrics_ = own_metrics_.get();
  }
  hits_ = &metrics_->counter("crowdweb_http_cache_hits_total",
                             "Cacheable requests served from the response cache.");
  misses_ = &metrics_->counter(
      "crowdweb_http_cache_misses_total",
      "Cacheable requests that missed the cache and executed their handler.");
  evictions_ = &metrics_->counter("crowdweb_http_cache_evictions_total",
                                  "Entries evicted to keep the cache under its byte budget.");
  superseded_ = &metrics_->counter(
      "crowdweb_http_cache_superseded_total",
      "Entries freed because a newer epoch was published.");
  not_modified_ = &metrics_->counter(
      "crowdweb_http_cache_not_modified_total",
      "304 responses served off a cached ETag via If-None-Match.");
  bytes_gauge_ = &metrics_->gauge("crowdweb_http_cache_bytes",
                                  "Resident bytes of the current epoch's cache entries.");
  entries_gauge_ = &metrics_->gauge("crowdweb_http_cache_entries",
                                    "Cached responses of the current epoch.");
}

void ResponseCache::set_epoch(std::uint64_t epoch) { set_epoch(epoch, std::to_string(epoch)); }

void ResponseCache::set_epoch(std::uint64_t epoch, std::string tag) {
  const std::lock_guard<std::mutex> epoch_lock(epoch_mutex_);
  epoch_tag_ = std::move(tag);
  // Store before taking any shard lock. An insert checks the epoch under
  // its shard's lock: if it runs before the purge below reaches that
  // shard, the purge frees what it stored; if after, it sees `epoch`
  // and stores nothing older. Either way no unreachable entry stays.
  if (epoch_.exchange(epoch, std::memory_order_acq_rel) == epoch) return;
  std::size_t freed_entries = 0;
  std::size_t freed_bytes = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->response->epoch == epoch) {
        ++it;
        continue;
      }
      ++freed_entries;
      freed_bytes += it->cost;
      shard->bytes -= it->cost;
      shard->index.erase(std::string_view(it->key));
      it = shard->lru.erase(it);
    }
  }
  if (freed_entries == 0) return;
  superseded_->increment(freed_entries);
  bytes_gauge_->add(-static_cast<double>(freed_bytes));
  entries_gauge_->add(-static_cast<double>(freed_entries));
}

RenderedEpoch ResponseCache::current_epoch() const {
  const std::lock_guard<std::mutex> lock(epoch_mutex_);
  return RenderedEpoch{epoch(), epoch_tag_};
}

std::string ResponseCache::make_key(std::string_view method, std::string_view target,
                                    std::uint64_t epoch) const {
  return crowdweb::format("{} {}@{}", method, target, epoch);
}

ResponseCache::Shard& ResponseCache::shard_for(std::string_view key) {
  return *shards_[fnv1a(key) % shards_.size()];
}

std::shared_ptr<const CachedResponse> ResponseCache::lookup(std::string_view method,
                                                            std::string_view target,
                                                            bool record_miss) {
  const std::string key = make_key(method, target, epoch());
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(std::string_view(key));
  if (it == shard.index.end()) {
    if (record_miss) misses_->increment();
    return nullptr;
  }
  // Refresh recency: splice the entry to the MRU front. Iterators and
  // the string_view key in the index stay valid across splice.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->increment();
  return it->second->response;
}

std::shared_ptr<const CachedResponse> ResponseCache::insert(std::string_view method,
                                                            std::string_view target,
                                                            const Response& response) {
  const RenderedEpoch at = response.rendered_at ? *response.rendered_at : current_epoch();
  auto cached = std::make_shared<CachedResponse>();
  cached->status = response.status;
  cached->headers = response.headers;
  cached->body = response.body;
  cached->epoch = at.key;
  cached->etag = crowdweb::format("\"{}-{:x}\"", at.tag, fnv1a(response.body));
  cached->headers["ETag"] = cached->etag;
  {  // render the keep-alive hit image once; every hit serves it verbatim
    Response hit;
    hit.status = cached->status;
    hit.headers = cached->headers;
    hit.headers["X-Cache"] = "hit";
    hit.body = cached->body;
    cached->wire = serialize(hit, /*keep_alive=*/true);
  }

  std::string key = make_key(method, target, at.key);
  const std::size_t cost = cost_of(key, *cached);
  if (cost > shard_budget_) return cached;  // would evict the whole shard for one entry

  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  // A publish landed while this body rendered: no lookup can reach it
  // (see set_epoch for why checking under the shard lock suffices).
  if (at.key != epoch()) return cached;
  if (const auto it = shard.index.find(std::string_view(key)); it != shard.index.end()) {
    // Replace in place (two workers raced on the same miss).
    shard.bytes -= it->second->cost;
    bytes_gauge_->add(-static_cast<double>(it->second->cost));
    it->second->response = cached;
    it->second->cost = cost;
    shard.bytes += cost;
    bytes_gauge_->add(static_cast<double>(cost));
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return cached;
  }
  shard.lru.push_front(Entry{std::move(key), cached, cost});
  shard.index.emplace(std::string_view(shard.lru.front().key), shard.lru.begin());
  shard.bytes += cost;
  bytes_gauge_->add(static_cast<double>(cost));
  entries_gauge_->add(1.0);
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.cost;
    bytes_gauge_->add(-static_cast<double>(victim.cost));
    entries_gauge_->add(-1.0);
    evictions_->increment();
    shard.index.erase(std::string_view(victim.key));
    shard.lru.pop_back();
  }
  return cached;
}

ResponseCacheStats ResponseCache::stats() const {
  ResponseCacheStats stats;
  stats.hits = hits_->value();
  stats.misses = misses_->value();
  stats.evictions = evictions_->value();
  stats.superseded = superseded_->value();
  stats.not_modified = not_modified_->value();
  stats.byte_budget = config_.max_bytes;
  stats.epoch = epoch();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.bytes += shard->bytes;
    stats.entries += shard->lru.size();
  }
  return stats;
}

bool etag_matches(std::string_view if_none_match, std::string_view etag) {
  for (std::string_view token : split(if_none_match, ',')) {
    token = trim(token);
    if (token == "*") return true;
    if (token.starts_with("W/")) token.remove_prefix(2);
    if (token == etag) return true;
  }
  return false;
}

}  // namespace crowdweb::http
