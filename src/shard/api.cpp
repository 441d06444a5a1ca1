#include "shard/api.hpp"

#include <utility>
#include <vector>

#include "core/api.hpp"

namespace crowdweb::shard {

namespace {

/// The router as the core route tree's view source: reads pin its
/// merged view (a degraded one is accounted), writes route by owner.
class RouterDeployment final : public core::Deployment {
 public:
  explicit RouterDeployment(ShardRouter& router) : router_(router) {}

  core::ViewPtr pin() const override {
    core::ViewPtr view = router_.merged();
    if (view->degraded) router_.note_degraded_read();
    return view;
  }

  std::vector<core::ShardSlot> shards() const override {
    std::vector<core::ShardSlot> slots;
    for (std::size_t id = 0; id < router_.shard_count(); ++id) {
      Shard& shard = router_.shard(id);
      slots.push_back({id, shard.up(), &shard.worker()});
    }
    return slots;
  }

  ingest::SubmitResult submit(std::span<const ingest::IngestEvent> events) override {
    return router_.submit(events);
  }

 private:
  ShardRouter& router_;
};

}  // namespace

http::Router make_shard_api_router(ShardRouter& router, ShardApiOptions options) {
  core::ApiOptions api;
  api.server_stats = std::move(options.server_stats);
  api.metrics = options.metrics;
  api.cache = options.cache;
  api.http_workers = options.http_workers;
  return core::make_router(router.platform(), std::make_shared<RouterDeployment>(router), api);
}

}  // namespace crowdweb::shard
