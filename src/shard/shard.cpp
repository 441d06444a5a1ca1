#include "shard/shard.hpp"

#include <utility>

namespace crowdweb::shard {

Shard::Shard(ShardSpec spec, const data::Dataset& base,
             const patterns::MobilityTable& mobility, const data::Taxonomy& taxonomy,
             ingest::IngestPipelineConfig pipeline, ingest::IngestWorkerConfig config)
    : spec_(std::move(spec)),
      worker_(std::make_unique<ingest::IngestWorker>(base, mobility, taxonomy,
                                                     std::move(pipeline),
                                                     std::move(config))) {}

Status Shard::start() {
  start_status_ = worker_->start();
  return start_status_;
}

void Shard::stop() { worker_->stop(); }

}  // namespace crowdweb::shard
