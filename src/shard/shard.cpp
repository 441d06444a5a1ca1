#include "shard/shard.hpp"

#include <utility>

namespace crowdweb::shard {

Shard::Shard(const ingest::PlatformSnapshot& seed, const data::Taxonomy& taxonomy,
             ingest::IngestPipelineConfig pipeline, ingest::IngestWorkerConfig config)
    : worker_(std::make_unique<ingest::IngestWorker>(seed, taxonomy, std::move(pipeline),
                                                     std::move(config))) {}

Status Shard::start() { return worker_->start(); }

void Shard::stop() { worker_->stop(); }

}  // namespace crowdweb::shard
