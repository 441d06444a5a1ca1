// The deployment under test, wired in one place.
//
// This mirrors how examples/live_monitor.cpp (one process: Platform ->
// IngestWorker) and examples/city_dashboard.cpp (hash ShardRouter) boot
// the live platform: Platform, then the IngestWorker or ShardRouter,
// then the binary frame listener, then the API router with the response
// cache and the SSE publisher, then http::Server. Every knob is the
// library default except the store directory, which each run makes
// fresh. A change to the deployment API is edited here and nowhere else
// in the benchmark; the reference replay in e2e_load uses the same
// platform_config() and load_dataset().
//
// With tracing on, the wiring records spans around public calls only:
// each SubmitFn call into IngestWorker::submit / ShardRouter::submit,
// each SnapshotHub::on_publish (epoch, rebuild_ms, live_checkins), and
// the start() of the worker/router and server. Nothing inside src/ is
// instrumented.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/platform.hpp"
#include "data/dataset.hpp"
#include "json/json.hpp"
#include "util/status.hpp"

namespace e2e {

/// Platform configuration for a generated input directory: the library
/// defaults plus the manifest's active-user threshold.
[[nodiscard]] crowdweb::core::PlatformConfig platform_config(const crowdweb::json::Value& manifest);

/// Loads venues.csv + checkins.csv of an input directory.
[[nodiscard]] crowdweb::Result<crowdweb::data::Dataset> load_dataset(const std::string& dir);

struct DeploymentOptions {
  std::string inputs;     ///< generated input directory
  std::string store_dir;  ///< fresh durable-store directory
  std::size_t shards = 1;  ///< 1 = IngestWorker; >= 2 = hash ShardRouter
  bool trace = false;
};

class Deployment {
 public:
  /// Loads the inputs, builds and starts everything, and returns once
  /// the first epoch is published and both listeners are bound.
  static crowdweb::Result<std::unique_ptr<Deployment>> boot(const DeploymentOptions& options);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Stops listeners, workers and the server (idempotent).
  void stop();

  [[nodiscard]] std::uint16_t http_port() const noexcept;
  [[nodiscard]] std::uint16_t frame_port() const noexcept;
  /// Milliseconds per set-up step: load, build.{acquisition,mining,crowd},
  /// start.{worker,frames,server}.
  [[nodiscard]] const crowdweb::json::Value& setup_ms() const noexcept { return setup_ms_; }
  [[nodiscard]] const SpanLog& spans() const noexcept { return spans_; }

 private:
  struct Parts;
  Deployment();

  SpanLog spans_;
  crowdweb::json::Value setup_ms_;
  std::unique_ptr<Parts> parts_;
};

}  // namespace e2e
