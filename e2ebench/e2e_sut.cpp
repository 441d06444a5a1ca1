// The system under test: one deployment, driven only over loopback.
//
// Boots the deployment (deployment.hpp) from a generated input
// directory and prints one line
//   READY {"ready_ns": ..., "http_port": ..., "frame_port": ..., "setup_ms": {...}}
// once the first epoch is published and both listeners are bound. It
// then serves until SIGTERM or SIGINT, stops everything, and (with
// --trace 1) writes the spans it recorded to --spans.
//
// Run:  e2e_sut --inputs DIR --store DIR [--shards N] [--trace 0|1] [--spans FILE]

#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>

#include "common.hpp"
#include "data/dataset_io.hpp"
#include "deployment.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace crowdweb;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  e2e::DeploymentOptions options;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--inputs") {
      options.inputs = value;
    } else if (flag == "--store") {
      options.store_dir = value;
    } else if (flag == "--shards") {
      const auto parsed = parse_int(value);
      if (!parsed || *parsed < 1 || *parsed > 64) return 2;
      options.shards = static_cast<std::size_t>(*parsed);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (options.inputs.empty() || options.store_dir.empty()) {
    std::fprintf(stderr,
                 "usage: %s --inputs DIR --store DIR [--shards N] [--trace 0|1] "
                 "[--spans FILE]\n",
                 argv[0]);
    return 2;
  }

  // Block the stop signals before any thread exists, so every thread
  // inherits the mask and sigwait below is the only receiver.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  auto deployment = e2e::Deployment::boot(options);
  if (!deployment) {
    std::fprintf(stderr, "boot failed: %s\n", deployment.status().to_string().c_str());
    return 1;
  }
  const std::int64_t ready_ns = e2e::now_ns();
  const json::Value ready = json::object({{"ready_ns", ready_ns},
                                          {"http_port", (*deployment)->http_port()},
                                          {"frame_port", (*deployment)->frame_port()},
                                          {"setup_ms", (*deployment)->setup_ms()}});
  std::printf("READY %s\n", json::dump(ready).c_str());
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&stop_signals, &signal_number);
  (*deployment)->stop();
  if (options.trace && !spans_path.empty()) {
    const Status written =
        data::write_file(spans_path, json::dump((*deployment)->spans().to_json()));
    if (!written.is_ok()) {
      std::fprintf(stderr, "writing spans failed: %s\n", written.to_string().c_str());
      return 1;
    }
  }
  return 0;
}
