// Shared setup for the benches.
//
// Every figure bench runs on the same corpus the paper's Section III
// uses: the calibrated paper-scale synthetic dump, restricted to the
// April-June window, active users only. Building it costs a couple of
// seconds, so benches construct it once and share it. The cost benches
// share the timing and gate helpers at the end.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <filesystem>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/dataset_io.hpp"
#include "json/json.hpp"
#include "patterns/mobility.hpp"
#include "stats/summary.hpp"
#include "synth/generator.hpp"
#include "util/civil_time.hpp"
#include "util/log.hpp"

namespace crowdweb::bench {

/// The support sweep of Figures 5 and 7.
inline const std::vector<double>& support_sweep() {
  static const std::vector<double> kSweep{0.25, 0.3125, 0.375, 0.4375, 0.5,
                                          0.5625, 0.625, 0.6875, 0.75};
  return kSweep;
}

/// The Section III experiment corpus (April-June, active users) for a
/// seed; corpora are cached so sweeps over several seeds generate each
/// one once.
inline const data::Dataset& experiment_dataset(std::uint64_t seed = 42) {
  static std::map<std::uint64_t, const data::Dataset*>* cache =
      new std::map<std::uint64_t, const data::Dataset*>();
  const auto it = cache->find(seed);
  if (it != cache->end()) return *it->second;
  set_log_level(LogLevel::kWarn);
  auto corpus = synth::paper_corpus(seed);
  if (!corpus) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().to_string().c_str());
    std::abort();
  }
  data::ActiveUserCriteria criteria;
  criteria.from = to_epoch_seconds({2012, 4, 1, 0, 0, 0});
  criteria.to = to_epoch_seconds({2012, 7, 1, 0, 0, 0});
  criteria.min_days = 50;
  criteria.max_gap_seconds = 0;
  const data::Dataset window =
      corpus->dataset.filter_time_range(criteria.from, criteria.to);
  const data::Dataset* dataset = new data::Dataset(window.filter_active_users(criteria));
  (*cache)[seed] = dataset;
  return *dataset;
}

/// The full 11-month corpus (Section I.1 statistics).
inline const data::Dataset& full_dataset(std::uint64_t seed = 42) {
  static const data::Dataset* instance = [seed] {
    set_log_level(LogLevel::kWarn);
    auto corpus = synth::paper_corpus(seed);
    if (!corpus) {
      std::fprintf(stderr, "corpus generation failed: %s\n",
                   corpus.status().to_string().c_str());
      std::abort();
    }
    return new data::Dataset(std::move(corpus->dataset));
  }();
  return *instance;
}

/// Per-user metrics of one mining run at a given support threshold.
struct SweepPoint {
  double min_support = 0.0;
  std::vector<double> patterns_per_user;  ///< one entry per active user
  std::vector<double> avg_length_per_user;  ///< users with >= 1 pattern only
};

/// Runs phase 2 over the experiment corpus at `min_support`.
inline SweepPoint run_sweep_point(double min_support, std::uint64_t seed = 42) {
  SweepPoint point;
  point.min_support = min_support;
  patterns::MobilityOptions options;
  options.mining.min_support = min_support;
  const auto all = patterns::mine_all_mobility(experiment_dataset(seed),
                                               data::Taxonomy::foursquare(), options);
  for (const patterns::UserMobility& user : all) {
    point.patterns_per_user.push_back(static_cast<double>(user.patterns.size()));
    if (!user.patterns.empty())
      point.avg_length_per_user.push_back(patterns::average_pattern_length(user.patterns));
  }
  return point;
}

/// Directory the benches drop SVG charts into; created on demand.
inline std::string output_dir() {
  const std::string dir = "bench_output";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Milliseconds since `start` on the steady clock.
inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The sample at rank p * n of the sorted samples (0 for none).
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = std::min(
      samples.size() - 1, static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return samples[rank];
}

/// Prints one gate's verdict, counting a failure in `*failures`.
inline bool check(bool ok, const char* what, int* failures) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++*failures;
  return ok;
}

/// Writes `report` as one JSON line to `path`; prints where, or why not.
inline bool write_report(const std::string& path, const json::Value& report) {
  const Status written = data::write_file(path, json::dump(report) + "\n");
  if (!written.is_ok()) {
    std::fprintf(stderr, "writing %s failed: %s\n", path.c_str(), written.to_string().c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace crowdweb::bench
