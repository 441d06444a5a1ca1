// Epoch-rebuild bench: the ingest worker's epoch step vs corpus size.
//
// The claim: a K-event delta costs O(K log) maintenance, so small-delta
// epoch latency is governed by the delta, not the corpus. The timed
// region is one ingest::EpochStep::step, the function the worker runs
// every epoch, seeded like a worker with the batch build of a synthetic
// corpus. Two corpora a decade apart in size take deltas of {1, 100,
// 10'000} fresh check-ins rotating through the users. Each row reports
// the step's p50/p99, its merge/mine/crowd p50 and the counted and mined
// users, next to the from-scratch rebuild cost.
//
// Emits BENCH_rebuild.json (override with --out). --smoke cuts the
// repetition counts for CI. The recorded acceptance bar: small-delta
// (K <= 100) epoch p50 grows less than 2x when the corpus grows 10x.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "crowd/model.hpp"
#include "data/categories.hpp"
#include "data/dataset.hpp"
#include "geo/grid.hpp"
#include "ingest/epoch_step.hpp"
#include "json/json.hpp"
#include "patterns/mobility.hpp"
#include "synth/generator.hpp"
#include "util/civil_time.hpp"
#include "util/log.hpp"

using namespace crowdweb;
using Clock = std::chrono::steady_clock;

namespace {

using bench::check;
using bench::ms_since;
using bench::percentile;

struct Args {
  bool smoke = false;
  std::string out = "BENCH_rebuild.json";
};

/// One corpus size's measurements.
struct CorpusReport {
  std::size_t users = 0;
  std::size_t checkins = 0;
  double full_rebuild_ms = 0.0;
  double first_touch_ms = 0.0;
  json::Value deltas = json::Value(json::Array{});
  double p50_k1_ms = 0.0;
  double p50_k100_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      args.out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out path]\n", argv[0]);
      return 2;
    }
  }
  set_log_level(LogLevel::kError);
  int failures = 0;

  const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
  const patterns::MobilityOptions mobility_options;
  const crowd::CrowdOptions crowd_options;

  // Two corpora a decade apart in user count; per-user history length
  // stays fixed (same collection period), so the delta pipeline's
  // per-user work is comparable across sizes. Both must hold at least
  // 100 users, so a K=100 delta touches the same number of users in
  // each — smoke shrinks repetitions, not the corpora.
  const std::vector<std::size_t> corpus_users{100, 1'000};
  const std::vector<std::size_t> delta_sizes{1, 100, 10'000};
  const auto reps_for = [&](std::size_t k) -> int {
    if (args.smoke) return k >= 10'000 ? 2 : 5;
    return k >= 10'000 ? 5 : (k >= 100 ? 15 : 40);
  };

  std::printf("=== Epoch rebuild: delta pipeline latency vs corpus size ===\n");
  std::printf("mode: %s, deltas {1, 100, 10000}\n\n", args.smoke ? "smoke" : "full");

  json::Value corpora = json::Value(json::Array{});
  std::vector<CorpusReport> reports;
  for (const std::size_t users : corpus_users) {
    synth::GeneratorConfig generator;
    generator.user_count = users;  // full collection period: realistic histories
    auto corpus = synth::generate_corpus(generator);
    if (!corpus.is_ok()) {
      std::fprintf(stderr, "corpus failed: %s\n", corpus.status().to_string().c_str());
      return 1;
    }
    CorpusReport report;
    report.users = corpus->dataset.user_count();
    report.checkins = corpus->dataset.checkin_count();

    // Initial derived state, exactly as the worker builds it.
    const patterns::MobilityTable base_mobility = patterns::MobilityTable::from_entries(
        patterns::mine_all_mobility(corpus->dataset, taxonomy, mobility_options, 0));
    auto grid = geo::SpatialGrid::create(corpus->dataset.bounds().inflated(0.002), 500.0);
    if (!grid.is_ok()) {
      std::fprintf(stderr, "grid failed: %s\n", grid.status().to_string().c_str());
      return 1;
    }
    auto crowd =
        crowd::CrowdModel::build(corpus->dataset, base_mobility, *grid, crowd_options);
    if (!crowd.is_ok()) {
      std::fprintf(stderr, "crowd failed: %s\n", crowd.status().to_string().c_str());
      return 1;
    }
    // Every mining thread, like a lone worker's default.
    ingest::EpochStep live(corpus->dataset, base_mobility, std::move(*crowd), taxonomy,
                           mobility_options, 0);

    // From-scratch comparator: rebuild the world over the same records.
    {
      const auto start = Clock::now();
      data::DatasetBuilder scratch;
      for (const data::Venue& venue : live.dataset().venues())
        (void)scratch.add_venue(live.dataset().venue_spec(venue.id));
      for (const data::CheckIn& checkin : live.dataset().checkins())
        (void)scratch.add_checkin(checkin);
      const data::Dataset rebuilt = scratch.build();
      const std::vector<patterns::UserMobility> mined =
          patterns::mine_all_mobility(rebuilt, taxonomy, mobility_options, 0);
      auto scratch_grid =
          geo::SpatialGrid::create(rebuilt.bounds().inflated(0.002), 500.0);
      auto scratch_crowd = scratch_grid.is_ok()
                               ? crowd::CrowdModel::build(rebuilt, mined, *scratch_grid,
                                                          crowd_options)
                               : Result<crowd::CrowdModel>(scratch_grid.status());
      if (!scratch_crowd.is_ok()) {
        std::fprintf(stderr, "from-scratch rebuild failed\n");
        return 1;
      }
      report.full_rebuild_ms = ms_since(start);
    }

    // K fresh events at known venues, rotating through the users, and
    // the users they touch (the worker keeps that set outside the step).
    const std::vector<data::UserId> all_users(live.dataset().users().begin(),
                                              live.dataset().users().end());
    std::int64_t next_timestamp = generator.period_end;
    std::size_t rotate = 0;
    std::vector<data::CheckIn> delta;
    std::vector<data::UserId> changed;
    const auto next_delta = [&](std::size_t k) {
      delta.clear();
      for (std::size_t i = 0; i < k; ++i) {
        const data::UserId user = all_users[rotate++ % all_users.size()];
        data::CheckIn checkin = live.dataset().checkins_for(user).front();
        checkin.timestamp = next_timestamp;
        next_timestamp += 60;
        delta.push_back(checkin);
      }
      changed.clear();
      for (const data::CheckIn& checkin : delta) changed.push_back(checkin.user);
    };

    // A user's first delta refiles their kept index, mines them in full
    // and grows their record column, once per process. One event per
    // user takes that before the timed rows, so both corpora are timed
    // from the same kept state, as a running worker is; its cost is
    // reported on its own.
    next_delta(all_users.size());
    const auto touch_start = Clock::now();
    if (!live.step({}, delta, changed).is_ok()) return 1;
    report.first_touch_ms = ms_since(touch_start);

    std::printf("--- corpus: %zu users, %zu check-ins (from-scratch rebuild %.1f ms, "
                "first touch of every user %.1f ms) ---\n",
                report.users, report.checkins, report.full_rebuild_ms, report.first_touch_ms);
    std::printf("%8s %6s %10s %10s %13s %10s %10s %10s %8s %8s\n", "delta", "reps",
                "p50 ms", "p99 ms", "vs full (p50)", "merge p50", "mine p50", "crowd p50",
                "counted", "mined");

    for (const std::size_t k : delta_sizes) {
      const int reps = reps_for(k);
      // Wall time of each step, then its merge, mine and crowd stages.
      std::vector<double> samples[4];
      std::size_t counted_users = 0;
      std::size_t mined_users = 0;
      for (int rep = 0; rep < reps; ++rep) {
        next_delta(k);
        const auto start = Clock::now();
        auto stepped = live.step({}, delta, changed);
        samples[0].push_back(ms_since(start));
        if (!stepped.is_ok()) {
          std::fprintf(stderr, "step failed: %s\n", stepped.status().to_string().c_str());
          return 1;
        }
        samples[1].push_back(stepped->merge_seconds * 1e3);
        samples[2].push_back(stepped->mine_seconds * 1e3);
        samples[3].push_back(stepped->crowd_seconds * 1e3);
        counted_users += stepped->counted_users;
        mined_users += stepped->mined_users;
      }
      const double p50 = percentile(samples[0], 0.50);
      const double p99 = percentile(samples[0], 0.99);
      const double merge_p50 = percentile(samples[1], 0.50);
      const double mine_p50 = percentile(samples[2], 0.50);
      const double crowd_p50 = percentile(samples[3], 0.50);
      if (k == 1) report.p50_k1_ms = p50;
      if (k == 100) report.p50_k100_ms = p50;
      std::printf("%8zu %6d %10.3f %10.3f %12.0fx %10.3f %10.3f %10.3f %8zu %8zu\n", k, reps,
                  p50, p99, p50 > 0 ? report.full_rebuild_ms / p50 : 0.0, merge_p50, mine_p50,
                  crowd_p50, counted_users, mined_users);
      report.deltas.push_back(json::object(
          {{"k", static_cast<std::int64_t>(k)},
           {"reps", static_cast<std::int64_t>(reps)},
           {"p50_ms", p50},
           {"p99_ms", p99},
           {"speedup_vs_full", p50 > 0 ? report.full_rebuild_ms / p50 : 0.0},
           {"merge_p50_ms", merge_p50},
           {"mine_p50_ms", mine_p50},
           {"crowd_p50_ms", crowd_p50},
           {"counted_users", static_cast<std::int64_t>(counted_users)},
           {"mined_users", static_cast<std::int64_t>(mined_users)}}));
    }
    std::printf("\n");
    corpora.push_back(json::object(
        {{"users", static_cast<std::int64_t>(report.users)},
         {"checkins", static_cast<std::int64_t>(report.checkins)},
         {"full_rebuild_ms", report.full_rebuild_ms},
         {"first_touch_ms", report.first_touch_ms},
         {"deltas", report.deltas}}));
    reports.push_back(std::move(report));
  }

  // Acceptance: with a 10x corpus, small-delta epoch p50 grows < 2x.
  const CorpusReport& small = reports.front();
  const CorpusReport& large = reports.back();
  const double growth_k1 =
      small.p50_k1_ms > 0 ? large.p50_k1_ms / small.p50_k1_ms : 0.0;
  const double growth_k100 =
      small.p50_k100_ms > 0 ? large.p50_k100_ms / small.p50_k100_ms : 0.0;
  std::printf("corpus %zu -> %zu check-ins: K=1 p50 grew %.2fx, K=100 p50 grew %.2fx\n\n",
              small.checkins, large.checkins, growth_k1, growth_k100);
  check(growth_k1 < 2.0, "K=1 epoch p50 grows < 2x at 10x corpus", &failures);
  check(growth_k100 < 2.0, "K=100 epoch p50 grows < 2x at 10x corpus", &failures);
  check(large.p50_k1_ms < large.full_rebuild_ms,
        "K=1 incremental epoch beats the from-scratch rebuild", &failures);

  json::Value output = json::object({{"bench", "rebuild"},
                                     {"mode", args.smoke ? "smoke" : "full"},
                                     {"corpora", std::move(corpora)},
                                     {"growth_p50_k1", growth_k1},
                                     {"growth_p50_k100", growth_k100},
                                     {"passed", failures == 0}});
  if (!bench::write_report(args.out, output)) return 1;
  if (failures > 0) {
    std::fprintf(stderr, "%d assertion(s) failed\n", failures);
    return 1;
  }
  return 0;
}
