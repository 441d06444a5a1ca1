// Input generator: everything a run feeds the system comes from here,
// and from the seed alone.
//
// Writes into --out:
//   venues.csv, checkins.csv  the base corpus the deployment boots from
//   feed.bin                  the live events, in send order (common.hpp)
//   manifest.json             workload parameters + digests of the files
//
// Corpora (see README.md for why each workload uses which):
//   city   the paper-calibrated synthetic New York corpus; the base is
//          April-June (the shipped Platform window), the feed is the same
//          city's later check-ins in time order.
//   dense  routine telemetry: every user checks in at most visits
//          (high propensity), April-May as the base, June as the feed.
// --scale tiny shrinks both to a few dozen users for the self-test.
//
// Run:  e2e_gen --workload NAME --seed N --seconds S --scale full|tiny
//               [--feed-rate R] [--read-rate R] --out DIR

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "data/dataset_io.hpp"
#include "synth/generator.hpp"
#include "util/civil_time.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace crowdweb;

namespace {

struct Plan {
  std::string corpus;          ///< "city" or "dense"
  double feed_rate = 0.0;      ///< offered events/s (open loop)
  double read_rate = 0.0;      ///< open-loop reads/s over all reader connections
  int read_connections = 0;
  int shards = 1;
};

// The workload table. Each feed rate is a stated fraction of the
// workload's measured saturation point (README.md, "Offered rates");
// changing one changes the benchmark, not the program.
bool plan_for(std::string_view workload, bool tiny, Plan* plan) {
  if (workload == "live_city") {
    *plan = {"city", tiny ? 200.0 : 2000.0, tiny ? 100.0 : 400.0, 2, 1};
  } else if (workload == "dense_backfill") {
    *plan = {"dense", tiny ? 400.0 : 30000.0, tiny ? 100.0 : 400.0, 1, 4};
  } else {
    return false;
  }
  return true;
}

std::int64_t day(int year, int month, int d) { return to_epoch_seconds({year, month, d, 0, 0, 0}); }

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  std::string workload;
  std::string out;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool tiny = false;
  double feed_rate = 0.0;  // overrides for saturation sweeps; 0 = the plan's
  double read_rate = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      const auto parsed = parse_int(value);
      if (!parsed || *parsed < 0) return 2;
      seed = static_cast<std::uint64_t>(*parsed);
    } else if (flag == "--seconds") {
      const auto parsed = parse_double(value);
      if (!parsed || *parsed <= 0) return 2;
      seconds = *parsed;
    } else if (flag == "--feed-rate" || flag == "--read-rate") {
      const auto parsed = parse_double(value);
      if (!parsed || *parsed <= 0) return 2;
      (flag == "--feed-rate" ? feed_rate : read_rate) = *parsed;
    } else if (flag == "--scale") {
      tiny = std::string_view(value) == "tiny";
    } else if (flag == "--out") {
      out = value;
    } else {
      return 2;
    }
  }
  Plan plan;
  if (out.empty() || !plan_for(workload, tiny, &plan)) {
    std::fprintf(stderr,
                 "usage: %s --workload live_city|dense_backfill --seed N "
                 "--seconds S --scale full|tiny [--feed-rate R] [--read-rate R] --out DIR\n",
                 argv[0]);
    return 2;
  }
  if (feed_rate > 0) plan.feed_rate = feed_rate;
  if (read_rate > 0) plan.read_rate = read_rate;

  synth::GeneratorConfig config;
  config.seed = seed;
  synth::CityConfig city;
  std::int64_t base_end = day(2012, 7, 1);
  std::int64_t feed_end = day(2013, 3, 1);
  int min_active_days = 50;
  if (plan.corpus == "dense") {
    config.user_count = tiny ? 40 : 1500;
    config.monthly_activity.assign(config.monthly_activity.size(), 1.0);
    config.routine.propensity_log_mean = std::log(0.85);
    config.routine.propensity_log_stddev = 0.05;
    base_end = day(2012, 6, 1);
  } else if (tiny) {
    config.user_count = 60;
    config.period_end = day(2012, 8, 1);
    config.monthly_activity = {1.35, 1.45, 1.30, 1.0};
    feed_end = config.period_end;
  }
  if (tiny) {
    city.venue_count = 800;
    city.neighborhood_count = 12;
    min_active_days = 20;
  }
  auto corpus = synth::generate_corpus(config, city);
  if (!corpus) {
    std::fprintf(stderr, "corpus failed: %s\n", corpus.status().to_string().c_str());
    return 1;
  }
  const data::Dataset base = corpus->dataset.filter_time_range(config.period_start, base_end);
  const data::Dataset later = corpus->dataset.filter_time_range(base_end, feed_end);

  std::vector<ingest::IngestEvent> feed;
  // One second past the measured ones keeps the feed steady while the
  // measured events become visible (e2e_load.cpp, run_live_city).
  const double wanted = plan.feed_rate * (seconds + 1);
  if (wanted > 0) {
    std::vector<data::CheckIn> stream(later.checkins().begin(), later.checkins().end());
    std::stable_sort(stream.begin(), stream.end(),
                     [](const data::CheckIn& a, const data::CheckIn& b) {
                       return a.timestamp < b.timestamp;
                     });
    const auto count = std::min(stream.size(), static_cast<std::size_t>(std::ceil(wanted)));
    if (count < static_cast<std::size_t>(std::ceil(wanted))) {
      std::fprintf(stderr, "corpus holds only %zu feed events, %g wanted\n", stream.size(),
                   wanted);
      return 1;
    }
    feed.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const data::CheckIn& c = stream[i];
      feed.push_back({c.user, c.category, c.position, c.timestamp});
    }
  }

  std::filesystem::create_directories(out);
  const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
  const std::string venues = data::venues_to_csv(base, taxonomy);
  const std::string checkins = data::checkins_to_csv(base, taxonomy);
  Status status = data::write_file(out + "/venues.csv", venues);
  if (status.is_ok()) status = data::write_file(out + "/checkins.csv", checkins);
  if (status.is_ok()) status = e2e::write_events(out + "/feed.bin", feed);
  if (!status.is_ok()) {
    std::fprintf(stderr, "writing inputs failed: %s\n", status.to_string().c_str());
    return 1;
  }
  auto feed_bytes = data::read_file(out + "/feed.bin");
  if (!feed_bytes) return 1;
  const std::uint64_t digest = e2e::fnv1a(*feed_bytes, e2e::fnv1a(checkins, e2e::fnv1a(venues)));

  const json::Value manifest = json::object(
      {{"workload", workload},
       {"seed", seed},
       {"seconds", seconds},
       {"scale", tiny ? "tiny" : "full"},
       {"corpus", plan.corpus},
       {"min_active_days", min_active_days},
       {"shards", plan.shards},
       {"feed_rate", plan.feed_rate},
       {"read_rate", plan.read_rate},
       {"read_connections", plan.read_connections},
       {"base_checkins", base.checkin_count()},
       {"base_users", base.user_count()},
       {"feed_events", feed.size()},
       {"digest",
        json::object({{"venues.csv", e2e::hex64(e2e::fnv1a(venues))},
                      {"checkins.csv", e2e::hex64(e2e::fnv1a(checkins))},
                      {"feed.bin", e2e::hex64(e2e::fnv1a(*feed_bytes))},
                      {"inputs", e2e::hex64(digest)}})}});
  status = data::write_file(out + "/manifest.json", json::dump(manifest) + "\n");
  if (!status.is_ok()) return 1;
  std::printf("%s\n", json::dump(manifest).c_str());
  return 0;
}
