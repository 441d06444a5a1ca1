// Pipeline hot-path bench: grid + crowd build cost and corpus memory.
//
// Measures what an epoch rebuild pays after mining — binning every
// record into the spatial grid and building the crowd model — at 1x
// and 10x corpus, and accounts the resident bytes of the corpus
// representation (SoA shard columns + venue table + interning pool +
// indexes) so layout changes show up as a number, not a feeling.
//
// Two comparisons gate the columnar refactor and run as PASS/FAIL
// checks at the largest corpus:
//
//   1. Throughput: the columnar stage (geo::clamped_cells over the
//      coordinate columns + crowd::CrowdModel::build's venue tallies)
//      must beat an in-bench reimplementation of the pre-refactor
//      stage (clamped_cell_of per materialized record + the old
//      std::map-nest RepresentativeVenues) by at least 2x — while
//      producing byte-identical placements.
//   2. Memory: the SoA epoch-resident set (the dataset's column
//      buffers at their capacity, for the corpus grown a week per epoch
//      as a live worker grows it, + venue table + interning pool + the
//      flat mining sequence DB) must keep at least 30% fewer bytes
//      than the AoS-equivalent accounting of the same corpus under the
//      pre-refactor layout (40-byte CheckIn rows, venues with inline
//      std::string names, and the old vector-of-vectors sequence DB
//      with two heap headers per user-day).
//
// A load block round-trips each corpus through the CSV writers and
// data::dataset_from_csv, reporting rows, MB, MB/s and ms; a third
// check fails unless the restored corpus equals the original record
// for record (coordinates after the writer's 7-decimal rounding). It
// has no timing bar.
//
// Emits BENCH_pipeline.json (override with --out). --smoke shrinks
// repetition counts for CI; the corpora stay full-size so the 10x
// numbers mean something.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crowd/model.hpp"
#include "data/categories.hpp"
#include "data/dataset.hpp"
#include "data/dataset_io.hpp"
#include "geo/grid.hpp"
#include "geo/kernels.hpp"
#include "json/json.hpp"
#include "mining/seqdb.hpp"
#include "patterns/mobility.hpp"
#include "synth/generator.hpp"
#include "util/civil_time.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace crowdweb;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = std::min(
      samples.size() - 1, static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  return samples[rank];
}

struct Args {
  bool smoke = false;
  std::string out = "BENCH_pipeline.json";
};

bool check(bool ok, const char* what, int& failures) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
  return ok;
}

/// Peak resident set of this process so far, in bytes.
std::size_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

/// libstdc++ keeps strings up to 15 chars inline; longer ones heap-
/// allocate size+1 bytes.
std::size_t string_heap_bytes(std::string_view s) {
  return s.size() > 15 ? s.size() + 1 : 0;
}

/// Bytes the SoA corpus representation keeps resident: each user's
/// column buffer at its capacity (28 bytes per slot, so spare slots
/// kept for appends count too), the POD venue table, the interning
/// pool's string arena and snapshot index, and the user index. Walks
/// the same structures every pipeline stage walks.
std::size_t soa_resident_bytes(const data::Dataset& dataset) {
  std::size_t bytes = 0;
  const std::size_t per_slot = sizeof(std::int64_t) + 2 * sizeof(double) +
                               sizeof(data::VenueId);  // 28: ts + lat + lon + venue
  // The column buffer's header (capacity, four column pointers, the
  // fill count) plus its shared_ptr control block.
  constexpr std::size_t kBufferHeaderBytes = 48 + 16;
  for (const data::UserId user : dataset.users()) {
    const data::Dataset::ShardPtr shard = dataset.shard_for(user);
    bytes += shard->capacity() * per_slot + kBufferHeaderBytes;
    // Shard object + shared_ptr control block.
    bytes += sizeof(data::Dataset::UserShard) + 32;
  }
  bytes += dataset.venue_count() * sizeof(data::Venue);  // POD rows, 32 bytes
  if (const data::NamesPtr& names = dataset.names()) {
    for (const std::string_view name : names->names()) {
      // Arena string object + heap spill, plus the snapshot's view.
      bytes += sizeof(std::string) + string_heap_bytes(name) + sizeof(std::string_view);
    }
  }
  // users_/offsets_ index vectors.
  bytes += dataset.user_count() * (sizeof(data::UserId) + sizeof(std::size_t));
  return bytes;
}

/// The same corpus grown a week per epoch through the incremental
/// builder, as a live worker holds it: each user's column buffer keeps
/// the spare slots its appends left.
data::Dataset grown_by_week(const data::Dataset& dataset) {
  data::DatasetBuilder seed;
  for (const data::Venue& venue : dataset.venues()) {
    if (!seed.add_venue(dataset.venue_spec(venue.id)).is_ok()) std::abort();
  }
  data::Dataset live = seed.build();
  const data::DatasetStats stats = dataset.stats();
  for (std::int64_t from = stats.first_timestamp; from <= stats.last_timestamp;
       from += 7 * 86'400) {
    data::DatasetBuilder builder(live);
    for (const data::CheckIn& checkin : dataset.checkins()) {
      if (checkin.timestamp >= from && checkin.timestamp < from + 7 * 86'400 &&
          !builder.add_checkin(checkin).is_ok())
        std::abort();
    }
    live = builder.build();
  }
  return live;
}

/// What the same corpus cost under the pre-refactor layout, from the
/// historical struct sizes: 40-byte CheckIn rows (user + venue +
/// category + position + timestamp, padded) in one vector per 32-byte
/// shard, and 64-byte Venue rows carrying an inline std::string name
/// with its heap spill. Kept as constants so the comparison survives
/// the old structs no longer existing.
std::size_t aos_equivalent_bytes(const data::Dataset& dataset) {
  constexpr std::size_t kOldCheckInBytes = 40;
  constexpr std::size_t kOldShardBytes = 32;  // UserId + vector<CheckIn>
  constexpr std::size_t kOldVenueBytes = 64;
  std::size_t bytes = 0;
  for (const data::UserId user : dataset.users()) {
    bytes += dataset.checkins_for(user).size() * kOldCheckInBytes;
    bytes += kOldShardBytes + 32;  // shard + shared_ptr control block
  }
  for (const data::Venue& venue : dataset.venues()) {
    bytes += kOldVenueBytes + string_heap_bytes(dataset.venue_name(venue.id));
  }
  bytes += dataset.user_count() * (sizeof(data::UserId) + sizeof(std::size_t));
  return bytes;
}

/// Bytes the flat SoA sequence DB keeps resident: the three columns
/// plus each per-user object.
std::size_t soa_seqdb_bytes(const std::vector<mining::UserSequences>& db) {
  std::size_t bytes = db.size() * sizeof(mining::UserSequences);
  for (const mining::UserSequences& user : db) {
    bytes += user.items.size() * sizeof(mining::Item) +
             user.item_minutes.size() * sizeof(int) +
             user.day_offsets.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

/// The same sequences under the pre-refactor vector-of-vectors layout:
/// per user the old UserSequences object (UserId + two outer vectors),
/// per day two inner vector headers (labels + minutes), per element the
/// same 8 bytes of payload.
std::size_t aos_seqdb_bytes(const std::vector<mining::UserSequences>& db) {
  constexpr std::size_t kVectorBytes = 24;  // LP64 std::vector header
  constexpr std::size_t kOldUserSequencesBytes = 8 + 2 * kVectorBytes;
  std::size_t bytes = 0;
  for (const mining::UserSequences& user : db) {
    bytes += kOldUserSequencesBytes;
    bytes += user.day_count() * 2 * kVectorBytes;
    bytes += user.items.size() * (sizeof(mining::Item) + sizeof(int));
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Pre-refactor comparator: the seed's record-at-a-time crowd stage,
// preserved here so the columnar kernels are benched against the real
// thing — same picks, same placements, different layout and algorithm.

/// The seed's RepresentativeVenues: a nest of std::maps filled one
/// materialized record at a time.
class LegacyRepresentativeVenues {
 public:
  LegacyRepresentativeVenues(const data::Dataset& dataset, data::UserId user,
                             const data::Taxonomy& taxonomy, int window_minutes) {
    for (const data::CheckIn checkin : dataset.checkins_for(user)) {
      const mining::Item label = taxonomy.root_of(checkin.category);
      const CivilTime civil = to_civil(checkin.timestamp);
      const int window = (civil.hour * 60 + civil.minute) / window_minutes;
      ++windowed_[{label, window}][checkin.venue];
      ++overall_[label][checkin.venue];
    }
  }

  [[nodiscard]] std::optional<data::VenueId> pick(mining::Item label, int window) const {
    if (const auto it = windowed_.find({label, window}); it != windowed_.end())
      return best(it->second);
    if (const auto it = overall_.find(label); it != overall_.end()) return best(it->second);
    return std::nullopt;
  }

 private:
  using VenueCounts = std::map<data::VenueId, std::size_t>;

  static data::VenueId best(const VenueCounts& counts) {
    data::VenueId best_venue = counts.begin()->first;
    std::size_t best_count = 0;
    for (const auto& [venue, count] : counts) {
      if (count > best_count) {
        best_count = count;
        best_venue = venue;
      }
    }
    return best_venue;
  }

  std::map<std::pair<mining::Item, int>, VenueCounts> windowed_;
  std::map<mining::Item, VenueCounts> overall_;
};

/// The seed's place_all: per-user map construction plus per-placement
/// clamped_cell_of.
std::vector<std::vector<crowd::CrowdPlacement>> legacy_place_all(
    const data::Dataset& dataset, const patterns::MobilityTable& mobility,
    const geo::SpatialGrid& grid, const crowd::CrowdOptions& options) {
  const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
  const int windows = (24 * 60) / options.window_minutes;
  std::vector<std::vector<crowd::CrowdPlacement>> out(static_cast<std::size_t>(windows));
  for (const patterns::UserMobility& user : mobility) {
    if (user.patterns.empty()) continue;
    const LegacyRepresentativeVenues venues(dataset, user.user, taxonomy,
                                            options.window_minutes);
    std::set<std::pair<int, mining::Item>> placed;
    for (const patterns::MobilityPattern& pattern : user.patterns) {
      if (pattern.support < options.min_pattern_support) continue;
      for (const patterns::TimedElement& element : pattern.elements) {
        const int minute = static_cast<int>(element.mean_minute);
        const int window = std::clamp(minute / options.window_minutes, 0, windows - 1);
        if (!placed.insert({window, element.label}).second) continue;
        const auto venue_id = venues.pick(element.label, window);
        if (!venue_id) continue;
        const data::Venue* venue = dataset.venue(*venue_id);
        if (venue == nullptr) continue;
        crowd::CrowdPlacement placement;
        placement.user = user.user;
        placement.label = element.label;
        placement.venue = *venue_id;
        placement.position = venue->position;
        placement.cell = grid.clamped_cell_of(venue->position);
        placement.pattern_support = pattern.support;
        out[static_cast<std::size_t>(window)].push_back(placement);
      }
    }
  }
  return out;
}

/// The seed's record binning: one clamped_cell_of call per
/// materialized record. Returns a checksum so the work survives the
/// optimizer and can be compared against the batch kernel's.
std::uint64_t legacy_bin_records(const data::Dataset& dataset, const geo::SpatialGrid& grid) {
  std::uint64_t sum = 0;
  for (const data::UserId user : dataset.users()) {
    for (const data::CheckIn checkin : dataset.checkins_for(user))
      sum += grid.clamped_cell_of(checkin.position);
  }
  return sum;
}

/// The columnar binning stage: geo::clamped_cells over each user's
/// coordinate columns into a reused cell buffer.
std::uint64_t columnar_bin_records(const data::Dataset& dataset, const geo::SpatialGrid& grid,
                                   std::vector<geo::CellId>& cells) {
  std::uint64_t sum = 0;
  for (const data::UserId user : dataset.users()) {
    const data::Dataset::UserColumns records = dataset.checkins_for(user);
    cells.resize(records.size());
    geo::clamped_cells(grid, records.lats(), records.lons(), cells);
    for (const geo::CellId cell : cells) sum += cell;
  }
  return sum;
}

bool placements_equal(const crowd::CrowdPlacement& a, const crowd::CrowdPlacement& b) {
  return a.user == b.user && a.label == b.label && a.venue == b.venue &&
         a.position.lat == b.position.lat && a.position.lon == b.position.lon &&
         a.cell == b.cell && a.pattern_support == b.pattern_support;
}

/// A coordinate as the CSV writer's 7 decimals read it back.
double written(double degrees) {
  return parse_double(crowdweb::format("{:.7f}", degrees)).value_or(degrees);
}

/// True when `restored` is `original` record for record: same users in
/// the same order, same check-ins, same venues, same interned names in
/// the same order, with every coordinate compared after the writer's
/// rounding.
bool restored_equal(const data::Dataset& original, const data::Dataset& restored) {
  if (original.checkin_count() != restored.checkin_count() ||
      original.venue_count() != restored.venue_count() ||
      !std::ranges::equal(original.users(), restored.users()))
    return false;
  const auto same_place = [](geo::LatLon a, geo::LatLon b) {
    return written(a.lat) == b.lat && written(a.lon) == b.lon;
  };
  const auto restored_checkins = restored.checkins();
  auto it = restored_checkins.begin();
  for (const data::CheckIn a : original.checkins()) {
    const data::CheckIn b = *it++;
    if (a.user != b.user || a.venue != b.venue || a.category != b.category ||
        a.timestamp != b.timestamp || !same_place(a.position, b.position))
      return false;
  }
  for (const data::Venue& a : original.venues()) {
    const data::Venue& b = *restored.venue(a.id);
    if (a.name != b.name || a.category != b.category || !same_place(a.position, b.position))
      return false;
  }
  return std::ranges::equal(original.names()->names(), restored.names()->names());
}

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

  const patterns::MobilityOptions mobility_options;
  const crowd::CrowdOptions crowd_options;
  const int reps = args.smoke ? 3 : 9;

  std::printf("=== Pipeline hot path: grid+crowd build and corpus memory ===\n");
  std::printf("mode: %s, SoA columns %zu bytes/record (seed rows were 40)\n\n",
              args.smoke ? "smoke" : "full",
              sizeof(std::int64_t) + 2 * sizeof(double) + sizeof(data::VenueId));

  const std::vector<std::size_t> corpus_users{100, 1'000};
  json::Value corpora = json::Value(json::Array{});
  double largest_speedup = 0.0;
  double largest_memory_ratio = 1.0;
  bool identical = true;
  bool restored_all = true;
  for (const std::size_t users : corpus_users) {
    synth::GeneratorConfig generator;
    generator.user_count = users;
    auto corpus = synth::generate_corpus(generator);
    if (!corpus.is_ok()) {
      std::fprintf(stderr, "corpus failed: %s\n", corpus.status().to_string().c_str());
      return 1;
    }
    const data::Dataset& dataset = corpus->dataset;

    // Mining output feeds the grid+crowd stages; mine once, as the
    // worker does, and time it for context.
    const auto mine_start = Clock::now();
    const patterns::MobilityTable mobility = patterns::MobilityTable::from_entries(
        patterns::mine_all_mobility_parallel(dataset, data::Taxonomy::foursquare(),
                                             mobility_options));
    const double mine_ms = ms_since(mine_start);

    // The epoch keeps the sequence DB resident alongside the corpus;
    // rebuild it here (as mining did internally) to account its bytes.
    const std::vector<mining::UserSequences> seqdb =
        mining::build_all_sequences(dataset, data::Taxonomy::foursquare());

    auto grid = geo::SpatialGrid::create(dataset.bounds().inflated(0.002), 500.0);
    if (!grid.is_ok()) {
      std::fprintf(stderr, "grid failed: %s\n", grid.status().to_string().c_str());
      return 1;
    }

    // Columnar stage: batch binning kernel + SoA crowd build.
    std::vector<double> columnar_samples;
    std::vector<geo::CellId> cell_buffer;
    std::uint64_t columnar_checksum = 0;
    std::size_t total_placements = 0;
    crowd::CrowdModel model = [&] {
      auto built = crowd::CrowdModel::build(dataset, mobility, *grid, crowd_options);
      return *built;  // options are valid; build cannot fail here
    }();
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      columnar_checksum = columnar_bin_records(dataset, *grid, cell_buffer);
      auto built = crowd::CrowdModel::build(dataset, mobility, *grid, crowd_options);
      if (!built.is_ok()) {
        std::fprintf(stderr, "crowd failed: %s\n", built.status().to_string().c_str());
        return 1;
      }
      columnar_samples.push_back(ms_since(start));
      total_placements = built->total_placements();
      model = std::move(*built);
    }

    // Seed stage: record-at-a-time binning + map-based placement.
    std::vector<double> legacy_samples;
    std::uint64_t legacy_checksum = 0;
    std::vector<std::vector<crowd::CrowdPlacement>> legacy_windows;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      legacy_checksum = legacy_bin_records(dataset, *grid);
      legacy_windows = legacy_place_all(dataset, mobility, *grid, crowd_options);
      legacy_samples.push_back(ms_since(start));
    }

    // Equivalence: the columnar stage must reproduce the seed stage's
    // output bit for bit — same cells, same placements in the same
    // order.
    bool same = legacy_checksum == columnar_checksum &&
                static_cast<int>(legacy_windows.size()) == model.window_count();
    for (int w = 0; same && w < model.window_count(); ++w) {
      const std::span<const crowd::CrowdPlacement> ours = model.placements(w);
      const std::vector<crowd::CrowdPlacement>& theirs =
          legacy_windows[static_cast<std::size_t>(w)];
      same = ours.size() == theirs.size();
      for (std::size_t i = 0; same && i < ours.size(); ++i)
        same = placements_equal(ours[i], theirs[i]);
    }
    identical = identical && same;

    // Load: the corpus as the two CSV files, read back in one pass.
    const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
    const std::string venues_csv = data::venues_to_csv(dataset, taxonomy);
    const std::string checkins_csv = data::checkins_to_csv(dataset, taxonomy);
    std::vector<double> load_samples;
    bool restored_same = true;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      auto restored = data::dataset_from_csv(venues_csv, checkins_csv, taxonomy);
      load_samples.push_back(ms_since(start));
      if (!restored.is_ok()) {
        std::fprintf(stderr, "load failed: %s\n", restored.status().to_string().c_str());
        return 1;
      }
      if (rep == 0) restored_same = restored_equal(dataset, *restored);
    }
    restored_all = restored_all && restored_same;
    const double load_ms = percentile(load_samples, 0.50);
    const double load_mb =
        static_cast<double>(venues_csv.size() + checkins_csv.size()) / 1'000'000.0;
    const double load_mb_per_s = load_ms > 0 ? load_mb / (load_ms / 1000.0) : 0.0;
    const std::size_t load_rows = dataset.venue_count() + dataset.checkin_count() + 2;

    const double p50 = percentile(columnar_samples, 0.50);
    const double legacy_p50 = percentile(legacy_samples, 0.50);
    const double speedup = p50 > 0 ? legacy_p50 / p50 : 0.0;
    const double records_per_sec =
        p50 > 0 ? static_cast<double>(dataset.checkin_count()) / (p50 / 1000.0) : 0.0;

    // Memory is gated on the corpus as a live worker grows it, spare
    // append slots included; the from-scratch build has none.
    const std::size_t scratch_resident = soa_resident_bytes(dataset);
    const std::size_t dataset_resident = soa_resident_bytes(grown_by_week(dataset));
    const std::size_t seqdb_resident = soa_seqdb_bytes(seqdb);
    const std::size_t resident = dataset_resident + seqdb_resident;
    const std::size_t aos_resident = aos_equivalent_bytes(dataset) + aos_seqdb_bytes(seqdb);
    const double memory_ratio =
        aos_resident > 0
            ? static_cast<double>(resident) / static_cast<double>(aos_resident)
            : 1.0;
    const double bytes_per_record =
        dataset.checkin_count() > 0
            ? static_cast<double>(dataset_resident) /
                  static_cast<double>(dataset.checkin_count())
            : 0.0;
    largest_speedup = speedup;           // corpora run smallest to largest;
    largest_memory_ratio = memory_ratio; // the last iteration is the 10x one

    std::printf("--- corpus: %zu users, %zu check-ins, %zu venues ---\n",
                dataset.user_count(), dataset.checkin_count(), dataset.venue_count());
    std::printf("  mine (context)        %10.1f ms\n", mine_ms);
    std::printf("  grid+crowd columnar   %10.2f ms  (%.0f records/s, %zu placements)\n",
                p50, records_per_sec, total_placements);
    std::printf("  grid+crowd seed path  %10.2f ms  (speedup %.2fx, identical: %s)\n",
                legacy_p50, speedup, same ? "yes" : "NO");
    std::printf("  corpus resident SoA   %10zu bytes  (%.1f bytes/record, grown a week per "
                "epoch; %zu from scratch)\n",
                dataset_resident, bytes_per_record, scratch_resident);
    std::printf("  csv load              %10.2f ms  (%zu rows, %.1f MB, %.0f MB/s, "
                "restored equal: %s)\n",
                load_ms, load_rows, load_mb, load_mb_per_s, restored_same ? "yes" : "NO");
    std::printf("  seqdb resident SoA    %10zu bytes\n", seqdb_resident);
    std::printf("  epoch resident AoS-eq %10zu bytes  (SoA/AoS = %.2f)\n\n", aos_resident,
                memory_ratio);

    corpora.push_back(json::object(
        {{"users", static_cast<std::int64_t>(dataset.user_count())},
         {"checkins", static_cast<std::int64_t>(dataset.checkin_count())},
         {"venues", static_cast<std::int64_t>(dataset.venue_count())},
         {"mine_ms", mine_ms},
         {"grid_crowd_p50_ms", p50},
         {"grid_crowd_seed_p50_ms", legacy_p50},
         {"grid_crowd_speedup", speedup},
         {"grid_crowd_records_per_sec", records_per_sec},
         {"placements", static_cast<std::int64_t>(total_placements)},
         {"placements_identical", same},
         {"dataset_resident_bytes", static_cast<std::int64_t>(dataset_resident)},
         {"dataset_scratch_resident_bytes", static_cast<std::int64_t>(scratch_resident)},
         {"seqdb_resident_bytes", static_cast<std::int64_t>(seqdb_resident)},
         {"epoch_resident_bytes", static_cast<std::int64_t>(resident)},
         {"aos_equivalent_bytes", static_cast<std::int64_t>(aos_resident)},
         {"memory_ratio", memory_ratio},
         {"bytes_per_record", bytes_per_record},
         {"load", json::object({{"rows", static_cast<std::int64_t>(load_rows)},
                                {"mb", load_mb},
                                {"ms", load_ms},
                                {"mb_per_s", load_mb_per_s},
                                {"restored_equal", restored_same}})}}));
  }

  std::printf("=== checks (largest corpus; the round trip on every corpus) ===\n");
  check(identical, "columnar stage output byte-identical to the seed path", failures);
  check(largest_speedup >= 2.0, "grid+crowd build at least 2x faster than the seed path",
        failures);
  check(largest_memory_ratio <= 0.70,
        "SoA epoch-resident set at least 30% smaller than the AoS-equivalent layout",
        failures);
  check(restored_all, "CSV round trip restores every corpus record for record", failures);

  const std::size_t peak = peak_rss_bytes();
  std::printf("\nprocess peak RSS: %.1f MiB\n\n",
              static_cast<double>(peak) / (1024.0 * 1024.0));

  json::Value output = json::object(
      {{"bench", "pipeline"},
       {"mode", args.smoke ? "smoke" : "full"},
       {"soa_bytes_per_record",
        static_cast<std::int64_t>(sizeof(std::int64_t) + 2 * sizeof(double) +
                                  sizeof(data::VenueId))},
       {"corpora", std::move(corpora)},
       {"peak_rss_bytes", static_cast<std::int64_t>(peak)},
       {"passed", failures == 0}});
  const Status written = data::write_file(args.out, json::dump(output) + "\n");
  if (!written.is_ok()) {
    std::fprintf(stderr, "writing %s failed: %s\n", args.out.c_str(),
                 written.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.out.c_str());
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  return 0;
}
