// Mining bench: PrefixSpan across the paper's support sweep, the
// weighted day-shape mine, the kept per-user history index, and counted
// re-mining from kept pattern sets.
//
// Corpus regime: dense telemetry traces — per user, a deterministic
// weekday routine (8-11 category labels) and a shorter weekend routine
// repeated over a 90-day quarter, with a fraction of irregular days.
// Near-identical repeated sequences make the frequent set grow
// combinatorially (every subsequence of the routine, all at the same
// support), which is the heavy end of what phase 2 mines. The
// paper-calibrated voluntary check-in corpus is the light end: at ~1.4
// recorded items per user-day its frequent sets are tiny.
//
// For each corpus scale (1x/10x, plus 100x outside --smoke) this bench
// mines every user's sequence database with PrefixSpan at min_support
// {0.25, 0.50, 0.75}, recording pattern-set size, wall time, and
// pattern-set bytes (no bar: the sweep is a report). Emits
// BENCH_mining.json (override with --out).
//
// On a dense check-in corpus it reports the share of distinct day
// shapes among all user-days and times PrefixSpan over the weighted
// shapes (what the pipeline mines) against the per-day columns,
// asserting that both return the same patterns and stats (a smoke
// gate).
//
// It then replays that corpus epoch by epoch, three days per epoch, the
// way the ingest worker grows it, and times each user's kept day-shape
// index (mining::HistoryIndex, filing only the appended check-ins)
// against a from-scratch index per epoch, asserting that both give
// bit-identical shapes every epoch and equal mined entries at the end.
// Beside each index it keeps the user's crowd::VenueTally, adding only
// the epoch's check-ins, and asserts that every (label, window) pick
// equals a tally counted from the whole column, and that the merge
// appended every epoch without copying a base record (smoke gates with
// no timing bar).
//
// Last, it replays the corpus one day per epoch through the counted
// re-mining path (patterns::mine_user_mobility over a kept
// HistoryIndex) for kept buffers b in {4, 8, 16}, beside the full
// re-mine every epoch paid before it. Per b it reports the share of
// user-epochs that needed a full mine, the kept patterns per user, the
// kept sets' bytes and the time; every epoch's counted entries must
// equal the full mine's (a smoke gate with no timing bar).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "crowd/model.hpp"
#include "data/dataset_io.hpp"
#include "json/json.hpp"
#include "mining/prefixspan.hpp"
#include "mining/seqdb.hpp"
#include "patterns/mobility.hpp"
#include "util/civil_time.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

using namespace crowdweb;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct Args {
  bool smoke = false;
  std::string out = "BENCH_mining.json";
};

bool check(bool ok, const char* what, int* failures) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++*failures;
  return ok;
}

/// One user's dense telemetry history: a deterministic weekday routine
/// and a shorter weekend routine over `days` days, with `noise` of the
/// days replaced by short irregular outings. Routine lengths vary per
/// user (weekday 8-11 labels, weekend 3-5) so pattern sets are
/// heterogeneous like a real city's.
mining::UserSequences telemetry_user(Rng& rng, data::UserId user, int days,
                                     double noise) {
  const int weekday_len = 8 + static_cast<int>(user % 4);
  const int weekend_len = 3 + static_cast<int>(user % 3);
  std::vector<mining::Item> weekday, weekend;
  for (int i = 0; i < weekday_len; ++i)
    weekday.push_back(static_cast<mining::Item>(rng.uniform_int(0, 9)));
  for (int i = 0; i < weekend_len; ++i)
    weekend.push_back(static_cast<mining::Item>(rng.uniform_int(0, 9)));

  mining::UserSequences sequences;
  sequences.user = user;
  std::vector<mining::Item> irregular;
  std::vector<int> minutes;
  for (int d = 0; d < days; ++d) {
    const std::vector<mining::Item>* day = d % 7 < 5 ? &weekday : &weekend;
    if (rng.uniform() < noise) {
      irregular.clear();
      const int len = static_cast<int>(rng.uniform_int(2, 6));
      for (int i = 0; i < len; ++i)
        irregular.push_back(static_cast<mining::Item>(rng.uniform_int(0, 9)));
      day = &irregular;
    }
    minutes.assign(day->size(), 0);
    for (std::size_t i = 0; i < minutes.size(); ++i)
      minutes[i] = 480 + static_cast<int>(i) * 90;  // 8:00, then every 90 min
    sequences.append_day(*day, minutes);
  }
  return sequences;
}

/// Heap footprint of a mined pattern set (struct + item storage).
std::size_t pattern_set_bytes(const std::vector<mining::Pattern>& patterns) {
  std::size_t bytes = patterns.size() * sizeof(mining::Pattern);
  for (const mining::Pattern& p : patterns) bytes += p.items.size() * sizeof(mining::Item);
  return bytes;
}

/// PrefixSpan's full-corpus sweep at one support level.
struct SweepResult {
  std::size_t patterns = 0;
  std::size_t bytes = 0;
  double ms = 0.0;
};

SweepResult sweep(const std::vector<mining::UserSequences>& users, double min_support) {
  mining::MiningOptions options;
  options.min_support = min_support;
  SweepResult result;
  const auto start = Clock::now();
  for (const mining::UserSequences& sequences : users) {
    const std::vector<mining::Pattern> mined = mining::prefixspan(sequences.columns(), options);
    result.patterns += mined.size();
    result.bytes += pattern_set_bytes(mined);
  }
  result.ms = ms_since(start);
  return result;
}

// ------------------------------------------------ dense check-in corpus

/// The dense routine regime as an actual check-in corpus, so the
/// pipeline's sequence build and kept indexes run over it. Ten venues spread over the city; each user walks a
/// personal 8-11 stop weekday routine (weekend 3-5) for `days` days.
data::Dataset dense_checkin_corpus(std::size_t user_count, int days) {
  Rng rng(99);
  data::DatasetBuilder builder;
  std::vector<data::VenueSpec> venues;
  for (int v = 0; v < 10; ++v) {
    data::VenueSpec venue;
    venue.id = static_cast<data::VenueId>(v);
    venue.name = "venue-" + std::to_string(v);
    venue.category = static_cast<data::CategoryId>(v % 7);
    venue.position = {40.70 + 0.005 * v, -74.00 + 0.003 * v};
    venues.push_back(venue);
    if (!builder.add_venue(venue).is_ok()) std::abort();
  }
  for (std::size_t u = 0; u < user_count; ++u) {
    // Routines visit *distinct* venues so every weekday repeats the same
    // long sequence: the frequent set holds all ~2^n of its
    // subsequences.
    const std::size_t weekday_len = 8 + u % 3;
    const std::size_t weekend_len = 3 + u % 3;
    std::vector<int> deck{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    for (std::size_t i = deck.size(); i > 1; --i)
      std::swap(deck[i - 1], deck[static_cast<std::size_t>(
                                 rng.uniform_int(0, static_cast<int>(i) - 1))]);
    std::vector<int> weekday(deck.begin(), deck.begin() + static_cast<long>(weekday_len));
    std::vector<int> weekend(deck.begin(), deck.begin() + static_cast<long>(weekend_len));
    std::vector<int> irregular;
    for (int d = 0; d < days; ++d) {
      const std::vector<int>* day = d % 7 < 5 ? &weekday : &weekend;
      if (rng.uniform() < 0.15) {
        irregular.clear();
        const int len = static_cast<int>(rng.uniform_int(2, 6));
        for (int i = 0; i < len; ++i)
          irregular.push_back(static_cast<int>(rng.uniform_int(0, 9)));
        day = &irregular;
      }
      for (std::size_t i = 0; i < day->size(); ++i) {
        const data::VenueSpec& venue = venues[static_cast<std::size_t>((*day)[i])];
        data::CheckIn checkin;
        checkin.user = static_cast<data::UserId>(u);
        checkin.venue = venue.id;
        checkin.category = venue.category;
        checkin.position = venue.position;
        checkin.timestamp =
            static_cast<std::int64_t>(d) * 86'400 + (480 + static_cast<int>(i) * 90) * 60;
        if (!builder.add_checkin(checkin).is_ok()) std::abort();
      }
    }
  }
  return builder.build();
}

// ------------------------------------ distinct day shapes (weighted mine)

/// Mines every user of `dataset` twice: over the distinct day shapes
/// weighted by their day counts (UserSequences::columns(), what the
/// pipeline runs) and over the per-day columns with no weights. Reports
/// the shape ratio and both mine times; the two runs must return equal
/// pattern sets and stats (the deterministic smoke gate).
json::Value day_shape_block(const data::Dataset& dataset, bool* equal_all) {
  mining::SequenceOptions sequence_options;
  sequence_options.mode = mining::LabelMode::kVenue;
  const std::vector<mining::UserSequences> users =
      mining::build_all_sequences(dataset, data::Taxonomy::foursquare(), sequence_options);
  std::size_t days = 0;
  std::size_t shapes = 0;
  for (const mining::UserSequences& sequences : users) {
    days += sequences.day_count();
    shapes += sequences.shapes.size();
  }
  const double ratio =
      days > 0 ? static_cast<double>(shapes) / static_cast<double>(days) : 0.0;
  std::printf("--- distinct day shapes, dense corpus: %zu users, %zu days, %zu shapes "
              "(%.1f%%) ---\n",
              users.size(), days, shapes, 100.0 * ratio);

  mining::MiningOptions options;
  options.min_support = 0.25;
  struct Mined {
    std::vector<mining::Pattern> patterns;
    mining::MiningStats stats;
  };
  std::vector<Mined> weighted(users.size());
  auto start = Clock::now();
  for (std::size_t u = 0; u < users.size(); ++u)
    weighted[u].patterns =
        mining::prefixspan(users[u].columns(), options, &weighted[u].stats);
  const double weighted_ms = ms_since(start);
  std::vector<Mined> per_day(users.size());
  start = Clock::now();
  for (std::size_t u = 0; u < users.size(); ++u) {
    const mining::SequenceColumns per_day_db{users[u].items, users[u].day_offsets};
    per_day[u].patterns = mining::prefixspan(per_day_db, options, &per_day[u].stats);
  }
  const double per_day_ms = ms_since(start);
  bool equal = true;
  for (std::size_t u = 0; u < users.size(); ++u) {
    equal = equal && per_day[u].patterns == weighted[u].patterns &&
            per_day[u].stats == weighted[u].stats;
  }
  *equal_all = *equal_all && equal;
  std::printf("  prefixspan weighted %8.1f ms, per-day %8.1f ms (%.2fx), results %s\n\n",
              weighted_ms, per_day_ms, weighted_ms > 0 ? per_day_ms / weighted_ms : 0.0,
              equal ? "EQUAL" : "DIVERGED");
  return json::object({{"corpus", "dense"},
                       {"min_support", options.min_support},
                       {"days", static_cast<std::int64_t>(days)},
                       {"shapes", static_cast<std::int64_t>(shapes)},
                       {"shape_ratio", ratio},
                       {"weighted_ms", weighted_ms},
                       {"per_day_ms", per_day_ms},
                       {"equal", equal}});
}

// ------------------------------- kept history index (epoch-by-epoch replay)

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool shapes_identical(const mining::DayShapes& a, const mining::DayShapes& b) {
  return a.items == b.items && a.offsets == b.offsets && a.days == b.days &&
         same_bits(a.minute_sum, b.minute_sum) && same_bits(a.minute_sq_sum, b.minute_sq_sum);
}

/// Replays `dense` epoch by epoch (kDaysPerEpoch days of every user's
/// check-ins per epoch, merged through the dataset's incremental
/// builder, as the ingest worker merges a delta). Per epoch, every
/// touched user's kept index files only the appended records, and a
/// fresh index files the whole history; both are timed. The two must
/// be bit-identical every epoch and mine to equal entries at the end.
/// Likewise each user's kept venue tally takes only the epoch's
/// check-ins, and must pick like a tally counted from the whole column
/// for every (label, window); and the merge must copy no base record.
json::Value history_index_block(const data::Dataset& dense, bool* equal_all,
                                bool* tallies_equal_all, bool* appended_all) {
  constexpr std::int64_t kDaysPerEpoch = 3;
  const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
  patterns::MobilityOptions options;
  options.sequences.mode = mining::LabelMode::kVenue;
  options.mining.min_support = 0.25;

  data::DatasetBuilder seed;
  for (const data::Venue& venue : dense.venues()) {
    data::VenueSpec spec;
    spec.id = venue.id;
    spec.name = std::string(dense.venue_name(venue.id));
    spec.category = venue.category;
    spec.position = venue.position;
    if (!seed.add_venue(spec).is_ok()) std::abort();
  }
  data::Dataset live = seed.build();
  std::int64_t last_day = 0;
  for (const data::CheckIn& checkin : dense.checkins())
    last_day = std::max(last_day, day_index(checkin.timestamp));

  std::unordered_map<data::UserId, mining::HistoryIndex> kept;
  std::unordered_map<data::UserId, crowd::VenueTally> tallies;
  const int window_minutes = crowd::CrowdOptions{}.window_minutes;
  json::Value epochs = json::Value(json::Array{});
  double kept_total_ms = 0.0;
  double scratch_total_ms = 0.0;
  double tally_kept_ms = 0.0;
  double tally_counted_ms = 0.0;
  std::size_t appended_users = 0;
  std::size_t index_bytes = 0;
  std::size_t tally_bytes = 0;
  std::size_t records_copied = 0;
  std::size_t shards_appended = 0;
  bool equal = true;
  bool tallies_equal = true;
  std::printf("--- kept day-shape index, dense corpus replayed %lld days per epoch ---\n",
              static_cast<long long>(kDaysPerEpoch));
  std::printf("%6s %10s %12s %12s\n", "epoch", "records", "kept ms", "scratch ms");
  for (std::int64_t first = 0, epoch = 1; first <= last_day; first += kDaysPerEpoch, ++epoch) {
    data::DatasetBuilder builder(live);
    std::vector<data::CheckIn> delta;
    for (const data::CheckIn& checkin : dense.checkins()) {
      const std::int64_t day = day_index(checkin.timestamp);
      if (day < first || day >= first + kDaysPerEpoch) continue;
      if (!builder.add_checkin(checkin).is_ok()) std::abort();
      delta.push_back(checkin);
    }
    live = builder.build();
    records_copied += builder.stats().records_copied;
    shards_appended += builder.stats().shards_appended;

    // Kept tallies take the epoch's check-ins; a user's first touch
    // counts their column.
    auto start = Clock::now();
    for (const data::CheckIn& checkin : delta) {
      if (const auto it = tallies.find(checkin.user); it != tallies.end())
        it->second.add(checkin);
    }
    for (const data::UserId user : live.users()) {
      if (!tallies.contains(user))
        tallies.emplace(user, crowd::VenueTally(live.checkins_for(user), window_minutes));
    }
    tally_kept_ms += ms_since(start);
    for (const data::UserId user : live.users()) {
      start = Clock::now();
      const crowd::VenueTally counted(live.checkins_for(user), window_minutes);
      tally_counted_ms += ms_since(start);
      const crowd::VenueTally& tally = tallies.at(user);
      tallies_equal = tallies_equal && tally.records() == counted.records();
      for (const data::CategoryId label : taxonomy.roots()) {
        for (int window = 0; window < 24 * 60 / window_minutes; ++window)
          tallies_equal =
              tallies_equal && tally.pick(label, window) == counted.pick(label, window);
      }
    }

    double kept_ms = 0.0;
    double scratch_ms = 0.0;
    for (const data::UserId user : live.users()) {
      const data::Dataset::UserColumns records = live.checkins_for(user);
      start = Clock::now();
      mining::HistoryIndex& history = kept.try_emplace(user, options.sequences).first->second;
      const std::size_t from = history.resume_point(records);
      history.extend(records, from, taxonomy);
      kept_ms += ms_since(start);
      if (from > 0) ++appended_users;
      start = Clock::now();
      mining::HistoryIndex scratch(options.sequences);
      scratch.extend(records, 0, taxonomy);
      scratch_ms += ms_since(start);
      equal = equal && shapes_identical(history.shapes(), scratch.shapes()) &&
              history.day_count() == scratch.day_count();
    }
    kept_total_ms += kept_ms;
    scratch_total_ms += scratch_ms;
    if (epoch % 5 == 0)
      std::printf("%6lld %10zu %12.2f %12.2f\n", static_cast<long long>(epoch),
                  live.checkin_count(), kept_ms, scratch_ms);
    epochs.push_back(json::object({{"epoch", epoch},
                                   {"records", static_cast<std::int64_t>(live.checkin_count())},
                                   {"kept_ms", kept_ms},
                                   {"scratch_ms", scratch_ms}}));
  }
  for (const auto& [user, history] : kept) {
    index_bytes += history.resident_bytes();
    equal = equal && patterns::mine_user_mobility(user, history.shapes(), history.day_count(),
                                                  options) ==
                         patterns::mine_user_mobility(live, user, taxonomy, options);
  }
  for (const auto& [user, tally] : tallies) tally_bytes += tally.resident_bytes();
  *equal_all = *equal_all && equal;
  *tallies_equal_all = *tallies_equal_all && tallies_equal;
  *appended_all = *appended_all && records_copied == 0;
  std::printf("  total kept %.1f ms vs scratch %.1f ms (%.1fx), %zu appended user-epochs, "
              "%zu index bytes, results %s\n",
              kept_total_ms, scratch_total_ms,
              kept_total_ms > 0 ? scratch_total_ms / kept_total_ms : 0.0, appended_users,
              index_bytes, equal ? "IDENTICAL" : "DIVERGED");
  std::printf("  venue tallies: kept %.1f ms vs counted %.1f ms, %zu tally bytes, picks %s; "
              "merge appended %zu shards, copied %zu records\n\n",
              tally_kept_ms, tally_counted_ms, tally_bytes,
              tallies_equal ? "IDENTICAL" : "DIVERGED", shards_appended, records_copied);
  return json::object({{"corpus", "dense"},
                       {"days_per_epoch", kDaysPerEpoch},
                       {"kept_ms", kept_total_ms},
                       {"scratch_ms", scratch_total_ms},
                       {"appended_user_epochs", static_cast<std::int64_t>(appended_users)},
                       {"index_bytes", static_cast<std::int64_t>(index_bytes)},
                       {"equal", equal},
                       {"tally_kept_ms", tally_kept_ms},
                       {"tally_counted_ms", tally_counted_ms},
                       {"tally_bytes", static_cast<std::int64_t>(tally_bytes)},
                       {"tallies_equal", tallies_equal},
                       {"shards_appended", static_cast<std::int64_t>(shards_appended)},
                       {"records_copied", static_cast<std::int64_t>(records_copied)},
                       {"epochs", std::move(epochs)}});
}

// ------------------------- counted re-mining (kept pattern sets, per b)

/// Equal entries in every field but mining_stats.explored (0 for an
/// entry served by counting).
bool same_entry(patterns::UserMobility counted, const patterns::UserMobility& mined) {
  counted.mining_stats.explored = mined.mining_stats.explored;
  return counted == mined;
}

/// Replays `dense` one day per epoch, merged through the incremental
/// builder. Every user keeps one HistoryIndex per buffer b, served
/// through the counted path with that b, and one more that is only
/// extended and mined in full every epoch (the path before counting).
/// Each counted entry must equal the full mine. Times cover extend plus
/// serve on both sides.
json::Value incremental_block(const data::Dataset& dense, bool* equal_all) {
  const std::vector<std::size_t> buffers{4, 8, 16};
  const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
  patterns::MobilityOptions options;
  options.sequences.mode = mining::LabelMode::kVenue;
  options.mining.min_support = 0.5;

  data::DatasetBuilder seed;
  for (const data::Venue& venue : dense.venues()) {
    data::VenueSpec spec;
    spec.id = venue.id;
    spec.name = std::string(dense.venue_name(venue.id));
    spec.category = venue.category;
    spec.position = venue.position;
    if (!seed.add_venue(spec).is_ok()) std::abort();
  }
  data::Dataset live = seed.build();
  std::int64_t last_day = 0;
  for (const data::CheckIn& checkin : dense.checkins())
    last_day = std::max(last_day, day_index(checkin.timestamp));

  struct Kept {
    std::vector<mining::HistoryIndex> counted;  // one per buffer
    mining::HistoryIndex full;
  };
  std::unordered_map<data::UserId, Kept> users;
  struct PerBuffer {
    double ms = 0.0;
    std::size_t mined = 0;
    std::size_t kept_patterns = 0;  // summed over user-epochs
  };
  std::vector<PerBuffer> per_buffer(buffers.size());
  double full_ms = 0.0;
  std::size_t user_epochs = 0;
  std::size_t served_patterns = 0;
  bool equal = true;
  for (std::int64_t day = 0; day <= last_day; ++day) {
    data::DatasetBuilder builder(live);
    for (const data::CheckIn& checkin : dense.checkins()) {
      if (day_index(checkin.timestamp) == day && !builder.add_checkin(checkin).is_ok())
        std::abort();
    }
    live = builder.build();
    for (const data::UserId user : live.users()) {
      const data::Dataset::UserColumns records = live.checkins_for(user);
      auto [it, inserted] = users.try_emplace(user);
      Kept& kept = it->second;
      if (inserted) {
        kept.counted.assign(buffers.size(), mining::HistoryIndex(options.sequences));
        kept.full = mining::HistoryIndex(options.sequences);
      }
      auto start = Clock::now();
      kept.full.extend(records, kept.full.resume_point(records), taxonomy);
      const patterns::UserMobility mined = patterns::mine_user_mobility(
          user, kept.full.shapes(), kept.full.day_count(), options);
      full_ms += ms_since(start);
      ++user_epochs;
      served_patterns += mined.patterns.size();
      for (std::size_t b = 0; b < buffers.size(); ++b) {
        mining::HistoryIndex& history = kept.counted[b];
        start = Clock::now();
        history.extend(records, history.resume_point(records), taxonomy);
        bool counted = false;
        const patterns::UserMobility entry =
            patterns::mine_user_mobility(user, history, options, &counted, buffers[b]);
        per_buffer[b].ms += ms_since(start);
        if (!counted) ++per_buffer[b].mined;
        per_buffer[b].kept_patterns += history.kept().size();
        equal = equal && same_entry(entry, mined);
      }
    }
  }
  *equal_all = *equal_all && equal;

  std::printf("--- counted re-mining, dense corpus replayed one day per epoch "
              "(min_support %.2f, %zu user-epochs, %.2f patterns served per user) ---\n",
              options.mining.min_support, user_epochs,
              user_epochs > 0 ? static_cast<double>(served_patterns) / static_cast<double>(user_epochs) : 0.0);
  std::printf("  full re-mine every epoch: %8.1f ms\n", full_ms);
  std::printf("%8s %12s %14s %12s %10s\n", "buffer", "full mines", "kept/user", "kept bytes",
              "ms");
  json::Value rows = json::Value(json::Array{});
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    std::size_t kept_bytes = 0;
    for (const auto& [user, kept] : users) kept_bytes += kept.counted[b].kept().resident_bytes();
    const double share =
        user_epochs > 0 ? static_cast<double>(per_buffer[b].mined) / static_cast<double>(user_epochs) : 0.0;
    const double kept_per_user =
        user_epochs > 0 ? static_cast<double>(per_buffer[b].kept_patterns) /
                                   static_cast<double>(user_epochs) : 0.0;
    std::printf("%8zu %11.1f%% %14.2f %12zu %10.1f\n", buffers[b], 100.0 * share, kept_per_user,
                kept_bytes, per_buffer[b].ms);
    rows.push_back(json::object({{"buffer_days", static_cast<std::int64_t>(buffers[b])},
                                 {"full_mine_share", share},
                                 {"kept_patterns_per_user", kept_per_user},
                                 {"kept_bytes", static_cast<std::int64_t>(kept_bytes)},
                                 {"ms", per_buffer[b].ms}}));
  }
  std::printf("  counted entries %s the full re-mine's\n\n", equal ? "EQUAL" : "DIVERGED");
  return json::object({{"corpus", "dense"},
                       {"days_per_epoch", 1},
                       {"min_support", options.mining.min_support},
                       {"user_epochs", static_cast<std::int64_t>(user_epochs)},
                       {"full_ms", full_ms},
                       {"buffers", std::move(rows)},
                       {"equal", equal}});
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

  const std::vector<double> supports{0.25, 0.50, 0.75};
  // 1x/10x/100x in user count; per-user history length is fixed (one
  // 90-day quarter of telemetry), so per-user mining cost is comparable
  // and the full-corpus mine scales with the corpus.
  std::vector<std::pair<const char*, std::size_t>> scales{{"1x", 100}, {"10x", 1'000}};
  if (!args.smoke) scales.push_back({"100x", 10'000});

  std::printf("=== Mining: PrefixSpan pattern sets ===\n");
  std::printf("mode: %s, supports {0.25, 0.50, 0.75}\n\n", args.smoke ? "smoke" : "full");

  json::Value corpora = json::Value(json::Array{});
  for (const auto& [scale_name, user_count] : scales) {
    Rng rng(1234);
    std::vector<mining::UserSequences> users;
    users.reserve(user_count);
    std::size_t day_sequences = 0;
    for (std::size_t u = 0; u < user_count; ++u) {
      users.push_back(telemetry_user(rng, static_cast<data::UserId>(u), /*days=*/90,
                                     /*noise=*/0.15));
      day_sequences += users.back().day_count();
    }
    std::printf("--- corpus %s: %zu users, %zu day-sequences ---\n", scale_name,
                users.size(), day_sequences);
    std::printf("%8s %12s %12s %10s\n", "support", "patterns", "bytes", "mine ms");

    json::Value sweeps = json::Value(json::Array{});
    for (const double support : supports) {
      const SweepResult frequent = sweep(users, support);
      std::printf("%8.2f %12zu %12zu %10.1f\n", support, frequent.patterns, frequent.bytes,
                  frequent.ms);
      sweeps.push_back(json::object({{"min_support", support},
                                     {"patterns", static_cast<std::int64_t>(frequent.patterns)},
                                     {"bytes", static_cast<std::int64_t>(frequent.bytes)},
                                     {"ms", frequent.ms}}));
    }
    std::printf("\n");
    corpora.push_back(json::object({{"scale", scale_name},
                                    {"users", static_cast<std::int64_t>(users.size())},
                                    {"day_sequences",
                                     static_cast<std::int64_t>(day_sequences)},
                                    {"sweeps", std::move(sweeps)}}));
  }

  const data::Dataset dense =
      dense_checkin_corpus(args.smoke ? 60 : 400, /*days=*/90);
  bool shapes_equal = true;
  json::Value day_shapes = day_shape_block(dense, &shapes_equal);
  bool history_equal = true;
  bool tallies_equal = true;
  bool merge_appended = true;
  json::Value history_index =
      history_index_block(dense, &history_equal, &tallies_equal, &merge_appended);
  bool counted_equal = true;
  json::Value incremental = incremental_block(dense, &counted_equal);

  check(shapes_equal, "mining the weighted day shapes equals mining every day", &failures);
  check(history_equal,
        "the kept day-shape index equals a from-scratch index every epoch, and mines "
        "to the same entries",
        &failures);
  check(tallies_equal,
        "the kept venue tallies pick like a tally counted from the whole column, every "
        "(label, window) of every epoch",
        &failures);
  check(merge_appended, "the replay's merge copied no base record in any epoch", &failures);
  check(counted_equal,
        "entries served from kept pattern counts equal a full re-mine every epoch, at "
        "every kept buffer",
        &failures);

  json::Value output = json::object({{"bench", "mining"},
                                     {"mode", args.smoke ? "smoke" : "full"},
                                     {"corpora", std::move(corpora)},
                                     {"day_shapes", std::move(day_shapes)},
                                     {"history_index", std::move(history_index)},
                                     {"incremental", std::move(incremental)},
                                     {"passed", failures == 0}});
  const Status written = data::write_file(args.out, json::dump(output) + "\n");
  if (!written.is_ok()) {
    std::fprintf(stderr, "writing %s failed: %s\n", args.out.c_str(),
                 written.to_string().c_str());
    return 1;
  }
  std::printf("wrote %s\n", args.out.c_str());
  if (failures > 0) {
    std::fprintf(stderr, "%d assertion(s) failed\n", failures);
    return 1;
  }
  return 0;
}
