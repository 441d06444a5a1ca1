#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "crowd/distribution.hpp"
#include "crowd/model.hpp"
#include "reference/venue_oracle.hpp"
#include "shard/hash.hpp"
#include "synth/generator.hpp"
#include "util/civil_time.hpp"
#include "util/log.hpp"

namespace crowdweb::crowd {
namespace {

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

// ----------------------------------------------------- CrowdDistribution

TEST(CrowdDistributionTest, AddAndCount) {
  CrowdDistribution dist(9);
  dist.add(5);
  dist.add(5);
  dist.add(7, 3);
  EXPECT_EQ(dist.window(), 9);
  EXPECT_EQ(dist.total(), 5u);
  EXPECT_EQ(dist.count(5), 2u);
  EXPECT_EQ(dist.count(7), 3u);
  EXPECT_EQ(dist.count(99), 0u);
  EXPECT_EQ(dist.occupied_cells(), 2u);
}

TEST(CrowdDistributionTest, TopCellsOrdering) {
  CrowdDistribution dist(0);
  dist.add(1, 5);
  dist.add(2, 9);
  dist.add(3, 5);
  const auto top = dist.top_cells(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 2u);   // largest count first
  EXPECT_EQ(top[1].first, 1u);   // tie broken by cell id
  EXPECT_EQ(dist.top_cells(10).size(), 3u);
  EXPECT_TRUE(CrowdDistribution(0).top_cells(3).empty());
}

// ------------------------------------------------------------ FlowMatrix

TEST(FlowMatrixTest, CountsAndMarginals) {
  FlowMatrix flow(9, 12);
  flow.add(1, 2, 4);  // 4 users move 1 -> 2
  flow.add(1, 1, 3);  // 3 stay in 1
  flow.add(3, 1, 2);  // 2 arrive from 3
  EXPECT_EQ(flow.from_window(), 9);
  EXPECT_EQ(flow.to_window(), 12);
  EXPECT_EQ(flow.total(), 9u);
  EXPECT_EQ(flow.count(1, 2), 4u);
  EXPECT_EQ(flow.count(2, 1), 0u);
  EXPECT_EQ(flow.outflow(1), 4u);
  EXPECT_EQ(flow.inflow(1), 2u);
  EXPECT_EQ(flow.stayers(1), 3u);
}

TEST(FlowMatrixTest, TopFlowsExcludesStaysByDefault) {
  FlowMatrix flow(0, 1);
  flow.add(1, 1, 100);
  flow.add(1, 2, 5);
  flow.add(2, 3, 7);
  const auto top = flow.top_flows(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, (std::pair<geo::CellId, geo::CellId>{2, 3}));
  const auto with_stays = flow.top_flows(10, /*include_stays=*/true);
  ASSERT_EQ(with_stays.size(), 3u);
  EXPECT_EQ(with_stays[0].second, 100u);
}

// ------------------------------------------------------------ CrowdModel

struct Fixture {
  synth::SyntheticCorpus corpus;
  data::Dataset active;
  std::vector<patterns::UserMobility> mobility;
  geo::SpatialGrid grid;
  CrowdModel model;
};

/// Builds a full small-corpus crowd model once; reused across tests.
const Fixture& fixture() {
  static const Fixture* instance = [] {
    auto corpus = synth::small_corpus(7);
    EXPECT_TRUE(corpus.is_ok());
    data::ActiveUserCriteria criteria;
    criteria.from = to_epoch_seconds({2012, 4, 1, 0, 0, 0});
    criteria.to = to_epoch_seconds({2012, 7, 1, 0, 0, 0});
    criteria.min_days = 20;
    criteria.max_gap_seconds = 0;
    data::Dataset active = corpus->dataset.filter_active_users(criteria);
    EXPECT_GT(active.user_count(), 5u);

    patterns::MobilityOptions options;
    options.mining.min_support = 0.25;
    auto mobility =
        patterns::mine_all_mobility(active, data::Taxonomy::foursquare(), options);
    auto grid = geo::SpatialGrid::create(active.bounds().inflated(0.002), 500.0);
    EXPECT_TRUE(grid.is_ok());
    auto model = CrowdModel::build(active, mobility, *grid, CrowdOptions{});
    EXPECT_TRUE(model.is_ok());
    return new Fixture{std::move(corpus).value(), std::move(active), std::move(mobility),
                       *grid, std::move(model).value()};
  }();
  return *instance;
}

TEST(CrowdModelTest, RejectsBadWindowSize) {
  const Fixture& f = fixture();
  CrowdOptions options;
  options.window_minutes = 7;  // does not divide 1440
  EXPECT_FALSE(CrowdModel::build(f.active, f.mobility, f.grid, options).is_ok());
  options.window_minutes = 0;
  EXPECT_FALSE(CrowdModel::build(f.active, f.mobility, f.grid, options).is_ok());
}

TEST(CrowdModelTest, HourlyWindows) {
  const Fixture& f = fixture();
  EXPECT_EQ(f.model.window_count(), 24);
  EXPECT_EQ(f.model.window_label(9), "09:00-10:00");
  EXPECT_EQ(f.model.window_label(23), "23:00-24:00");
}

TEST(CrowdModelTest, PlacementsLandInValidCells) {
  const Fixture& f = fixture();
  EXPECT_GT(f.model.total_placements(), 0u);
  for (int window = 0; window < f.model.window_count(); ++window) {
    for (const CrowdPlacement& placement : f.model.placements(window)) {
      EXPECT_LT(placement.cell, f.grid.cell_count());
      EXPECT_NE(f.active.venue(placement.venue), nullptr);
      EXPECT_GE(placement.pattern_support, f.model.options().min_pattern_support);
    }
  }
  EXPECT_TRUE(f.model.placements(-1).empty());
  EXPECT_TRUE(f.model.placements(24).empty());
}

TEST(CrowdModelTest, MassConservation) {
  // Distribution totals equal placement counts per window (no user lost).
  const Fixture& f = fixture();
  for (int window = 0; window < f.model.window_count(); ++window) {
    const CrowdDistribution dist = f.model.distribution(window);
    EXPECT_EQ(dist.total(), f.model.placements(window).size());
    std::size_t sum = 0;
    for (const auto& [cell, count] : dist.cells()) sum += count;
    EXPECT_EQ(sum, dist.total());
  }
}

TEST(CrowdModelTest, UsersAppearAtMostOncePerWindowAndLabel) {
  const Fixture& f = fixture();
  for (int window = 0; window < f.model.window_count(); ++window) {
    std::set<std::pair<data::UserId, mining::Item>> seen;
    for (const CrowdPlacement& placement : f.model.placements(window)) {
      EXPECT_TRUE(seen.insert({placement.user, placement.label}).second)
          << "duplicate placement in window " << window;
    }
  }
}

TEST(CrowdModelTest, MorningCrowdGathersAtWorkplaces) {
  const Fixture& f = fixture();
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  const mining::Item professional = *tax.find("Professional & Other Places");
  const mining::Item residence = *tax.find("Residence");
  std::size_t morning_professional = 0, morning_total = 0;
  std::size_t evening_residence = 0, evening_total = 0;
  for (const CrowdPlacement& p : f.model.placements(9)) {
    morning_professional += p.label == professional ? 1 : 0;
    ++morning_total;
  }
  for (const CrowdPlacement& p : f.model.placements(20)) {
    evening_residence += p.label == residence ? 1 : 0;
    ++evening_total;
  }
  ASSERT_GT(morning_total, 0u);
  ASSERT_GT(evening_total, 0u);
  // The 9-10 window is dominated by workplaces, the 20-21 one by homes.
  EXPECT_GT(static_cast<double>(morning_professional) / static_cast<double>(morning_total), 0.4);
  EXPECT_GT(static_cast<double>(evening_residence) / static_cast<double>(evening_total), 0.4);
}

TEST(CrowdModelTest, CrowdMovesWhenWindowChanges) {
  // The paper's Figures 3 vs 4: different windows, different distributions.
  const Fixture& f = fixture();
  const CrowdDistribution morning = f.model.distribution(9);
  const CrowdDistribution evening = f.model.distribution(20);
  ASSERT_GT(morning.total(), 0u);
  ASSERT_GT(evening.total(), 0u);
  // Top morning cell differs from top evening cell (work vs home).
  const auto top_morning = morning.top_cells(1);
  const auto top_evening = evening.top_cells(1);
  ASSERT_FALSE(top_morning.empty());
  ASSERT_FALSE(top_evening.empty());
  std::size_t overlap = 0;
  for (const auto& [cell, count] : morning.cells())
    overlap += evening.count(cell) > 0 ? 1 : 0;
  EXPECT_LT(overlap, morning.occupied_cells());  // not the same footprint
}

TEST(CrowdModelTest, FlowTracksUsersPresentInBothWindows) {
  const Fixture& f = fixture();
  const FlowMatrix flow = f.model.flow(9, 12);
  // Total tracked users cannot exceed either window's distinct users.
  std::set<data::UserId> in_nine, in_twelve;
  for (const CrowdPlacement& p : f.model.placements(9)) in_nine.insert(p.user);
  for (const CrowdPlacement& p : f.model.placements(12)) in_twelve.insert(p.user);
  EXPECT_LE(flow.total(), in_nine.size());
  EXPECT_LE(flow.total(), std::max(in_nine.size(), in_twelve.size()));
  // Flow marginals add up: every tracked user has exactly one move.
  std::size_t sum = 0;
  for (const auto& [pair, count] : flow.flows()) sum += count;
  EXPECT_EQ(sum, flow.total());
}

TEST(CrowdModelTest, GroupsPartitionPlacements) {
  const Fixture& f = fixture();
  const auto groups = f.model.groups(9, 1);  // min_size 1: full partition
  std::size_t grouped = 0;
  for (const CrowdGroup& group : groups) {
    grouped += group.users.size();
    // Users within a group are unique and sorted.
    for (std::size_t i = 1; i < group.users.size(); ++i)
      EXPECT_LT(group.users[i - 1], group.users[i]);
  }
  EXPECT_EQ(grouped, f.model.placements(9).size());
  // Largest group first.
  for (std::size_t i = 1; i < groups.size(); ++i)
    EXPECT_GE(groups[i - 1].users.size(), groups[i].users.size());
}

TEST(CrowdModelTest, GroupsRespectMinSize) {
  const Fixture& f = fixture();
  for (const CrowdGroup& group : f.model.groups(9, 3))
    EXPECT_GE(group.users.size(), 3u);
}

TEST(CrowdModelTest, HigherSupportThresholdShrinksCrowd) {
  const Fixture& f = fixture();
  CrowdOptions strict;
  strict.min_pattern_support = 0.8;
  const auto strict_model = CrowdModel::build(f.active, f.mobility, f.grid, strict);
  ASSERT_TRUE(strict_model.is_ok());
  EXPECT_LT(strict_model->total_placements(), f.model.total_placements());
}

TEST(CrowdModelTest, RhythmMatrixConservesPlacements) {
  const Fixture& f = fixture();
  const CrowdModel::Rhythm rhythm = f.model.rhythm();
  ASSERT_FALSE(rhythm.labels.empty());
  ASSERT_EQ(rhythm.counts.size(), rhythm.labels.size());
  EXPECT_TRUE(std::is_sorted(rhythm.labels.begin(), rhythm.labels.end()));
  std::size_t total = 0;
  for (const auto& row : rhythm.counts) {
    ASSERT_EQ(row.size(), static_cast<std::size_t>(f.model.window_count()));
    for (const std::size_t count : row) total += count;
  }
  EXPECT_EQ(total, f.model.total_placements());
  // Column sums match the per-window distributions.
  for (int w = 0; w < f.model.window_count(); ++w) {
    std::size_t column = 0;
    for (const auto& row : rhythm.counts) column += row[w];
    EXPECT_EQ(column, f.model.distribution(w).total());
  }
}

TEST(CrowdModelTest, HalfHourWindows) {
  const Fixture& f = fixture();
  CrowdOptions options;
  options.window_minutes = 30;
  const auto model = CrowdModel::build(f.active, f.mobility, f.grid, options);
  ASSERT_TRUE(model.is_ok());
  EXPECT_EQ(model->window_count(), 48);
  EXPECT_EQ(model->window_label(19), "09:30-10:00");
  // Finer windows can only split (window, label) dedupe buckets, never
  // merge them, so the placement count is monotone in granularity.
  EXPECT_GE(model->total_placements(), f.model.total_placements());
}

void expect_same_placements(const CrowdModel& a, const CrowdModel& b) {
  ASSERT_EQ(a.window_count(), b.window_count());
  for (int w = 0; w < a.window_count(); ++w) {
    const auto pa = a.placements(w);
    const auto pb = b.placements(w);
    ASSERT_EQ(pa.size(), pb.size()) << "window " << w;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].user, pb[i].user) << "window " << w << " slot " << i;
      EXPECT_EQ(pa[i].label, pb[i].label);
      EXPECT_EQ(pa[i].venue, pb[i].venue);
      EXPECT_EQ(pa[i].position, pb[i].position);
      EXPECT_EQ(pa[i].cell, pb[i].cell);
      EXPECT_EQ(pa[i].pattern_support, pb[i].pattern_support);
    }
  }
}

TEST(CrowdModelTest, FilterUsersSlicesEqualSliceBuildsAndMergeBack) {
  const Fixture& f = fixture();
  constexpr std::size_t kSlices = 4;
  std::vector<std::vector<data::UserId>> users_of(kSlices);
  for (const data::UserId user : f.active.users())
    users_of[shard::shard_of_user(user, kSlices)].push_back(user);

  std::vector<CrowdModel> slices;
  for (const std::vector<data::UserId>& users : users_of) {
    ASSERT_FALSE(users.empty());
    std::vector<patterns::UserMobility> mobility;
    for (const patterns::UserMobility& entry : f.mobility)
      if (std::binary_search(users.begin(), users.end(), entry.user)) mobility.push_back(entry);
    const auto built =
        CrowdModel::build(f.active.filter_users(users), mobility, f.grid, f.model.options());
    ASSERT_TRUE(built.is_ok());
    slices.push_back(f.model.filter_users(users));
    expect_same_placements(slices.back(), *built);
  }

  std::vector<const CrowdModel*> parts;
  for (const CrowdModel& slice : slices) parts.push_back(&slice);
  const auto merged = CrowdModel::merge(parts);
  ASSERT_TRUE(merged.is_ok());
  expect_same_placements(*merged, f.model);

  // A slice over every user keeps every window by pointer.
  const CrowdModel whole = f.model.filter_users(f.active.users());
  for (int w = 0; w < f.model.window_count(); ++w)
    EXPECT_EQ(whole.window_identity(w), f.model.window_identity(w)) << "window " << w;
}

// ------------------------------------------------------------ VenueTally

/// Three root labels, each with two venues at the root category and two
/// at its first leaf: label l (roots[l]) spans venues 4l to 4l + 3, so
/// counts tie often.
struct TallyCity {
  data::Dataset venues;
  std::vector<data::CategoryId> roots;
  std::vector<data::VenueSpec> specs;
};

const TallyCity& tally_city() {
  static const TallyCity* instance = [] {
    const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
    auto* city = new TallyCity;
    data::DatasetBuilder builder;
    for (std::size_t r = 0; r < 3; ++r) {
      const data::CategoryId root = taxonomy.roots()[r];
      city->roots.push_back(root);
      const data::CategoryId leaf = taxonomy.children(root).front();
      for (const data::CategoryId category : {root, root, leaf, leaf}) {
        data::VenueSpec spec;
        spec.id = static_cast<data::VenueId>(city->specs.size());
        spec.name = "venue-" + std::to_string(spec.id);
        spec.category = category;
        spec.position = {40.70 + 0.001 * spec.id, -74.00};
        EXPECT_TRUE(builder.add_venue(spec).is_ok());
        city->specs.push_back(spec);
      }
    }
    city->venues = builder.build();
    return city;
  }();
  return *instance;
}

data::CheckIn tally_checkin(data::VenueId venue, std::int64_t timestamp) {
  const data::VenueSpec& spec = tally_city().specs[venue];
  return {1, venue, spec.category, spec.position, timestamp};
}

/// A seeded history of user 1 in time order: labels 0 and 1 only (label
/// 2 is never visited), venues from a few per label, at a handful of
/// hours with repeated timestamps, over a week.
std::vector<data::CheckIn> seeded_history(std::uint32_t seed, std::size_t count) {
  std::mt19937 rng(seed);
  const std::int64_t day0 = to_epoch_seconds({2012, 5, 7, 0, 0, 0});
  std::vector<data::CheckIn> out;
  for (std::size_t i = 0; i < count; ++i) {
    const auto venue = static_cast<data::VenueId>(rng() % 8);  // labels 0 and 1
    const std::int64_t hour = std::array<std::int64_t, 5>{8, 9, 12, 13, 20}[rng() % 5];
    const std::int64_t timestamp =
        day0 + static_cast<std::int64_t>(rng() % 7) * 86'400 + hour * 3'600 +
        static_cast<std::int64_t>(rng() % 3) * 900;
    out.push_back(tally_checkin(venue, timestamp));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const data::CheckIn& a, const data::CheckIn& b) {
                     return a.timestamp < b.timestamp;
                   });
  return out;
}

/// Every (label, window) pick of `tally` equals the scanning oracle's
/// over user 1's column of `dataset` — every label, visited or not, and
/// every window, so the fallbacks are compared too.
void expect_picks_match_oracle(const VenueTally& tally, const data::Dataset& dataset,
                               int window_minutes, const std::string& where) {
  const data::Dataset::UserColumns records = dataset.checkins_for(1);
  ASSERT_EQ(tally.records(), records.size()) << where;
  const RepresentativeVenues oracle(records, window_minutes);
  for (const data::CategoryId label : tally_city().roots) {
    for (int window = 0; window < 24 * 60 / window_minutes; ++window) {
      EXPECT_EQ(tally.pick(label, window), oracle.pick(label, window))
          << where << ", label " << label << ", window " << window;
    }
  }
}

TEST(VenueTallyOracleTest, AppendedChunksMatchTheScanEveryPick) {
  for (const int window_minutes : {60, 30, 1440}) {
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
      const std::vector<data::CheckIn> history = seeded_history(seed, 120);
      std::mt19937 rng(seed * 7919);
      data::Dataset live = tally_city().venues;
      std::optional<VenueTally> kept;
      std::size_t at = 0;
      for (int chunk = 0; at < history.size(); ++chunk) {
        const std::size_t end = std::min(history.size(), at + 1 + rng() % 12);
        data::DatasetBuilder builder(live);
        for (std::size_t i = at; i < end; ++i)
          ASSERT_TRUE(builder.add_checkin(history[i]).is_ok());
        live = builder.build();
        if (!kept) {
          kept.emplace(live.checkins_for(1), window_minutes);  // first touch
        } else {
          for (std::size_t i = at; i < end; ++i) kept->add(history[i]);
        }
        at = end;
        const std::string where = "minutes " + std::to_string(window_minutes) + ", seed " +
                                  std::to_string(seed) + ", chunk " + std::to_string(chunk);
        expect_picks_match_oracle(*kept, live, window_minutes, where);
        expect_picks_match_oracle(VenueTally(live.checkins_for(1), window_minutes), live,
                                  window_minutes, where + " (counted)");
      }
    }
  }
}

TEST(VenueTallyOracleTest, OutOfOrderChunksCountTheSame) {
  // Counts do not depend on record order: chunks arriving earlier than
  // the column's last record are added like any other.
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    std::vector<data::CheckIn> history = seeded_history(seed, 90);
    std::mt19937 rng(seed);
    std::shuffle(history.begin(), history.end(), rng);
    data::Dataset live = tally_city().venues;
    VenueTally kept;
    for (std::size_t at = 0; at < history.size(); at += 9) {
      data::DatasetBuilder builder(live);
      for (std::size_t i = at; i < at + 9; ++i)
        ASSERT_TRUE(builder.add_checkin(history[i]).is_ok());
      live = builder.build();
      if (at == 0) {
        kept = VenueTally(live.checkins_for(1), 60);
      } else {
        for (std::size_t i = at; i < at + 9; ++i) kept.add(history[i]);
      }
      expect_picks_match_oracle(kept, live, 60,
                                "seed " + std::to_string(seed) + ", at " + std::to_string(at));
    }
  }
}

TEST(VenueTallyOracleTest, EqualTimestampsCountEveryRecord) {
  // Every record at one instant, across chunks: ties in time are
  // separate check-ins, and a chunk at the column's last timestamp is an
  // in-order append.
  const std::int64_t noon = to_epoch_seconds({2012, 5, 7, 12, 0, 0});
  data::Dataset live = tally_city().venues;
  VenueTally kept;
  const std::vector<std::vector<data::VenueId>> chunks = {{3, 1}, {1, 3, 3}, {0}, {1, 1}};
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    data::DatasetBuilder builder(live);
    for (const data::VenueId venue : chunks[c])
      ASSERT_TRUE(builder.add_checkin(tally_checkin(venue, noon)).is_ok());
    live = builder.build();
    if (c == 0) {
      kept = VenueTally(live.checkins_for(1), 60);
    } else {
      for (const data::VenueId venue : chunks[c]) kept.add(tally_checkin(venue, noon));
    }
    expect_picks_match_oracle(kept, live, 60, "chunk " + std::to_string(c));
  }
  EXPECT_EQ(kept.pick(tally_city().roots[0], 12), 1u);  // venue 1: 4 check-ins, venue 3: 3
}

TEST(VenueTallyOracleTest, VenueIdTiesBreakTowardTheSmallestId) {
  const std::int64_t day = to_epoch_seconds({2012, 5, 7, 0, 0, 0});
  data::DatasetBuilder builder(tally_city().venues);
  // Window 9 (09:00-10:00): venues 3 and 2 twice each, both label 0.
  // Label 0 overall: venues 3, 2 and 0 twice each.
  for (const auto& [venue, hour] : std::vector<std::pair<data::VenueId, int>>{
           {3, 9}, {2, 9}, {3, 9}, {2, 9}, {0, 18}, {0, 19}})
    ASSERT_TRUE(builder.add_checkin(tally_checkin(venue, day + hour * 3'600)).is_ok());
  const data::Dataset live = builder.build();
  const VenueTally tally(live.checkins_for(1), 60);
  expect_picks_match_oracle(tally, live, 60, "ties");
  const mining::Item label = tally_city().roots[0];
  EXPECT_EQ(tally.pick(label, 9), 2u);
  EXPECT_EQ(tally.pick(label, 11), 0u);  // fallback: three-way tie over the day
}

TEST(VenueTallyOracleTest, LabelWithNoRecordInTheWindowFallsBack) {
  const std::int64_t day = to_epoch_seconds({2012, 5, 7, 0, 0, 0});
  data::DatasetBuilder builder(tally_city().venues);
  // Label 1 (venues 4-7) at lunch only; venue 6 most often over the day.
  for (const auto& [venue, hour] : std::vector<std::pair<data::VenueId, int>>{
           {5, 12}, {6, 13}, {6, 13}, {4, 12}})
    ASSERT_TRUE(builder.add_checkin(tally_checkin(venue, day + hour * 3'600)).is_ok());
  const data::Dataset live = builder.build();
  const VenueTally tally(live.checkins_for(1), 60);
  expect_picks_match_oracle(tally, live, 60, "fallback");
  const mining::Item label = tally_city().roots[1];
  EXPECT_EQ(tally.pick(label, 12), 4u);  // in-window tie 4 vs 5: smallest id
  EXPECT_EQ(tally.pick(label, 8), 6u);   // no record at 08:00: most visited overall
  EXPECT_EQ(tally.pick(tally_city().roots[2], 12), std::nullopt);  // never visited
}

TEST(VenueTallyOracleTest, FirstTouchAndAdoptCountTheWholeColumn) {
  // A kept tally starts from the column on a user's first touch, and
  // again after a checkpoint adopt rebuilds the corpus from its rows; in
  // both cases it then takes appended chunks, and every pick agrees
  // with the oracle and with a tally kept since the first touch.
  const std::vector<data::CheckIn> history = seeded_history(99, 160);
  data::Dataset live = tally_city().venues;
  std::optional<VenueTally> since_first_touch;
  std::optional<VenueTally> since_adopt;
  for (std::size_t at = 0; at < history.size(); at += 10) {
    data::DatasetBuilder builder(live);
    for (std::size_t i = at; i < at + 10; ++i)
      ASSERT_TRUE(builder.add_checkin(history[i]).is_ok());
    live = builder.build();
    if (!since_first_touch) {
      since_first_touch.emplace(live.checkins_for(1), 60);
    } else {
      for (std::size_t i = at; i < at + 10; ++i) since_first_touch->add(history[i]);
    }
    if (at == 80) {
      // Adopt: a fresh builder over the corpus's rows, as a checkpoint
      // image rebuilds it, then a tally counted from that column.
      data::DatasetBuilder image;
      for (const data::VenueSpec& spec : tally_city().specs)
        ASSERT_TRUE(image.add_venue(spec).is_ok());
      for (const data::CheckIn& c : live.checkins()) ASSERT_TRUE(image.add_checkin(c).is_ok());
      live = image.build();
      since_adopt.emplace(live.checkins_for(1), 60);
    } else if (since_adopt) {
      for (std::size_t i = at; i < at + 10; ++i) since_adopt->add(history[i]);
    }
    const std::string where = "at " + std::to_string(at);
    expect_picks_match_oracle(*since_first_touch, live, 60, where);
    if (since_adopt) expect_picks_match_oracle(*since_adopt, live, 60, where + " (adopted)");
  }
  ASSERT_TRUE(since_adopt.has_value());
}

}  // namespace
}  // namespace crowdweb::crowd
