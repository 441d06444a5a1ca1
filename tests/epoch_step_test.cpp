// The epoch step against a from-scratch derivation: a seeded random
// sequence of deltas — one-event steps, wide steps, new users, new
// venues, empty deltas, users re-derived without events, and events at
// or before a user's last filed check-in (refiles) — must leave the
// step's dataset, mobility table and crowd model equal to a fresh
// DatasetBuilder + per-user mine_user_mobility + CrowdModel::build over
// the same rows after every step, share every crowd window no changed
// user was or is placed in, and not depend on the mining thread count.
// The `ingest` label puts the step's fan-outs on the TSan matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "crowd/model.hpp"
#include "data/categories.hpp"
#include "data/dataset.hpp"
#include "geo/grid.hpp"
#include "ingest/epoch_step.hpp"
#include "patterns/mobility.hpp"
#include "reference/annotate_oracle.hpp"
#include "synth/generator.hpp"
#include "util/civil_time.hpp"

namespace crowdweb {
namespace {

const data::Taxonomy& tax() { return data::Taxonomy::foursquare(); }

/// Every row the step has seen, in arrival order: what a from-scratch
/// build reads.
struct Rows {
  std::vector<data::VenueSpec> venues;
  std::vector<data::CheckIn> checkins;
};

data::Dataset build_from_scratch(const Rows& rows) {
  data::DatasetBuilder builder;
  for (const data::VenueSpec& venue : rows.venues)
    EXPECT_TRUE(builder.add_venue(venue).is_ok());
  for (const data::CheckIn& checkin : rows.checkins)
    EXPECT_TRUE(builder.add_checkin(checkin).is_ok());
  return builder.build();
}

void expect_records_eq(const data::Dataset& actual, const data::Dataset& expected) {
  ASSERT_EQ(actual.venue_count(), expected.venue_count());
  ASSERT_EQ(actual.user_count(), expected.user_count());
  ASSERT_EQ(actual.checkin_count(), expected.checkin_count());
  EXPECT_TRUE(std::ranges::equal(actual.users(), expected.users()));
  for (std::size_t v = 0; v < actual.venue_count(); ++v) {
    const data::Venue& a = actual.venues()[v];
    const data::Venue& b = expected.venues()[v];
    ASSERT_EQ(actual.venue_name(a.id), expected.venue_name(b.id)) << "venue " << v;
    ASSERT_EQ(a.category, b.category);
    ASSERT_EQ(a.position, b.position);
  }
  std::size_t rank = 0;
  auto expected_it = expected.checkins().begin();
  for (const data::CheckIn& checkin : actual.checkins()) {
    ASSERT_EQ(checkin, *expected_it) << "check-in rank " << rank;
    ++expected_it;
    ++rank;
  }
}

void expect_crowd_eq(const crowd::CrowdModel& a, const crowd::CrowdModel& b) {
  ASSERT_EQ(a.window_count(), b.window_count());
  for (int w = 0; w < a.window_count(); ++w) {
    const auto pa = a.placements(w);
    const auto pb = b.placements(w);
    ASSERT_EQ(pa.size(), pb.size()) << "window " << w;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i].user, pb[i].user) << "window " << w;
      ASSERT_EQ(pa[i].label, pb[i].label);
      ASSERT_EQ(pa[i].venue, pb[i].venue);
      ASSERT_EQ(pa[i].cell, pb[i].cell);
      ASSERT_EQ(pa[i].position, pb[i].position);
      ASSERT_EQ(pa[i].pattern_support, pb[i].pattern_support);
    }
  }
}

/// The first entry of `table` that differs from `expected` (one per user,
/// ascending), "" when every entry agrees bit for bit.
std::string table_difference(const patterns::MobilityTable& table,
                             const std::vector<patterns::UserMobility>& expected) {
  if (table.size() != expected.size())
    return "table holds " + std::to_string(table.size()) + " entries, expected " +
           std::to_string(expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::string difference = patterns::entry_difference(table[i], expected[i]);
    if (!difference.empty())
      return "user " + std::to_string(expected[i].user) + ": " + difference;
  }
  return "";
}

bool placed_in(const crowd::CrowdModel& model, int window,
               const std::vector<data::UserId>& users) {
  for (const crowd::CrowdPlacement& placement : model.placements(window)) {
    if (std::ranges::binary_search(users, placement.user)) return true;
  }
  return false;
}

enum class StepKind { kOneEvent, kWide, kNewUser, kNewVenue, kEmpty, kRederive, kRefile };
constexpr std::array kKinds{StepKind::kOneEvent, StepKind::kWide,    StepKind::kNewUser,
                            StepKind::kNewVenue, StepKind::kEmpty,   StepKind::kRederive,
                            StepKind::kRefile};

TEST(EpochStepTest, RandomStepsMatchAFromScratchBuildAtOneAndFourThreads) {
  auto corpus = synth::small_corpus(7);
  ASSERT_TRUE(corpus.is_ok()) << corpus.status().to_string();
  const data::Dataset& base = corpus->dataset;
  // small_corpus collects April to June 2012.
  const std::int64_t period_start = synth::GeneratorConfig{}.period_start;
  const std::int64_t period_end = to_epoch_seconds({2012, 7, 1, 0, 0, 0});
  // Below the 0.5 default, so most users are placed and the windows turn over.
  patterns::MobilityOptions options;
  options.mining.min_support = 0.25;
  const crowd::CrowdOptions crowd_options;
  auto grid = geo::SpatialGrid::create(base.bounds().inflated(0.002), 500.0);
  ASSERT_TRUE(grid.is_ok());
  const patterns::MobilityTable mobility =
      patterns::MobilityTable::from_entries(patterns::mine_all_mobility(base, tax(), options));
  auto seed_crowd = crowd::CrowdModel::build(base, mobility, *grid, crowd_options);
  ASSERT_TRUE(seed_crowd.is_ok()) << seed_crowd.status().to_string();
  ingest::EpochStep serial(base, mobility, *seed_crowd, tax(), options, 1);
  ingest::EpochStep parallel(base, mobility, *seed_crowd, tax(), options, 4);

  Rows rows;
  for (const data::Venue& venue : base.venues())
    rows.venues.push_back(base.venue_spec(venue.id));
  rows.checkins.assign(base.checkins().begin(), base.checkins().end());

  std::mt19937_64 rng(20'260'401);
  const auto uniform = [&rng](std::size_t n) {
    return static_cast<std::size_t>(std::uniform_int_distribution<std::size_t>(0, n - 1)(rng));
  };
  // Grows with each new user.
  std::vector<data::UserId> users(base.users().begin(), base.users().end());
  data::UserId next_user = 900'000;
  std::array<std::size_t, kKinds.size()> kinds_seen{};
  ingest::EpochReport totals;

  constexpr int kSteps = 70;
  for (int s = 0; s < kSteps; ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    const data::Dataset& live = serial.dataset();
    const std::size_t kind_index = uniform(kKinds.size());
    ++kinds_seen[kind_index];
    std::vector<data::Venue> venues;
    std::vector<data::CheckIn> checkins;
    std::vector<data::UserId> changed;
    // A check-in at an existing venue `gap` seconds after `after`.
    const auto event_at = [&](data::UserId user, std::int64_t after, std::int64_t gap) {
      const data::Venue& venue = live.venues()[uniform(live.venue_count())];
      checkins.push_back({user, venue.id, venue.category, venue.position, after + gap});
    };
    const auto last_timestamp = [&](data::UserId user) {
      for (auto it = checkins.rbegin(); it != checkins.rend(); ++it)
        if (it->user == user) return it->timestamp;
      const auto records = live.checkins_for(user);
      return records.empty() ? period_end : records.timestamp(records.size() - 1);
    };
    const auto append = [&](data::UserId user) {
      event_at(user, last_timestamp(user),
               static_cast<std::int64_t>(600 + uniform(2 * 86'400)));
    };
    switch (kKinds[kind_index]) {
      case StepKind::kOneEvent:
        append(users[uniform(users.size())]);
        break;
      case StepKind::kWide:
        for (std::size_t i = 0, n = 30 + uniform(50); i < n; ++i)
          append(users[uniform(users.size())]);
        break;
      case StepKind::kNewUser: {
        const data::UserId user = next_user++;
        users.push_back(user);
        std::int64_t at = period_start + static_cast<std::int64_t>(uniform(86'400));
        for (std::size_t i = 0, n = 10 + uniform(30); i < n; ++i) {
          at += static_cast<std::int64_t>(3'600 + uniform(86'400));
          event_at(user, at, 0);
        }
        break;
      }
      case StepKind::kNewVenue: {
        data::Venue venue;
        venue.id = static_cast<data::VenueId>(live.venue_count());
        const std::string name = "step-venue-" + std::to_string(venue.id);
        venue.name = live.name_pool()->intern(name);
        const data::Venue& near = live.venues()[uniform(live.venue_count())];
        venue.category = near.category;
        venue.position = {near.position.lat + 0.001, near.position.lon - 0.001};
        venues.push_back(venue);
        rows.venues.push_back({venue.id, name, venue.category, venue.position});
        for (int i = 0; i < 3; ++i) {
          const data::UserId user = users[uniform(users.size())];
          checkins.push_back({user, venue.id, venue.category, venue.position,
                              last_timestamp(user) + 1'800});
        }
        break;
      }
      case StepKind::kEmpty:
        break;
      case StepKind::kRederive:
        // Users re-derived with nothing new, as the first epoch after a
        // recovery re-derives every touched user.
        for (int i = 0; i < 3; ++i) changed.push_back(users[uniform(users.size())]);
        break;
      case StepKind::kRefile:
        // At or before the user's last filed check-in: the index refiles.
        for (int i = 0; i < 2; ++i) {
          const data::UserId user = users[uniform(users.size())];
          const std::int64_t last = last_timestamp(user);
          const std::size_t back = uniform(3) == 0 ? 0 : uniform(20 * 86'400);
          event_at(user, last, -static_cast<std::int64_t>(back));
        }
        break;
    }
    for (const data::CheckIn& checkin : checkins) changed.push_back(checkin.user);
    rows.checkins.insert(rows.checkins.end(), checkins.begin(), checkins.end());

    const crowd::CrowdModel before = serial.crowd();
    auto serial_report = serial.step(venues, checkins, changed);
    ASSERT_TRUE(serial_report.is_ok()) << serial_report.status().to_string();
    auto parallel_report = parallel.step(venues, checkins, changed);
    ASSERT_TRUE(parallel_report.is_ok()) << parallel_report.status().to_string();

    // The from-scratch derivation over every row so far.
    const data::Dataset scratch = build_from_scratch(rows);
    std::vector<patterns::UserMobility> mined;
    for (const data::UserId user : scratch.users())
      mined.push_back(patterns::mine_user_mobility(scratch, user, tax(), options));
    auto rebuilt = crowd::CrowdModel::build(scratch, mined, *grid, crowd_options);
    ASSERT_TRUE(rebuilt.is_ok());

    for (const ingest::EpochStep* step : {&serial, &parallel}) {
      expect_records_eq(step->dataset(), scratch);
      EXPECT_EQ(table_difference(step->mobility(), mined), "");
      expect_crowd_eq(step->crowd(), *rebuilt);
    }
    if (HasFatalFailure()) return;

    // The thread count changes nothing the step reports.
    const ingest::EpochReport& a = *serial_report;
    const ingest::EpochReport& b = *parallel_report;
    EXPECT_EQ(a.appended_users, b.appended_users);
    EXPECT_EQ(a.refiled_users, b.refiled_users);
    EXPECT_EQ(a.counted_users, b.counted_users);
    EXPECT_EQ(a.mined_users, b.mined_users);
    EXPECT_EQ(a.patterns_emitted, b.patterns_emitted);
    EXPECT_EQ(a.kept_bytes, b.kept_bytes);

    // Windows no changed user was or is placed in are shared.
    std::ranges::sort(changed);
    for (int w = 0; w < before.window_count(); ++w) {
      if (placed_in(before, w, changed) || placed_in(serial.crowd(), w, changed)) continue;
      EXPECT_EQ(serial.crowd().window_identity(w), before.window_identity(w))
          << "window " << w;
    }

    totals.appended_users += a.appended_users;
    totals.refiled_users += a.refiled_users;
    totals.counted_users += a.counted_users;
    totals.mined_users += a.mined_users;
  }

  // The sequence exercised every kind of step and both paths of each
  // stage, and the model places someone.
  for (std::size_t k = 0; k < kKinds.size(); ++k) EXPECT_GT(kinds_seen[k], 0u) << "kind " << k;
  EXPECT_GT(totals.appended_users, 0u);
  EXPECT_GT(totals.refiled_users, 0u);
  EXPECT_GT(totals.counted_users, 0u);
  EXPECT_GT(totals.mined_users, 0u);
  EXPECT_GT(serial.crowd().total_placements(), 0u);
}

TEST(EpochStepTest, FailedStepLeavesThePublishedStateAndCanBeRetried) {
  auto corpus = synth::small_corpus(11);
  ASSERT_TRUE(corpus.is_ok());
  const data::Dataset& base = corpus->dataset;
  const patterns::MobilityTable mobility =
      patterns::MobilityTable::from_entries(patterns::mine_all_mobility(base, tax()));
  auto grid = geo::SpatialGrid::create(base.bounds().inflated(0.002), 500.0);
  ASSERT_TRUE(grid.is_ok());
  auto seed_crowd = crowd::CrowdModel::build(base, mobility, *grid);
  ASSERT_TRUE(seed_crowd.is_ok());
  ingest::EpochStep step(base, mobility, *seed_crowd, tax(), {}, 2);

  const data::UserId user = base.users().front();
  const data::CheckIn last = base.checkins_for(user)[base.checkins_for(user).size() - 1];
  data::CheckIn next = last;
  next.timestamp += 3'600;
  // A check-in at a venue that does not exist fails the merge.
  data::CheckIn stray = next;
  stray.venue = static_cast<data::VenueId>(base.venue_count() + 5);
  const std::vector<data::CheckIn> bad{next, stray};
  const std::vector<data::UserId> changed{user};
  EXPECT_FALSE(step.step({}, bad, changed).is_ok());
  EXPECT_EQ(step.dataset().checkin_count(), base.checkin_count());
  EXPECT_EQ(step.mobility().entry_for(user), mobility.entry_for(user));

  const std::vector<data::CheckIn> good{next};
  auto report = step.step({}, good, changed);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(step.dataset().checkin_count(), base.checkin_count() + 1);
  const patterns::UserMobility expected =
      patterns::mine_user_mobility(step.dataset(), user, tax());
  EXPECT_EQ(patterns::entry_difference(*step.mobility().find(user), expected), "");
}

}  // namespace
}  // namespace crowdweb
