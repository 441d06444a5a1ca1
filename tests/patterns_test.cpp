#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "mining/prefixspan.hpp"
#include "patterns/mobility.hpp"
#include "patterns/place_graph.hpp"
#include "reference/annotate_oracle.hpp"
#include "util/civil_time.hpp"
#include "util/rng.hpp"

namespace crowdweb::patterns {
namespace {

const data::Taxonomy& tax() { return data::Taxonomy::foursquare(); }

/// A user with a crisp weekday routine: coffee ~8:30, office ~9:05,
/// thai lunch ~12:20 on most days.
data::Dataset routine_dataset(int days = 10) {
  data::DatasetBuilder builder;
  data::VenueSpec coffee;
  coffee.id = 0;
  coffee.name = "Corner Coffee";
  coffee.category = *tax().find("Coffee Shop");
  coffee.position = {40.71, -74.00};
  EXPECT_TRUE(builder.add_venue(coffee).is_ok());
  data::VenueSpec office;
  office.id = 1;
  office.name = "HQ";
  office.category = *tax().find("Office");
  office.position = {40.75, -73.98};
  EXPECT_TRUE(builder.add_venue(office).is_ok());
  data::VenueSpec thai;
  thai.id = 2;
  thai.name = "Thai Pothong";
  thai.category = *tax().find("Thai Restaurant");
  thai.position = {40.76, -73.99};
  EXPECT_TRUE(builder.add_venue(thai).is_ok());

  const auto add = [&](int day, int hour, int minute, const data::VenueSpec& venue) {
    data::CheckIn c;
    c.user = 7;
    c.venue = venue.id;
    c.category = venue.category;
    c.position = venue.position;
    c.timestamp = to_epoch_seconds({2012, 4, day, hour, minute, 0});
    EXPECT_TRUE(builder.add_checkin(c).is_ok());
  };
  for (int day = 1; day <= days; ++day) {
    add(day, 8, 30, coffee);
    add(day, 9, 5, office);
    if (day % 2 == 0) add(day, 12, 20, thai);  // lunch on half the days
  }
  return builder.build();
}

// --------------------------------------------------------------- Mobility

TEST(MobilityTest, MinesTheRoutine) {
  const data::Dataset dataset = routine_dataset();
  MobilityOptions options;
  options.mining.min_support = 0.9;
  const UserMobility mobility = mine_user_mobility(dataset, 7, tax(), options);
  EXPECT_EQ(mobility.user, 7u);
  EXPECT_EQ(mobility.recorded_days, 10u);
  // Eatery and Professional appear every day; Eatery->Professional too.
  const mining::Item eatery = *tax().find("Eatery");
  const mining::Item professional = *tax().find("Professional & Other Places");
  const auto has = [&](std::vector<mining::Item> items) {
    return std::any_of(mobility.patterns.begin(), mobility.patterns.end(),
                       [&](const MobilityPattern& p) {
                         if (p.elements.size() != items.size()) return false;
                         for (std::size_t i = 0; i < items.size(); ++i)
                           if (p.elements[i].label != items[i]) return false;
                         return true;
                       });
  };
  EXPECT_TRUE(has({eatery}));
  EXPECT_TRUE(has({professional}));
  EXPECT_TRUE(has({eatery, professional}));
}

TEST(MobilityTest, TimeAnnotationMatchesRoutine) {
  const data::Dataset dataset = routine_dataset();
  MobilityOptions options;
  options.mining.min_support = 0.9;
  const UserMobility mobility = mine_user_mobility(dataset, 7, tax(), options);
  const mining::Item eatery = *tax().find("Eatery");
  const mining::Item professional = *tax().find("Professional & Other Places");
  for (const MobilityPattern& pattern : mobility.patterns) {
    if (pattern.elements.size() == 2 && pattern.elements[0].label == eatery &&
        pattern.elements[1].label == professional) {
      EXPECT_NEAR(pattern.elements[0].mean_minute, 8 * 60 + 30, 1.0);
      EXPECT_NEAR(pattern.elements[1].mean_minute, 9 * 60 + 5, 1.0);
      EXPECT_NEAR(pattern.elements[0].stddev_minute, 0.0, 1.0);  // same time daily
      return;
    }
  }
  FAIL() << "Eatery -> Professional pattern not mined";
}

TEST(MobilityTest, LunchPatternHasHalfSupport) {
  const data::Dataset dataset = routine_dataset(10);
  MobilityOptions options;
  options.mining.min_support = 0.4;
  const UserMobility mobility = mine_user_mobility(dataset, 7, tax(), options);
  const mining::Item professional = *tax().find("Professional & Other Places");
  const mining::Item eatery = *tax().find("Eatery");
  // Professional -> Eatery (lunch) exists on even days only: support 0.5.
  bool found = false;
  for (const MobilityPattern& pattern : mobility.patterns) {
    if (pattern.elements.size() == 2 && pattern.elements[0].label == professional &&
        pattern.elements[1].label == eatery) {
      EXPECT_DOUBLE_EQ(pattern.support, 0.5);
      EXPECT_NEAR(pattern.elements[1].mean_minute, 12 * 60 + 20, 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MobilityTest, UnknownUserHasNoPatterns) {
  const data::Dataset dataset = routine_dataset();
  const UserMobility mobility = mine_user_mobility(dataset, 999, tax(), {});
  EXPECT_EQ(mobility.recorded_days, 0u);
  EXPECT_TRUE(mobility.patterns.empty());
}

TEST(MobilityTest, MineAllCoversAllUsers) {
  const data::Dataset dataset = routine_dataset();
  const auto all = mine_all_mobility(dataset, tax(), {});
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].user, 7u);
}

TEST(MobilityTest, AveragePatternLength) {
  std::vector<MobilityPattern> patterns;
  EXPECT_DOUBLE_EQ(average_pattern_length(patterns), 0.0);
  MobilityPattern p1;
  p1.elements = {{1, 0, 0}};
  MobilityPattern p2;
  p2.elements = {{1, 0, 0}, {2, 0, 0}, {3, 0, 0}};
  patterns = {p1, p2};
  EXPECT_DOUBLE_EQ(average_pattern_length(patterns), 2.0);
}

TEST(MobilityTest, DescribePattern) {
  const data::Dataset dataset = routine_dataset();
  MobilityPattern pattern;
  pattern.elements = {{*tax().find("Eatery"), 8 * 60 + 30, 0.0},
                      {*tax().find("Professional & Other Places"), 9 * 60 + 5, 0.0}};
  pattern.support = 0.75;
  const std::string text =
      describe_pattern(pattern, tax(), dataset, mining::LabelMode::kRootCategory);
  EXPECT_NE(text.find("Eatery@08:30"), std::string::npos) << text;
  EXPECT_NE(text.find("Professional & Other Places@09:05"), std::string::npos);
  EXPECT_NE(text.find("0.75"), std::string::npos);
}

TEST(MobilityTest, AnnotatePatternEmptySequences) {
  mining::Pattern pattern;
  pattern.items = {1, 2};
  pattern.support_count = 0;
  const mining::UserSequences empty;
  const MobilityPattern annotated = annotate_pattern(pattern, empty.shapes);
  ASSERT_EQ(annotated.elements.size(), 2u);
  EXPECT_DOUBLE_EQ(annotated.elements[0].mean_minute, 0.0);
}

TEST(MobilityTest, ParallelMiningMatchesSequential) {
  const data::Dataset dataset = routine_dataset();
  MobilityOptions options;
  options.mining.min_support = 0.4;
  const auto sequential = mine_all_mobility(dataset, tax(), options);
  for (const unsigned threads : {0u, 1u, 2u, 8u}) {
    const auto parallel = mine_all_mobility(dataset, tax(), options, threads);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      EXPECT_EQ(parallel[i].user, sequential[i].user);
      EXPECT_EQ(parallel[i].recorded_days, sequential[i].recorded_days);
      ASSERT_EQ(parallel[i].patterns.size(), sequential[i].patterns.size());
      for (std::size_t j = 0; j < parallel[i].patterns.size(); ++j) {
        EXPECT_EQ(parallel[i].patterns[j].support_count,
                  sequential[i].patterns[j].support_count);
        ASSERT_EQ(parallel[i].patterns[j].elements.size(),
                  sequential[i].patterns[j].elements.size());
        for (std::size_t k = 0; k < parallel[i].patterns[j].elements.size(); ++k) {
          EXPECT_EQ(parallel[i].patterns[j].elements[k].label,
                    sequential[i].patterns[j].elements[k].label);
          EXPECT_DOUBLE_EQ(parallel[i].patterns[j].elements[k].mean_minute,
                           sequential[i].patterns[j].elements[k].mean_minute);
        }
      }
    }
  }
}

// ------------------------------------------- Annotation vs per-day oracle

/// Users 0..users-1, each living a few personal routines (drawn from
/// seven venues in six root categories) over `days` days, with minute
/// jitter, an extra leading coffee stop on some days (a repeated label
/// when the routine also starts at an eatery) and a few irregular days.
data::Dataset random_routine_dataset(std::uint64_t seed, int users, int days) {
  data::DatasetBuilder builder;
  const char* const kinds[] = {"Coffee Shop", "Thai Restaurant", "Office",   "Bar",
                               "Gym",         "Grocery Store",   "Home (private)"};
  std::vector<data::VenueSpec> venues;
  for (int v = 0; v < 7; ++v) {
    data::VenueSpec venue;
    venue.id = static_cast<data::VenueId>(v);
    venue.name = kinds[v];
    venue.category = *tax().find(kinds[v]);
    venue.position = {40.70 + 0.01 * v, -74.00 + 0.01 * v};
    EXPECT_TRUE(builder.add_venue(venue).is_ok());
    venues.push_back(venue);
  }
  Rng rng(seed);
  for (int u = 0; u < users; ++u) {
    std::vector<std::vector<int>> routines(2 + static_cast<std::size_t>(u % 3));
    for (auto& routine : routines) {
      const int length = static_cast<int>(rng.uniform_int(1, 6));
      for (int i = 0; i < length; ++i) routine.push_back(static_cast<int>(rng.uniform_int(0, 6)));
    }
    for (int day = 0; day < days; ++day) {
      std::vector<int> stops = routines[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(routines.size()) - 1))];
      if (rng.uniform() < 0.1) {
        stops.clear();
        const int length = static_cast<int>(rng.uniform_int(1, 4));
        for (int i = 0; i < length; ++i) stops.push_back(static_cast<int>(rng.uniform_int(0, 6)));
      }
      if (rng.uniform() < 0.3) stops.insert(stops.begin(), 0);
      for (std::size_t i = 0; i < stops.size(); ++i) {
        const data::VenueSpec& venue = venues[static_cast<std::size_t>(stops[i])];
        data::CheckIn c;
        c.user = static_cast<data::UserId>(u);
        c.venue = venue.id;
        c.category = venue.category;
        c.position = venue.position;
        const int minute = 6 * 60 + static_cast<int>(i) * 100 +
                           static_cast<int>(rng.uniform_int(0, 59));
        c.timestamp = to_epoch_seconds({2012, 4, 1, 0, 0, 0}) +
                      static_cast<std::int64_t>(day) * 86'400 + minute * 60;
        EXPECT_TRUE(builder.add_checkin(c).is_ok());
      }
    }
  }
  return builder.build();
}

/// Labels and supports equal; mean and spread equal to the last bit.
void expect_bit_identical(const MobilityPattern& actual, const MobilityPattern& oracle,
                          const std::string& where) {
  EXPECT_EQ(actual.support_count, oracle.support_count) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.support),
            std::bit_cast<std::uint64_t>(oracle.support))
      << where;
  ASSERT_EQ(actual.elements.size(), oracle.elements.size()) << where;
  for (std::size_t k = 0; k < actual.elements.size(); ++k) {
    EXPECT_EQ(actual.elements[k].label, oracle.elements[k].label) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.elements[k].mean_minute),
              std::bit_cast<std::uint64_t>(oracle.elements[k].mean_minute))
        << where << " element " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.elements[k].stddev_minute),
              std::bit_cast<std::uint64_t>(oracle.elements[k].stddev_minute))
        << where << " element " << k;
  }
}

/// Every pattern the per-day columns mine, annotated both ways.
void expect_annotations_match_oracle(const mining::UserSequences& sequences,
                                     double min_support, const std::string& where) {
  mining::MiningOptions options;
  options.min_support = min_support;
  const mining::SequenceColumns per_day{sequences.items, sequences.day_offsets};
  for (const mining::Pattern& pattern : mining::prefixspan(per_day, options))
    expect_bit_identical(annotate_pattern(pattern, sequences.shapes),
                         annotate_pattern_per_day(pattern, sequences), where);
}

TEST(AnnotationOracleTest, ShapeSumsMatchPerDayOnRandomUsers) {
  const data::Dataset dataset = random_routine_dataset(77, 12, 60);
  mining::SequenceOptions keep_repeats;
  keep_repeats.collapse_repeats = false;
  mining::SequenceOptions long_days;
  long_days.min_day_length = 3;
  const std::pair<const char*, mining::SequenceOptions> variants[] = {
      {"default", {}}, {"collapse_repeats=false", keep_repeats}, {"min_day_length=3", long_days}};
  for (const auto& [name, sequence_options] : variants) {
    for (const data::UserId user : dataset.users()) {
      const mining::UserSequences sequences =
          mining::build_user_sequences(dataset, user, tax(), sequence_options);
      const std::string where = std::string(name) + " user " + std::to_string(user);
      ASSERT_GT(sequences.day_count(), 0u) << where;
      EXPECT_LT(sequences.shapes.size(), sequences.day_count()) << where;
      expect_annotations_match_oracle(sequences, 0.05, where);
    }
  }
}

TEST(AnnotationOracleTest, MinedEntriesMatchThePerDayPipeline) {
  // The whole phase-2 path over shapes equals mining the per-day columns
  // and annotating day by day, with recorded_days still counting days.
  const data::Dataset dataset = random_routine_dataset(91, 6, 45);
  MobilityOptions options;
  options.mining.min_support = 0.1;
  options.sequences.min_day_length = 2;
  for (const data::UserId user : dataset.users()) {
    const mining::UserSequences sequences =
        mining::build_user_sequences(dataset, user, tax(), options.sequences);
    const UserMobility entry = mine_user_mobility(dataset, user, tax(), options);
    const std::string where = "user " + std::to_string(user);
    EXPECT_EQ(entry.recorded_days, sequences.day_count()) << where;
    const mining::SequenceColumns days{sequences.items, sequences.day_offsets};
    const std::vector<mining::Pattern> per_day = mining::prefixspan(days, options.mining);
    ASSERT_EQ(entry.patterns.size(), per_day.size()) << where;
    for (std::size_t i = 0; i < per_day.size(); ++i)
      expect_bit_identical(entry.patterns[i], annotate_pattern_per_day(per_day[i], sequences),
                           where);
  }
}

TEST(AnnotationOracleTest, OneDayUser) {
  const data::Dataset dataset = random_routine_dataset(5, 3, 1);
  for (const data::UserId user : dataset.users()) {
    const mining::UserSequences sequences = mining::build_user_sequences(dataset, user, tax());
    ASSERT_EQ(sequences.day_count(), 1u);
    ASSERT_EQ(sequences.shapes.size(), 1u);
    expect_annotations_match_oracle(sequences, 1.0, "user " + std::to_string(user));
    const UserMobility entry = mine_user_mobility(dataset, user, tax());
    EXPECT_EQ(entry.recorded_days, 1u);
  }
}

TEST(AnnotationOracleTest, PatternEmbeddedTwiceInADayUsesTheFirstEmbedding) {
  // Pattern 1 -> 2 embeds twice in 1 2 1 2; the greedy first embedding
  // takes minutes 100 and 200 (and 110, 210 on the second such day).
  mining::UserSequences sequences;
  const std::vector<mining::Item> twice{1, 2, 1, 2};
  sequences.append_day(twice, std::vector<int>{100, 200, 300, 400});
  sequences.append_day(std::vector<mining::Item>{2, 1}, std::vector<int>{50, 60});
  sequences.append_day(twice, std::vector<int>{110, 210, 310, 410});
  ASSERT_EQ(sequences.shapes.size(), 2u);
  mining::Pattern pattern;
  pattern.items = {1, 2};
  pattern.support_count = 2;
  pattern.support = 2.0 / 3.0;
  const MobilityPattern annotated = annotate_pattern(pattern, sequences.shapes);
  expect_bit_identical(annotated, annotate_pattern_per_day(pattern, sequences), "twice");
  EXPECT_EQ(annotated.elements[0].mean_minute, 105.0);
  EXPECT_EQ(annotated.elements[1].mean_minute, 205.0);
  EXPECT_EQ(annotated.elements[0].stddev_minute, 5.0);
  expect_annotations_match_oracle(sequences, 0.3, "twice (mined)");
}

// ---------------------------------------------------------- MobilityTable

/// A synthetic entry: random pattern and element counts.
UserMobility random_entry(Rng& rng, data::UserId user) {
  UserMobility entry;
  entry.user = user;
  entry.recorded_days = static_cast<std::size_t>(rng.uniform_int(1, 200));
  const auto patterns = rng.uniform_int(0, 6);
  for (std::int64_t p = 0; p < patterns; ++p) {
    MobilityPattern pattern;
    pattern.elements.resize(static_cast<std::size_t>(rng.uniform_int(1, 4)));
    entry.patterns.push_back(std::move(pattern));
  }
  return entry;
}

MobilityStats walked_stats(const MobilityTable& table) {
  MobilityStats stats;
  for (const UserMobility& entry : table) stats.add(entry);
  return stats;
}

TEST(MobilityTableTest, KeptStatsEqualAFreshWalkAfterRandomUpdates) {
  Rng rng(29);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<UserMobility> seed;
    for (data::UserId user = 0; user < 60; user += 2) seed.push_back(random_entry(rng, user));
    MobilityTable table = MobilityTable::from_entries(std::move(seed));
    ASSERT_EQ(table.stats(), walked_stats(table));
    for (int step = 0; step < 25; ++step) {
      // Replacements of existing users and inserts of new ones, in any
      // order; the table sorts them.
      std::vector<UserMobility> updates;
      std::vector<data::UserId> users;
      const auto count = rng.uniform_int(0, 12);
      for (std::int64_t u = 0; u < count; ++u) {
        const auto user = static_cast<data::UserId>(rng.uniform_int(0, 90));
        if (std::find(users.begin(), users.end(), user) != users.end()) continue;
        users.push_back(user);
        updates.push_back(random_entry(rng, user));
      }
      table = table.with_updates(std::move(updates));
      ASSERT_EQ(table.stats(), walked_stats(table)) << "trial " << trial << " step " << step;
    }
    const std::vector<data::UserId> kept = {0, 4, 10, 61, 88};
    const MobilityTable filtered = table.filter_users(kept);
    EXPECT_EQ(filtered.stats(), walked_stats(filtered));
  }
  EXPECT_EQ(MobilityTable{}.stats(), MobilityStats{});
}

TEST(MobilityTest, ParallelMiningEmptyDataset) {
  const data::Dataset empty;
  EXPECT_TRUE(mine_all_mobility(empty, tax(), {}, 4).empty());
}

// ------------------------------------------------------------- PlaceGraph

TEST(PlaceGraphTest, NodesAndEdgesFromRoutine) {
  const data::Dataset dataset = routine_dataset();
  const auto sequences = mining::build_user_sequences(dataset, 7, tax());
  const PlaceGraph graph = build_place_graph(sequences, tax(), dataset,
                                             mining::LabelMode::kRootCategory);
  // Labels: Eatery, Professional.
  ASSERT_EQ(graph.nodes.size(), 2u);
  const auto eatery_node = graph.node_of(*tax().find("Eatery"));
  const auto professional_node = graph.node_of(*tax().find("Professional & Other Places"));
  ASSERT_TRUE(eatery_node && professional_node);
  // 10 coffee + 5 thai lunches = 15 eatery visits; 10 office visits.
  EXPECT_EQ(graph.nodes[*eatery_node].visits, 15u);
  EXPECT_EQ(graph.nodes[*professional_node].visits, 10u);

  // Edges: Eatery->Professional (10 mornings), Professional->Eatery (5 lunches).
  std::size_t coffee_to_office = 0, office_to_lunch = 0;
  for (const PlaceEdge& edge : graph.edges) {
    if (edge.from == *eatery_node && edge.to == *professional_node)
      coffee_to_office = edge.count;
    if (edge.from == *professional_node && edge.to == *eatery_node)
      office_to_lunch = edge.count;
  }
  EXPECT_EQ(coffee_to_office, 10u);
  EXPECT_EQ(office_to_lunch, 5u);
}

TEST(PlaceGraphTest, MinVisitsDropsRareNodes) {
  const data::Dataset dataset = routine_dataset();
  const auto sequences = mining::build_user_sequences(dataset, 7, tax());
  PlaceGraphOptions options;
  options.min_visits = 12;  // only Eatery (15 visits) survives
  const PlaceGraph graph = build_place_graph(sequences, tax(), dataset,
                                             mining::LabelMode::kRootCategory, options);
  ASSERT_EQ(graph.nodes.size(), 1u);
  EXPECT_EQ(graph.nodes[0].name, "Eatery");
  EXPECT_TRUE(graph.edges.empty());  // no second endpoint left
}

TEST(PlaceGraphTest, RestrictToPatterns) {
  const data::Dataset dataset = routine_dataset();
  const auto sequences = mining::build_user_sequences(dataset, 7, tax());
  // Restrict to a pattern mentioning only Eatery.
  MobilityPattern pattern;
  pattern.elements = {{*tax().find("Eatery"), 510, 0.0}};
  const std::vector<MobilityPattern> patterns{pattern};
  PlaceGraphOptions options;
  options.restrict_to_patterns = &patterns;
  const PlaceGraph graph = build_place_graph(sequences, tax(), dataset,
                                             mining::LabelMode::kRootCategory, options);
  ASSERT_EQ(graph.nodes.size(), 1u);
  EXPECT_EQ(graph.nodes[0].label, *tax().find("Eatery"));
}

TEST(PlaceGraphTest, EmptySequences) {
  const mining::UserSequences empty;
  const data::Dataset dataset;
  const PlaceGraph graph =
      build_place_graph(empty, tax(), dataset, mining::LabelMode::kRootCategory);
  EXPECT_TRUE(graph.nodes.empty());
  EXPECT_TRUE(graph.edges.empty());
  EXPECT_FALSE(graph.node_of(0).has_value());
}

TEST(PlaceGraphTest, EdgeEndpointsAreValidIndexes) {
  const data::Dataset dataset = routine_dataset();
  const auto sequences = mining::build_user_sequences(dataset, 7, tax());
  const PlaceGraph graph = build_place_graph(sequences, tax(), dataset,
                                             mining::LabelMode::kRootCategory);
  for (const PlaceEdge& edge : graph.edges) {
    EXPECT_LT(edge.from, graph.nodes.size());
    EXPECT_LT(edge.to, graph.nodes.size());
    EXPECT_GT(edge.count, 0u);
  }
}

TEST(PlaceGraphTest, MeanMinuteIsVisitWeighted) {
  const data::Dataset dataset = routine_dataset(10);
  const auto sequences = mining::build_user_sequences(dataset, 7, tax());
  const PlaceGraph graph = build_place_graph(sequences, tax(), dataset,
                                             mining::LabelMode::kRootCategory);
  const auto eatery_node = graph.node_of(*tax().find("Eatery"));
  ASSERT_TRUE(eatery_node.has_value());
  // 10 visits at 8:30 and 5 at 12:20 -> mean = (10*510 + 5*740)/15.
  EXPECT_NEAR(graph.nodes[*eatery_node].mean_minute, (10.0 * 510 + 5.0 * 740) / 15.0, 0.5);
}

}  // namespace
}  // namespace crowdweb::patterns
