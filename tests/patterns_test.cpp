#include <gtest/gtest.h>

#include <algorithm>

#include "patterns/mobility.hpp"
#include "patterns/place_graph.hpp"
#include "util/civil_time.hpp"

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
  const MobilityPattern annotated = annotate_pattern(pattern, empty);
  ASSERT_EQ(annotated.elements.size(), 2u);
  EXPECT_DOUBLE_EQ(annotated.elements[0].mean_minute, 0.0);
}

TEST(MobilityTest, ParallelMiningMatchesSequential) {
  const data::Dataset dataset = routine_dataset();
  MobilityOptions options;
  options.mining.min_support = 0.4;
  const auto sequential = mine_all_mobility(dataset, tax(), options);
  for (const unsigned threads : {0u, 1u, 2u, 8u}) {
    const auto parallel = mine_all_mobility_parallel(dataset, tax(), options, threads);
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

// --------------------------------------------------- Compact (closed) mode

/// Mines the routine user in both serving modes: the full set
/// (PrefixSpan) and the compact closed set (BIDE).
struct BothModes {
  UserMobility expanded;
  UserMobility compact;
};

BothModes mine_both_modes(const data::Dataset& dataset, double min_support = 0.4) {
  MobilityOptions options;
  options.mining.min_support = min_support;
  BothModes modes;
  options.mining.algorithm = "prefixspan";
  modes.expanded = mine_user_mobility(dataset, 7, tax(), options);
  options.mining.algorithm = "bide";
  modes.compact = mine_user_mobility(dataset, 7, tax(), options);
  return modes;
}

TEST(CompactMobilityTest, ClosedModeStoresOnlyClosedPatterns) {
  const data::Dataset dataset = routine_dataset();
  const BothModes modes = mine_both_modes(dataset);
  ASSERT_FALSE(modes.expanded.closed_only);
  ASSERT_TRUE(modes.compact.closed_only);
  EXPECT_LT(modes.compact.patterns.size(), modes.expanded.patterns.size());
  // Served counts stay byte-identical: the compact entry remembers the
  // size of the frequent set it stands in for.
  EXPECT_EQ(modes.compact.frequent_patterns, modes.expanded.patterns.size());
  EXPECT_EQ(modes.compact.served_pattern_count(), modes.expanded.served_pattern_count());
  // The sidecar index never grows past the expanded element count.
  std::size_t expanded_elements = 0;
  for (const MobilityPattern& pattern : modes.expanded.patterns)
    expanded_elements += pattern.elements.size();
  EXPECT_LE(modes.compact.placement_index.size(), expanded_elements);
  EXPECT_FALSE(modes.compact.placement_index.empty());
  // The expansion work is accounted in the stats split.
  EXPECT_EQ(modes.compact.mining_stats.expanded, modes.expanded.patterns.size());
}

TEST(CompactMobilityTest, SupportQueriesMatchAcrossModes) {
  const data::Dataset dataset = routine_dataset();
  const BothModes modes = mine_both_modes(dataset);
  ASSERT_TRUE(modes.compact.closed_only);
  // Every frequent pattern's support is answered exactly by subsumption
  // over the compact entry's closed set.
  for (const MobilityPattern& pattern : modes.expanded.patterns) {
    std::vector<mining::Item> labels;
    for (const TimedElement& element : pattern.elements) labels.push_back(element.label);
    EXPECT_EQ(modes.compact.support_count_of(labels), pattern.support_count);
    EXPECT_DOUBLE_EQ(modes.compact.support_of(labels), pattern.support);
    EXPECT_EQ(modes.expanded.support_count_of(labels), pattern.support_count);
  }
  const std::vector<mining::Item> absent{991, 992, 993};
  EXPECT_EQ(modes.compact.support_count_of(absent), 0u);
  EXPECT_DOUBLE_EQ(modes.compact.support_of(absent), 0.0);
}

TEST(CompactMobilityTest, ExpandUserPatternsReproducesTheExpandedTable) {
  const data::Dataset dataset = routine_dataset();
  MobilityOptions options;
  options.mining.algorithm = "bide";
  options.mining.min_support = 0.4;
  const BothModes modes = mine_both_modes(dataset);
  ASSERT_TRUE(modes.compact.closed_only);
  const std::vector<MobilityPattern> lazily =
      expand_user_patterns(modes.compact, dataset, tax(), options);
  EXPECT_EQ(lazily, modes.expanded.patterns);
  // An expanded entry passes through untouched.
  EXPECT_EQ(expand_user_patterns(modes.expanded, dataset, tax(), options),
            modes.expanded.patterns);
}

TEST(CompactMobilityTest, PlacementIndexKeepsTheSupportFrontierInRankOrder) {
  const data::Dataset dataset = routine_dataset();
  const BothModes modes = mine_both_modes(dataset);
  ASSERT_TRUE(modes.compact.closed_only);
  const auto& index = modes.compact.placement_index;
  for (std::size_t i = 1; i < index.size(); ++i)
    EXPECT_LT(index[i - 1].rank, index[i].rank);  // canonical emission order
  for (std::size_t i = 0; i < index.size(); ++i) {
    EXPECT_LT(index[i].minute, 24 * 60);
    // Frontier property: among earlier-rank candidates with the same
    // (label, minute) key, each survivor strictly raises the support.
    for (std::size_t j = 0; j < i; ++j) {
      if (index[j].label != index[i].label || index[j].minute != index[i].minute)
        continue;
      EXPECT_GT(index[i].support_count, index[j].support_count);
    }
  }
}

TEST(CompactMobilityTest, ResidentBytesShrinkWithTheClosedSet) {
  const data::Dataset dataset = routine_dataset(12);
  const BothModes modes = mine_both_modes(dataset, 0.25);
  ASSERT_TRUE(modes.compact.closed_only);
  const MobilityStats expanded_stats = [&] {
    MobilityStats stats;
    stats.add(modes.expanded);
    return stats;
  }();
  const MobilityStats compact_stats = [&] {
    MobilityStats stats;
    stats.add(modes.compact);
    return stats;
  }();
  EXPECT_EQ(expanded_stats.compact_entries, 0u);
  EXPECT_EQ(compact_stats.compact_entries, 1u);
  EXPECT_LT(compact_stats.patterns, expanded_stats.patterns);
  // On this dense routine the closed set + sidecar index is smaller than
  // the expanded table (sparse corpora can invert this — see
  // docs/PERFORMANCE.md).
  EXPECT_LT(compact_stats.bytes, expanded_stats.bytes);
}

TEST(MobilityTest, ParallelMiningEmptyDataset) {
  const data::Dataset empty;
  EXPECT_TRUE(mine_all_mobility_parallel(empty, tax(), {}, 4).empty());
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
