#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "data/dataset.hpp"
#include "mining/pattern.hpp"
#include "mining/prefixspan.hpp"
#include "mining/seqdb.hpp"
#include "patterns/mobility.hpp"
#include "reference/annotate_oracle.hpp"
#include "reference/gsp.hpp"
#include "reference/naive.hpp"
#include "reference/pattern_oracle.hpp"
#include "reference/spade.hpp"
#include "util/civil_time.hpp"
#include "util/rng.hpp"

namespace crowdweb::mining {
namespace {

// ---------------------------------------------------------------- Pattern

TEST(PatternTest, IsSubsequenceBasics) {
  const std::vector<Item> haystack{1, 2, 3, 2, 4};
  EXPECT_TRUE(is_subsequence(std::vector<Item>{}, haystack));
  EXPECT_TRUE(is_subsequence(std::vector<Item>{1}, haystack));
  EXPECT_TRUE(is_subsequence(std::vector<Item>{1, 3, 4}, haystack));
  EXPECT_TRUE(is_subsequence(std::vector<Item>{2, 2}, haystack));
  EXPECT_FALSE(is_subsequence(std::vector<Item>{3, 1}, haystack));  // order matters
  EXPECT_FALSE(is_subsequence(std::vector<Item>{5}, haystack));
  EXPECT_FALSE(is_subsequence(std::vector<Item>{1, 1}, haystack));  // multiplicity matters
  EXPECT_FALSE(is_subsequence(std::vector<Item>{1}, std::vector<Item>{}));
}

TEST(PatternTest, CountSupportCountsSequencesOnce) {
  const SequenceDb db{{1, 2, 1, 2}, {2, 1}, {3}};
  EXPECT_EQ(count_support(std::vector<Item>{1, 2}, db), 1u);  // only first sequence
  EXPECT_EQ(count_support(std::vector<Item>{2}, db), 2u);
  EXPECT_EQ(count_support(std::vector<Item>{3}, db), 1u);
  EXPECT_EQ(count_support(std::vector<Item>{4}, db), 0u);
}

TEST(PatternTest, SortPatternsCanonicalOrder) {
  std::vector<Pattern> patterns{{{2, 1}, 1, 0.5}, {{1}, 2, 1.0}, {{1, 2}, 1, 0.5}, {{2}, 1, 0.5}};
  sort_patterns(patterns);
  ASSERT_EQ(patterns.size(), 4u);
  EXPECT_EQ(patterns[0].items, (std::vector<Item>{1}));
  EXPECT_EQ(patterns[1].items, (std::vector<Item>{2}));
  EXPECT_EQ(patterns[2].items, (std::vector<Item>{1, 2}));
  EXPECT_EQ(patterns[3].items, (std::vector<Item>{2, 1}));
}

// ------------------------------------------------------------- PrefixSpan

TEST(PrefixSpanTest, EmptyDatabase) {
  EXPECT_TRUE(prefixspan(SequenceDb{}, {}).empty());
}

TEST(PrefixSpanTest, TextbookExample) {
  // Classic PrefixSpan paper-style db (single-item elements).
  const SequenceDb db{{1, 2, 3}, {1, 3, 2}, {1, 2, 2}, {4}};
  MiningOptions options;
  options.min_support = 0.5;  // min count 2
  const auto patterns = prefixspan(db, options);

  const auto find = [&](std::vector<Item> items) -> const Pattern* {
    for (const Pattern& p : patterns)
      if (p.items == items) return &p;
    return nullptr;
  };
  ASSERT_NE(find({1}), nullptr);
  EXPECT_EQ(find({1})->support_count, 3u);
  ASSERT_NE(find({2}), nullptr);
  EXPECT_EQ(find({2})->support_count, 3u);
  ASSERT_NE(find({3}), nullptr);
  EXPECT_EQ(find({3})->support_count, 2u);
  ASSERT_NE(find({1, 2}), nullptr);
  EXPECT_EQ(find({1, 2})->support_count, 3u);
  ASSERT_NE(find({1, 3}), nullptr);
  EXPECT_EQ(find({1, 3})->support_count, 2u);
  EXPECT_EQ(find({4}), nullptr);       // support 1 < 2
  EXPECT_EQ(find({2, 3}), nullptr);    // only in sequence 0
  EXPECT_EQ(find({2, 2}), nullptr);    // only in sequence 2
}

TEST(PrefixSpanTest, SupportsAreExact) {
  Rng rng(7);
  SequenceDb db;
  for (int s = 0; s < 40; ++s) {
    std::vector<Item> sequence;
    const int length = static_cast<int>(rng.uniform_int(0, 8));
    for (int i = 0; i < length; ++i)
      sequence.push_back(static_cast<Item>(rng.uniform_int(0, 4)));
    db.push_back(std::move(sequence));
  }
  MiningOptions options;
  options.min_support = 0.2;
  for (const Pattern& pattern : prefixspan(db, options)) {
    EXPECT_EQ(pattern.support_count, count_support(pattern.items, db));
    EXPECT_DOUBLE_EQ(pattern.support,
                     static_cast<double>(pattern.support_count) / static_cast<double>(db.size()));
  }
}

TEST(PrefixSpanTest, MaxLengthCap) {
  const SequenceDb db{{1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}};
  MiningOptions options;
  options.min_support = 1.0;
  options.max_pattern_length = 3;
  const auto patterns = prefixspan(db, options);
  ASSERT_EQ(patterns.size(), 3u);
  EXPECT_EQ(patterns.back().items.size(), 3u);
}

TEST(PrefixSpanTest, MaxPatternsCap) {
  SequenceDb db;
  std::vector<Item> alphabet_sequence;
  for (Item i = 0; i < 12; ++i) alphabet_sequence.push_back(i);
  db.push_back(alphabet_sequence);
  MiningOptions options;
  options.min_support = 1.0;
  options.max_patterns = 50;
  EXPECT_EQ(prefixspan(db, options).size(), 50u);
}

TEST(MinCountTest, MatchesIntegerArithmeticForEveryTwoDecimalSupport) {
  // Read as the decimal a user writes, p/100 of W days needs
  // ceil(p * W / 100) days: no binary rounding may push it up by one.
  for (std::size_t p = 1; p <= 100; ++p) {
    const double support = static_cast<double>(p) / 100.0;
    for (std::size_t weight = 1; weight <= 10'000; ++weight) {
      const std::size_t expected = (p * weight + 99) / 100;
      if (min_count(support, weight) != expected) {
        ADD_FAILURE() << "min_count(" << support << ", " << weight << ") = "
                      << min_count(support, weight) << ", want " << expected;
        return;
      }
    }
  }
  // The defaults and the paper's sweep are dyadic, so there the rule
  // reads what ceil(support x weight) always read: served sets and
  // bodies under them do not move.
  for (const double support : {0.25, 0.375, 0.5, 0.625, 0.75}) {
    for (std::size_t weight = 1; weight <= 10'000; ++weight) {
      ASSERT_EQ(min_count(support, weight),
                static_cast<std::size_t>(std::ceil(support * static_cast<double>(weight))))
          << support << " x " << weight;
    }
  }
  EXPECT_EQ(min_count(0.55, 100), 55u);
  EXPECT_EQ(min_count(0.55, 180), 99u);
  EXPECT_EQ(min_count(0.375, 8), 3u);
  EXPECT_EQ(min_count(1.0, 7), 7u);
  EXPECT_EQ(min_count(1e-30, 1'000), 1u);  // never below one sequence
  EXPECT_EQ(min_count(0.0, 10), 1u);
}

TEST(MinCountTest, PatternOnExactlyTheSupportFractionIsFrequent) {
  // 55 of 100 days hold {1, 2}: at min_support 0.55 it is frequent, for
  // PrefixSpan and every oracle alike.
  SequenceDb db;
  for (int d = 0; d < 100; ++d)
    db.push_back(d < 55 ? std::vector<Item>{1, 2} : std::vector<Item>{3});
  MiningOptions options;
  options.min_support = 0.55;
  const std::vector<Pattern> expected{{{1}, 55, 0.55}, {{2}, 55, 0.55}, {{1, 2}, 55, 0.55}};
  EXPECT_EQ(prefixspan(db, options), expected);
  EXPECT_EQ(gsp(db, options), expected);
  EXPECT_EQ(naive_miner(db, options), expected);
  EXPECT_EQ(spade(db, options), expected);
}

TEST(PrefixSpanTest, AbsoluteCountOverloadMinesAtThatCount) {
  const SequenceDb db{{1, 2}, {1, 2}, {1}, {3}};
  std::vector<Item> items;
  std::vector<std::uint32_t> offsets{0};
  for (const auto& sequence : db) {
    items.insert(items.end(), sequence.begin(), sequence.end());
    offsets.push_back(static_cast<std::uint32_t>(items.size()));
  }
  const SequenceColumns columns{items, offsets};
  MiningOptions half;
  half.min_support = 0.5;
  MiningOptions all;
  all.min_support = 1.0;  // the count overload ignores min_support
  EXPECT_EQ(prefixspan(columns, 2, all), prefixspan(columns, half));
  EXPECT_EQ(prefixspan(columns, 1, all).size(), 4u);  // {1} {2} {3} {1 2}
  EXPECT_EQ(prefixspan(columns, 0, all).size(), 4u);  // 0 means 1
}

TEST(PrefixSpanTest, MinSupportOneRequiresAllSequences) {
  const SequenceDb db{{1, 2}, {1, 3}, {1}};
  MiningOptions options;
  options.min_support = 1.0;
  const auto patterns = prefixspan(db, options);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].items, (std::vector<Item>{1}));
}

// Anti-monotonicity property: raising min_support can only shrink the
// result, and every pattern's own support obeys the threshold.
class SupportSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SupportSweepTest, AntiMonotoneAndThresholded) {
  Rng rng(1234);
  SequenceDb db;
  for (int s = 0; s < 60; ++s) {
    std::vector<Item> sequence;
    const int length = static_cast<int>(rng.uniform_int(1, 7));
    for (int i = 0; i < length; ++i)
      sequence.push_back(static_cast<Item>(rng.uniform_int(0, 5)));
    db.push_back(std::move(sequence));
  }
  const double support = GetParam();
  MiningOptions options;
  options.min_support = support;
  const auto patterns = prefixspan(db, options);
  for (const Pattern& pattern : patterns)
    EXPECT_GE(pattern.support, support - 1e-12);

  // Tighter threshold yields a subset.
  MiningOptions tighter = options;
  tighter.min_support = std::min(1.0, support + 0.15);
  const auto fewer = prefixspan(db, tighter);
  EXPECT_LE(fewer.size(), patterns.size());
  for (const Pattern& pattern : fewer) {
    const bool present = std::any_of(patterns.begin(), patterns.end(),
                                     [&](const Pattern& p) { return p.items == pattern.items; });
    EXPECT_TRUE(present);
  }

  // Every prefix of a frequent pattern is itself frequent (and present).
  for (const Pattern& pattern : patterns) {
    if (pattern.items.size() < 2) continue;
    std::vector<Item> prefix(pattern.items.begin(), pattern.items.end() - 1);
    const bool present = std::any_of(patterns.begin(), patterns.end(),
                                     [&](const Pattern& p) { return p.items == prefix; });
    EXPECT_TRUE(present);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SupportSweepTest,
                         ::testing::Values(0.1, 0.25, 0.375, 0.5, 0.625, 0.75, 0.9));

// ------------------------------------------- Reference miners (oracles)

SequenceDb random_db(Rng& rng, int sequences, int alphabet, int max_length) {
  SequenceDb db;
  for (int s = 0; s < sequences; ++s) {
    std::vector<Item> sequence;
    const int length = static_cast<int>(rng.uniform_int(0, max_length));
    for (int i = 0; i < length; ++i)
      sequence.push_back(static_cast<Item>(rng.uniform_int(0, alphabet - 1)));
    db.push_back(std::move(sequence));
  }
  return db;
}

/// One adapter per test-only reference miner (tests/reference/), so the
/// typed suite below checks every oracle against PrefixSpan the same way.
struct GspOracle {
  static std::vector<Pattern> mine(const SequenceDb& db, const MiningOptions& options,
                                   MiningStats* stats = nullptr) {
    return gsp(db, options, stats);
  }
};

struct SpadeOracle {
  static std::vector<Pattern> mine(const SequenceDb& db, const MiningOptions& options,
                                   MiningStats* stats = nullptr) {
    return spade(db, options, stats);
  }
};

struct NaiveOracle {
  static std::vector<Pattern> mine(const SequenceDb& db, const MiningOptions& options,
                                   MiningStats* stats = nullptr) {
    return naive_miner(db, options, stats);
  }
};

template <typename T>
class ReferenceMinerTest : public ::testing::Test {};

using ReferenceMiners = ::testing::Types<GspOracle, SpadeOracle, NaiveOracle>;
TYPED_TEST_SUITE(ReferenceMinerTest, ReferenceMiners);

TYPED_TEST(ReferenceMinerTest, EmptyDatabase) {
  EXPECT_TRUE(TypeParam::mine({}, {}).empty());
}

TYPED_TEST(ReferenceMinerTest, MatchesPrefixSpanOnTextbookExample) {
  const SequenceDb db{{1, 2, 3}, {1, 3, 2}, {1, 2, 2}, {4}};
  MiningOptions options;
  options.min_support = 0.5;
  EXPECT_EQ(TypeParam::mine(db, options), prefixspan(db, options));
}

TYPED_TEST(ReferenceMinerTest, RepeatedItemsWithinSequence) {
  // A sequence counts once however many embeddings it contains.
  const SequenceDb db{{1, 1, 1}, {1, 1}, {2}};
  MiningOptions options;
  options.min_support = 0.6;  // min count 2
  const auto patterns = TypeParam::mine(db, options);
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns[0].items, (std::vector<Item>{1}));
  EXPECT_EQ(patterns[0].support_count, 2u);
  EXPECT_EQ(patterns[1].items, (std::vector<Item>{1, 1}));
  EXPECT_EQ(patterns[1].support_count, 2u);
  EXPECT_EQ(patterns, prefixspan(db, options));
}

TYPED_TEST(ReferenceMinerTest, RespectsCaps) {
  const SequenceDb db{{1, 1, 1, 1, 1}};
  MiningOptions options;
  options.min_support = 1.0;
  options.max_pattern_length = 2;
  const auto patterns = TypeParam::mine(db, options);
  ASSERT_EQ(patterns.size(), 2u);
  EXPECT_EQ(patterns.back().items.size(), 2u);
  EXPECT_EQ(patterns, prefixspan(db, options));

  // The max_patterns cap truncates and says so.
  Rng rng(7);
  const SequenceDb wide = random_db(rng, 20, 3, 8);
  MiningOptions capped;
  capped.min_support = 0.1;
  MiningStats stats;
  const auto full = TypeParam::mine(wide, capped, &stats);
  ASSERT_GT(full.size(), 3u);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.emitted, full.size());
  capped.max_patterns = 3;
  stats = {};
  EXPECT_LE(TypeParam::mine(wide, capped, &stats).size(), 3u);
  EXPECT_TRUE(stats.truncated);
}

struct MinerCase {
  std::uint64_t seed;
  double min_support;
  int sequences;
  int alphabet;
};

class MinerEquivalenceTest : public ::testing::TestWithParam<MinerCase> {};

TEST_P(MinerEquivalenceTest, PrefixSpanGspNaiveAgree) {
  // Every reference miner agrees with PrefixSpan on seeded random DBs.
  const MinerCase param = GetParam();
  Rng rng(param.seed);
  const SequenceDb db = random_db(rng, param.sequences, param.alphabet, 9);
  MiningOptions options;
  options.min_support = param.min_support;

  const auto expected = prefixspan(db, options);
  EXPECT_EQ(GspOracle::mine(db, options), expected) << "PrefixSpan vs GSP";
  EXPECT_EQ(NaiveOracle::mine(db, options), expected) << "PrefixSpan vs naive";
  EXPECT_EQ(SpadeOracle::mine(db, options), expected) << "PrefixSpan vs SPADE";
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, MinerEquivalenceTest,
    ::testing::Values(MinerCase{1, 0.5, 20, 4}, MinerCase{2, 0.25, 30, 5},
                      MinerCase{3, 0.75, 25, 3}, MinerCase{4, 0.4, 40, 6},
                      MinerCase{5, 0.1, 15, 4}, MinerCase{6, 0.6, 50, 8},
                      MinerCase{7, 0.33, 35, 5}, MinerCase{8, 0.2, 10, 10}));

// ------------------------------------------------------------------ SeqDb

data::Dataset day_pattern_dataset() {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  data::DatasetBuilder builder;
  data::VenueSpec coffee;
  coffee.id = 0;
  coffee.name = "Corner Coffee";
  coffee.category = *tax.find("Coffee Shop");
  coffee.position = {40.71, -74.00};
  EXPECT_TRUE(builder.add_venue(coffee).is_ok());
  data::VenueSpec office;
  office.id = 1;
  office.name = "HQ";
  office.category = *tax.find("Office");
  office.position = {40.75, -73.98};
  EXPECT_TRUE(builder.add_venue(office).is_ok());
  data::VenueSpec thai;
  thai.id = 2;
  thai.name = "Thai Pothong";
  thai.category = *tax.find("Thai Restaurant");
  thai.position = {40.76, -73.99};
  EXPECT_TRUE(builder.add_venue(thai).is_ok());

  const auto add = [&](int day, int hour, int minute, const data::VenueSpec& venue) {
    data::CheckIn c;
    c.user = 1;
    c.venue = venue.id;
    c.category = venue.category;
    c.position = venue.position;
    c.timestamp = to_epoch_seconds({2012, 4, day, hour, minute, 0});
    EXPECT_TRUE(builder.add_checkin(c).is_ok());
  };
  // Day 2: coffee -> office -> thai. Day 3: coffee -> office. Day 5: thai.
  add(2, 8, 30, coffee);
  add(2, 9, 5, office);
  add(2, 12, 20, thai);
  add(3, 8, 40, coffee);
  add(3, 9, 10, office);
  add(5, 12, 30, thai);
  return builder.build();
}

std::vector<Item> day_vec(const UserSequences& sequences, std::size_t d) {
  const auto day = sequences.day(d);
  return {day.begin(), day.end()};
}

TEST(SeqDbTest, RootCategoryAbstraction) {
  const data::Dataset dataset = day_pattern_dataset();
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  const UserSequences sequences = build_user_sequences(dataset, 1, tax);
  ASSERT_EQ(sequences.day_count(), 3u);
  const Item eatery = *tax.find("Eatery");
  const Item professional = *tax.find("Professional & Other Places");
  // Day 2: Eatery(coffee), Professional, Eatery(thai).
  EXPECT_EQ(day_vec(sequences, 0), (std::vector<Item>{eatery, professional, eatery}));
  // Day 3: Eatery, Professional.
  EXPECT_EQ(day_vec(sequences, 1), (std::vector<Item>{eatery, professional}));
  // Day 5: Eatery.
  EXPECT_EQ(day_vec(sequences, 2), (std::vector<Item>{eatery}));
}

TEST(SeqDbTest, MinutesParallelToItems) {
  const data::Dataset dataset = day_pattern_dataset();
  const UserSequences sequences =
      build_user_sequences(dataset, 1, data::Taxonomy::foursquare());
  ASSERT_EQ(sequences.item_minutes.size(), sequences.items.size());
  for (std::size_t d = 0; d < sequences.day_count(); ++d)
    ASSERT_EQ(sequences.minutes_of(d).size(), sequences.day(d).size());
  EXPECT_EQ(sequences.minutes_of(0)[0], 8 * 60 + 30);
  EXPECT_EQ(sequences.minutes_of(0)[1], 9 * 60 + 5);
}

TEST(SeqDbTest, VenueModeKeepsDistinctVenues) {
  const data::Dataset dataset = day_pattern_dataset();
  SequenceOptions options;
  options.mode = LabelMode::kVenue;
  const UserSequences sequences =
      build_user_sequences(dataset, 1, data::Taxonomy::foursquare(), options);
  EXPECT_EQ(day_vec(sequences, 0), (std::vector<Item>{0, 1, 2}));
}

TEST(SeqDbTest, LeafModeKeepsVenueTypes) {
  const data::Dataset dataset = day_pattern_dataset();
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  SequenceOptions options;
  options.mode = LabelMode::kLeafCategory;
  const UserSequences sequences = build_user_sequences(dataset, 1, tax, options);
  EXPECT_EQ(sequences.day(0)[0], *tax.find("Coffee Shop"));
  EXPECT_EQ(sequences.day(0)[2], *tax.find("Thai Restaurant"));
}

TEST(SeqDbTest, CollapseRepeats) {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  data::DatasetBuilder builder;
  data::VenueSpec a;
  a.id = 0;
  a.name = "A";
  a.category = *tax.find("Coffee Shop");
  a.position = {40.7, -74.0};
  ASSERT_TRUE(builder.add_venue(a).is_ok());
  data::VenueSpec b = a;
  b.id = 1;
  b.name = "B";
  b.category = *tax.find("Pizza Place");
  ASSERT_TRUE(builder.add_venue(b).is_ok());
  // Two eateries back to back on the same day.
  for (int i = 0; i < 2; ++i) {
    data::CheckIn c;
    c.user = 1;
    c.venue = static_cast<data::VenueId>(i);
    c.category = i == 0 ? a.category : b.category;
    c.position = a.position;
    c.timestamp = to_epoch_seconds({2012, 4, 2, 12, i * 10, 0});
    ASSERT_TRUE(builder.add_checkin(c).is_ok());
  }
  const data::Dataset dataset = builder.build();
  const UserSequences collapsed = build_user_sequences(dataset, 1, tax);
  EXPECT_EQ(collapsed.day(0).size(), 1u);  // Eatery,Eatery -> Eatery
  SequenceOptions keep;
  keep.collapse_repeats = false;
  const UserSequences raw = build_user_sequences(dataset, 1, tax, keep);
  EXPECT_EQ(raw.day(0).size(), 2u);
}

TEST(SeqDbTest, MinDayLengthDropsShortDays) {
  const data::Dataset dataset = day_pattern_dataset();
  SequenceOptions options;
  options.min_day_length = 2;
  const UserSequences sequences =
      build_user_sequences(dataset, 1, data::Taxonomy::foursquare(), options);
  EXPECT_EQ(sequences.day_count(), 2u);  // the single-visit day is dropped
}

TEST(SeqDbTest, UnknownUserYieldsEmpty) {
  const data::Dataset dataset = day_pattern_dataset();
  const UserSequences sequences =
      build_user_sequences(dataset, 42, data::Taxonomy::foursquare());
  EXPECT_TRUE(sequences.empty());
}

TEST(SeqDbTest, BuildAllCoversEveryUser) {
  const data::Dataset dataset = day_pattern_dataset();
  const auto all = build_all_sequences(dataset, data::Taxonomy::foursquare());
  ASSERT_EQ(all.size(), dataset.user_count());
  EXPECT_EQ(all[0].user, dataset.users()[0]);
}

TEST(SeqDbTest, LabelNames) {
  const data::Dataset dataset = day_pattern_dataset();
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  EXPECT_EQ(label_name(*tax.find("Eatery"), LabelMode::kRootCategory, tax, dataset), "Eatery");
  EXPECT_EQ(label_name(2, LabelMode::kVenue, tax, dataset), "Thai Pothong");
  EXPECT_EQ(label_name(9999, LabelMode::kVenue, tax, dataset), "venue#9999");
  EXPECT_EQ(label_name(60000, LabelMode::kRootCategory, tax, dataset), "category#60000");
}

// The paper's motivating scenario: the Thai-lunch pattern is invisible at
// venue granularity but detected after location abstraction.
TEST(SeqDbTest, LocationAbstractionRecoversFlexiblePatterns) {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  data::DatasetBuilder builder;
  // Three different Thai restaurants.
  for (int i = 0; i < 3; ++i) {
    data::VenueSpec v;
    v.id = static_cast<data::VenueId>(i);
    v.name = "Thai " + std::to_string(i);
    v.category = *tax.find("Thai Restaurant");
    v.position = {40.7 + 0.01 * i, -74.0};
    ASSERT_TRUE(builder.add_venue(v).is_ok());
  }
  // Lunch at a different venue each day, three days.
  for (int day = 2; day <= 4; ++day) {
    data::CheckIn c;
    c.user = 1;
    c.venue = static_cast<data::VenueId>(day - 2);
    c.category = *tax.find("Thai Restaurant");
    c.position = {40.7 + 0.01 * (day - 2), -74.0};
    c.timestamp = to_epoch_seconds({2012, 4, day, 12, 30, 0});
    ASSERT_TRUE(builder.add_checkin(c).is_ok());
  }
  const data::Dataset dataset = builder.build();

  MiningOptions mining;
  mining.min_support = 0.9;  // must appear on ~every day

  SequenceOptions venue_mode;
  venue_mode.mode = LabelMode::kVenue;
  const auto raw = build_user_sequences(dataset, 1, tax, venue_mode);
  EXPECT_TRUE(prefixspan(raw.columns(), mining).empty());  // no venue repeats

  const auto abstracted = build_user_sequences(dataset, 1, tax);  // root mode
  const auto patterns = prefixspan(abstracted.columns(), mining);
  ASSERT_EQ(patterns.size(), 1u);  // "Eatery" every day
  EXPECT_EQ(patterns[0].items, (std::vector<Item>{*tax.find("Eatery")}));
  EXPECT_EQ(patterns[0].support_count, 3u);
}

// ------------------------------------------------------------ MiningStats

TEST(MiningStatsTest, TruncationFlagTracksMaxPatternsCap) {
  Rng rng(7);
  const SequenceDb db = random_db(rng, 20, 3, 8);
  MiningOptions options;
  options.min_support = 0.1;
  MiningStats stats;
  const auto full = prefixspan(db, options, &stats);
  ASSERT_GT(full.size(), 3u);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.emitted, full.size());

  options.max_patterns = 3;
  MiningStats capped_stats;
  const auto capped = prefixspan(db, options, &capped_stats);
  EXPECT_LE(capped.size(), 3u);
  EXPECT_TRUE(capped_stats.truncated);
}

TEST(MiningStatsTest, MergeAccumulates) {
  MiningStats a{10, 5, false};
  const MiningStats b{1, 2, true};
  a.merge(b);
  EXPECT_EQ(a.emitted, 11u);
  EXPECT_EQ(a.explored, 7u);
  EXPECT_TRUE(a.truncated);
}

// ------------------------------------------- Weighted day shapes (miners)

/// A user history with heavy duplication: `days` days drawn (skewed
/// toward the first) from a pool of `shapes` random label sequences,
/// with random minutes, appended through the shape index.
UserSequences duplicated_history(Rng& rng, int days, int shapes, int alphabet,
                                 int max_length) {
  const SequenceDb pool = random_db(rng, shapes, alphabet, max_length);
  UserSequences out;
  std::vector<int> minutes;
  for (int d = 0; d < days; ++d) {
    const int a = static_cast<int>(rng.uniform_int(0, shapes - 1));
    const int b = static_cast<int>(rng.uniform_int(0, shapes - 1));
    const std::vector<Item>& day = pool[static_cast<std::size_t>(std::min(a, b))];
    minutes.clear();
    for (std::size_t i = 0; i < day.size(); ++i)
      minutes.push_back(static_cast<int>(rng.uniform_int(0, 24 * 60 - 1)));
    out.append_day(day, minutes);
  }
  return out;
}

/// The same history as unweighted per-day columns.
SequenceColumns per_day_columns(const UserSequences& sequences) {
  return {sequences.items, sequences.day_offsets};
}

/// PrefixSpan over the weighted shapes and over the expanded days must
/// agree on everything it reports.
void expect_weighted_equals_per_day(const UserSequences& sequences,
                                    const MiningOptions& options, const std::string& where) {
  MiningStats weighted_stats;
  MiningStats per_day_stats;
  const auto weighted = prefixspan(sequences.columns(), options, &weighted_stats);
  const auto per_day = prefixspan(per_day_columns(sequences), options, &per_day_stats);
  EXPECT_EQ(weighted, per_day) << where;
  for (std::size_t i = 0; i < std::min(weighted.size(), per_day.size()); ++i)
    EXPECT_TRUE(weighted[i].support == per_day[i].support) << where;
  EXPECT_EQ(weighted_stats.emitted, per_day_stats.emitted) << where;
  EXPECT_EQ(weighted_stats.explored, per_day_stats.explored) << where;
  EXPECT_EQ(weighted_stats.truncated, per_day_stats.truncated) << where;
}

TEST(WeightedMiningTest, ShapeIndexHoldsDistinctDaysInFirstSeenOrder) {
  UserSequences sequences;
  const std::vector<Item> a{1, 2, 3};
  const std::vector<Item> b{2, 1};
  sequences.append_day(a, std::vector<int>{60, 120, 180});
  sequences.append_day(b, std::vector<int>{10, 20});
  sequences.append_day(a, std::vector<int>{70, 130, 190});
  sequences.append_day(a, std::vector<int>{80, 140, 200});
  ASSERT_EQ(sequences.day_count(), 4u);
  const DayShapes& shapes = sequences.shapes;
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(std::vector<Item>(shapes.shape(0).begin(), shapes.shape(0).end()), a);
  EXPECT_EQ(std::vector<Item>(shapes.shape(1).begin(), shapes.shape(1).end()), b);
  EXPECT_EQ(shapes.days, (std::vector<std::uint32_t>{3, 1}));
  EXPECT_EQ(shapes.minute_sum, (std::vector<double>{210, 390, 570, 10, 20}));
  EXPECT_EQ(shapes.minute_sq_sum[0], 60.0 * 60 + 70.0 * 70 + 80.0 * 80);
  EXPECT_EQ(sequences.columns().total_weight(), 4u);
}

TEST(WeightedMiningTest, ShapeIndexSurvivesTableGrowth) {
  // Far more distinct shapes than the table's first size, each seen
  // twice, so every rehash must keep earlier shapes findable.
  UserSequences sequences;
  for (int round = 0; round < 2; ++round)
    for (Item i = 0; i < 500; ++i)
      sequences.append_day(std::vector<Item>{i, i + 1}, std::vector<int>{0, 1});
  ASSERT_EQ(sequences.shapes.size(), 500u);
  for (const std::uint32_t days : sequences.shapes.days) EXPECT_EQ(days, 2u);
}

TEST(WeightedMiningTest, ShapeColumnsMineLikeTheExpandedDays) {
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const UserSequences sequences = duplicated_history(
        rng, 20 + trial * 3, 2 + trial % 7, 3 + trial % 4, 3 + trial % 6);
    ASSERT_LT(sequences.shapes.size(), sequences.day_count());
    MiningOptions options;
    options.min_support = 0.05 + 0.15 * static_cast<double>(trial % 6);
    expect_weighted_equals_per_day(sequences, options,
                                   "trial " + std::to_string(trial));
  }
}

TEST(WeightedMiningTest, TruncationPointMatchesAtSmallCaps) {
  Rng rng(808);
  for (int trial = 0; trial < 20; ++trial) {
    const UserSequences sequences = duplicated_history(rng, 40, 4, 4, 7);
    MiningOptions options;
    options.min_support = 0.1;
    options.max_patterns = 1 + static_cast<std::size_t>(trial);
    expect_weighted_equals_per_day(sequences, options, "cap " + std::to_string(trial));
  }
}

TEST(WeightedMiningTest, EmptyDatabase) {
  const UserSequences empty;
  EXPECT_TRUE(empty.columns().empty());
  EXPECT_EQ(empty.columns().total_weight(), 0u);
  expect_weighted_equals_per_day(empty, MiningOptions{}, "empty");
}

TEST(WeightedMiningTest, AllIdenticalDays) {
  UserSequences sequences;
  const std::vector<Item> day{4, 1, 4, 2};
  for (int d = 0; d < 30; ++d) sequences.append_day(day, std::vector<int>{1, 2, 3, 4});
  ASSERT_EQ(sequences.shapes.size(), 1u);
  EXPECT_EQ(sequences.shapes.days[0], 30u);
  MiningOptions options;
  options.min_support = 0.5;
  expect_weighted_equals_per_day(sequences, options, "identical");
  for (const Pattern& pattern : prefixspan(sequences.columns(), options)) {
    EXPECT_EQ(pattern.support_count, 30u);
    EXPECT_EQ(pattern.support, 1.0);
  }
}

TEST(WeightedMiningTest, MinSupportOne) {
  Rng rng(1001);
  for (int trial = 0; trial < 10; ++trial) {
    UserSequences sequences = duplicated_history(rng, 25, 3, 3, 6);
    // A shared tail element makes some pattern frequent at support 1.
    UserSequences tailed;
    for (std::size_t d = 0; d < sequences.day_count(); ++d) {
      std::vector<Item> day(sequences.day(d).begin(), sequences.day(d).end());
      std::vector<int> minutes(sequences.minutes_of(d).begin(),
                               sequences.minutes_of(d).end());
      day.push_back(7);
      minutes.push_back(1439);
      tailed.append_day(day, minutes);
    }
    MiningOptions options;
    options.min_support = 1.0;
    expect_weighted_equals_per_day(tailed, options, "tailed " + std::to_string(trial));
    EXPECT_FALSE(prefixspan(tailed.columns(), options).empty());
  }
}

// ------------------------------------ Kept history index (appended days)

void expect_shapes_identical(const DayShapes& actual, const DayShapes& expected,
                             const std::string& where) {
  EXPECT_EQ(actual.items, expected.items) << where;
  EXPECT_EQ(actual.offsets, expected.offsets) << where;
  EXPECT_EQ(actual.days, expected.days) << where;
  ASSERT_EQ(actual.minute_sum.size(), expected.minute_sum.size()) << where;
  ASSERT_EQ(actual.minute_sq_sum.size(), expected.minute_sq_sum.size()) << where;
  for (std::size_t i = 0; i < actual.minute_sum.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.minute_sum[i]),
              std::bit_cast<std::uint64_t>(expected.minute_sum[i]))
        << where << " sum " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.minute_sq_sum[i]),
              std::bit_cast<std::uint64_t>(expected.minute_sq_sum[i]))
        << where << " squares " << i;
  }
}

TEST(HistoryIndexTest, RemoveLastUndoesAddAcrossTableGrowth) {
  // Nine distinct shapes: the ninth add grows the 16-slot table, and
  // taking it back out must leave the eight-shape index, still findable.
  DayShapes eight;
  DayShapes nine;
  for (Item i = 0; i < 8; ++i) {
    const std::vector<Item> day{i, i + 100};
    const std::vector<int> minutes{static_cast<int>(i), 600};
    eight.add(day, minutes);
    nine.add(day, minutes);
  }
  const std::vector<Item> newest{7, 7, 7};
  const std::vector<int> newest_minutes{1, 2, 3};
  nine.add(newest, newest_minutes);
  ASSERT_EQ(nine.size(), 9u);
  nine.remove_last(newest, newest_minutes);
  expect_shapes_identical(nine, eight, "popped");
  for (Item i = 0; i < 8; ++i) {
    const std::vector<Item> day{i, i + 100};
    nine.add(day, std::vector<int>{5, 5});
    eight.add(day, std::vector<int>{5, 5});
  }
  expect_shapes_identical(nine, eight, "refound");
  ASSERT_EQ(nine.size(), 8u);

  // A repeated shape only loses weight and minutes.
  nine.add(std::vector<Item>{0, 100}, std::vector<int>{9, 9});
  nine.remove_last(std::vector<Item>{0, 100}, std::vector<int>{9, 9});
  expect_shapes_identical(nine, eight, "repeat");

  // Popping the only shape leaves an empty index.
  DayShapes one;
  one.add(newest, newest_minutes);
  one.remove_last(newest, newest_minutes);
  expect_shapes_identical(one, DayShapes{}, "emptied");
}

/// A user's history grown chunk by chunk through the dataset's
/// incremental merge, as epochs grow it: same-day appends, new days,
/// equal timestamps, and now and then a record at or before the last
/// one filed.
class GrowingHistory {
 public:
  static constexpr data::UserId kUser = 3;

  /// Check-ins land on `venues` venues (one category each); with
  /// `drift`, each record's venue is drawn from a window of four that
  /// moves up by one every 12 records, so labels and the patterns over
  /// them keep appearing as the history grows.
  explicit GrowingHistory(std::uint64_t seed, int venues = 4, bool drift = false)
      : rng_(seed), venues_(venues), drift_(drift) {
    data::DatasetBuilder builder;
    for (int v = 0; v < venues_; ++v) {
      data::VenueSpec venue;
      venue.id = static_cast<data::VenueId>(v);
      venue.name = "venue-" + std::to_string(v);
      venue.category = static_cast<data::CategoryId>(v);
      venue.position = {40.70 + 0.01 * v, -74.00};
      EXPECT_TRUE(builder.add_venue(venue).is_ok());
    }
    dataset_ = builder.build();
  }

  /// Merges 1-4 new records and returns the user's column.
  data::Dataset::UserColumns grow(bool allow_earlier) {
    data::DatasetBuilder builder(dataset_);
    const int count = static_cast<int>(rng_.uniform_int(1, 4));
    for (int k = 0; k < count; ++k) {
      const double roll = rng_.uniform();
      std::int64_t timestamp = 0;
      if (allow_earlier && k == 0 && roll < 0.08) {
        timestamp = last_ - rng_.uniform_int(0, 2 * 86'400);  // forces a refile
      } else if (roll < 0.2) {
        timestamp = last_;  // equal timestamps
      } else if (roll < 0.75) {
        timestamp = last_ + rng_.uniform_int(1, 4 * 3'600);  // mostly the same day
      } else {
        timestamp = last_ + rng_.uniform_int(1, 3) * 86'400;  // a later day
      }
      last_ = std::max(last_, timestamp);
      data::CheckIn checkin;
      checkin.user = kUser;
      const int low = drift_ ? static_cast<int>(records_ / 12) % (venues_ - 3) : 0;
      checkin.venue = static_cast<data::VenueId>(
          rng_.uniform_int(low, drift_ ? low + 3 : venues_ - 1));
      ++records_;
      checkin.category = static_cast<data::CategoryId>(checkin.venue);
      checkin.position = {40.70 + 0.01 * checkin.venue, -74.00};
      checkin.timestamp = timestamp;
      EXPECT_TRUE(builder.add_checkin(checkin).is_ok());
    }
    dataset_ = builder.build();
    return dataset_.checkins_for(kUser);
  }

  [[nodiscard]] const data::Dataset& dataset() const noexcept { return dataset_; }

 private:
  Rng rng_;
  int venues_ = 4;
  bool drift_ = false;
  std::size_t records_ = 0;
  data::Dataset dataset_;
  std::int64_t last_ = 40 * 86'400 + 7 * 3'600;
};

TEST(HistoryIndexTest, AppendedChunksEqualFromScratchBuilds) {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  std::size_t appended = 0;
  std::size_t refiled = 0;
  for (int trial = 0; trial < 36; ++trial) {
    SequenceOptions options;
    options.mode = LabelMode::kVenue;
    options.collapse_repeats = trial % 2 == 0;
    options.min_day_length = 1 + static_cast<std::size_t>(trial / 2 % 3);
    GrowingHistory history(7'000 + static_cast<std::uint64_t>(trial));
    HistoryIndex kept(options);
    for (int chunk = 0; chunk < 40; ++chunk) {
      const std::string where = "trial " + std::to_string(trial) + " chunk " +
                                std::to_string(chunk);
      const data::Dataset::UserColumns records = history.grow(/*allow_earlier=*/chunk > 0);
      const std::size_t from = kept.resume_point(records);
      ++(from > 0 ? appended : refiled);
      kept.extend(records, from, tax);
      EXPECT_EQ(kept.filed_records(), records.size()) << where;

      HistoryIndex scratch(options);
      scratch.extend(records, 0, tax);
      const UserSequences days =
          build_user_sequences(history.dataset(), GrowingHistory::kUser, tax, options);
      expect_shapes_identical(kept.shapes(), scratch.shapes(), where + " (index)");
      expect_shapes_identical(kept.shapes(), days.shapes, where + " (per-day build)");
      EXPECT_EQ(kept.day_count(), days.day_count()) << where;
      EXPECT_EQ(scratch.day_count(), days.day_count()) << where;

      patterns::MobilityOptions mobility;
      mobility.sequences = options;
      mobility.mining.min_support = 0.3;
      EXPECT_TRUE(patterns::mine_user_mobility(GrowingHistory::kUser, kept.shapes(),
                                               kept.day_count(), mobility) ==
                  patterns::mine_user_mobility(history.dataset(), GrowingHistory::kUser,
                                               tax, mobility))
          << where;
    }
  }
  // Both paths ran: first touches and earlier records refile, the rest
  // append.
  EXPECT_GT(refiled, 36u);
  EXPECT_GT(appended, refiled);
}

TEST(HistoryIndexTest, OnlyLaterRecordsResumeTheIndex) {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  GrowingHistory history(11);
  HistoryIndex kept;
  const data::Dataset::UserColumns first = history.grow(false);
  EXPECT_EQ(kept.resume_point(first), 0u);  // nothing filed yet
  kept.extend(first, 0, tax);
  EXPECT_EQ(kept.resume_point(first), first.size());  // nothing new

  // A record at the last filed timestamp sorts after the filed ones,
  // but only strictly later records resume.
  data::DatasetBuilder builder(history.dataset());
  data::CheckIn tie = first[first.size() - 1];
  ASSERT_TRUE(builder.add_checkin(tie).is_ok());
  const data::Dataset tied = builder.build();
  EXPECT_EQ(kept.resume_point(tied.checkins_for(GrowingHistory::kUser)), 0u);

  data::DatasetBuilder later_builder(history.dataset());
  data::CheckIn later = tie;
  later.timestamp += 1;
  ASSERT_TRUE(later_builder.add_checkin(later).is_ok());
  const data::Dataset extended = later_builder.build();
  EXPECT_EQ(kept.resume_point(extended.checkins_for(GrowingHistory::kUser)), first.size());
}

// ------------------------------------ Kept pattern set (counted re-mining)

/// Extends `kept` by the user's grown column and serves it through the
/// kept path; the entry must equal a from-scratch mine, bit for bit.
/// Returns the entry and sets `*counted` to whether it was counted.
patterns::UserMobility expect_kept_entry_equals_scratch(
    HistoryIndex& kept, const GrowingHistory& history, const data::Dataset::UserColumns& records,
    const patterns::MobilityOptions& options, const std::string& where, bool* counted) {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  kept.extend(records, kept.resume_point(records), tax);
  patterns::UserMobility entry =
      patterns::mine_user_mobility(GrowingHistory::kUser, kept, options, counted);
  const patterns::UserMobility scratch =
      patterns::mine_user_mobility(history.dataset(), GrowingHistory::kUser, tax, options);
  EXPECT_EQ(patterns::entry_difference(entry, scratch), "") << where;
  if (*counted) {
    EXPECT_EQ(entry.mining_stats.explored, 0u) << where;
  }
  return entry;
}

TEST(KeptPatternsTest, CountedEntriesEqualFromScratchMinesEveryEpoch) {
  // Histories grown chunk by chunk through the incremental merge (same-
  // day appends reopen the open day, equal and earlier timestamps
  // refile), from the first record on: young users' floors clamp at 1.
  const std::vector<double> supports{0.1, 0.25, 0.5, 0.55, 0.75, 1.0};
  std::size_t counted = 0;
  std::size_t mined = 0;
  std::uint64_t seed = 9'100;
  for (const double support : supports) {
    for (const bool collapse : {true, false}) {
      for (std::size_t min_day_length = 1; min_day_length <= 3; ++min_day_length) {
        for (const bool drift : {false, true}) {
          patterns::MobilityOptions options;
          options.sequences.mode = LabelMode::kVenue;
          options.sequences.collapse_repeats = collapse;
          options.sequences.min_day_length = min_day_length;
          options.mining.min_support = support;
          GrowingHistory history(++seed, drift ? 9 : 4, drift);
          HistoryIndex kept(options.sequences);
          for (int chunk = 0; chunk < 90; ++chunk) {
            const std::string where = "support " + std::to_string(support) + " collapse " +
                                      std::to_string(collapse) + " min_day_length " +
                                      std::to_string(min_day_length) + " seed " +
                                      std::to_string(seed) + " chunk " + std::to_string(chunk);
            const data::Dataset::UserColumns records = history.grow(chunk > 0);
            bool by_count = false;
            (void)expect_kept_entry_equals_scratch(kept, history, records, options, where,
                                                   &by_count);
            ++(by_count ? counted : mined);
          }
        }
      }
    }
  }
  // Both paths ran, and counting served most epochs.
  EXPECT_GT(mined, 0u);
  EXPECT_GT(counted, mined);
}

TEST(KeptPatternsTest, TinyMaxPatternsFallsBackToTheMineAtTheThreshold) {
  // A floor mine cut short by max_patterns keeps nothing: the entry is
  // today's (truncated) mine at the threshold.
  std::size_t truncated = 0;
  for (const std::size_t cap : {1u, 2u, 3u, 5u, 8u}) {
    patterns::MobilityOptions options;
    options.sequences.mode = LabelMode::kVenue;
    options.mining.min_support = 0.5;
    options.mining.max_patterns = cap;
    GrowingHistory history(9'300 + cap, 6, true);
    HistoryIndex kept(options.sequences);
    for (int chunk = 0; chunk < 60; ++chunk) {
      const std::string where = "cap " + std::to_string(cap) + " chunk " + std::to_string(chunk);
      const data::Dataset::UserColumns records = history.grow(chunk > 0);
      bool counted = false;
      const patterns::UserMobility entry =
          expect_kept_entry_equals_scratch(kept, history, records, options, where, &counted);
      if (entry.mining_stats.truncated) {
        ++truncated;
        EXPECT_FALSE(counted) << where;
        EXPECT_FALSE(kept.kept().valid()) << where;
      }
    }
  }
  EXPECT_GT(truncated, 0u);
}

/// One user, one check-in a day at venue 0, days [first, first + count).
data::Dataset routine_days(const data::Dataset& base, std::int64_t first, std::int64_t count) {
  data::DatasetBuilder builder(base);
  if (base.venue_count() == 0) {
    data::VenueSpec venue;
    venue.id = 0;
    venue.name = "venue-0";
    venue.category = 0;
    venue.position = {40.70, -74.00};
    EXPECT_TRUE(builder.add_venue(venue).is_ok());
  }
  for (std::int64_t day = first; day < first + count; ++day) {
    data::CheckIn checkin;
    checkin.user = 1;
    checkin.venue = 0;
    checkin.category = 0;
    checkin.position = {40.70, -74.00};
    checkin.timestamp = day * 86'400 + 9 * 3'600;
    EXPECT_TRUE(builder.add_checkin(checkin).is_ok());
  }
  return builder.build();
}

TEST(KeptPatternsTest, FullMineOnlyOnceTheBufferIsSpent) {
  // Identical days at min_support 0.5. A full mine over W days keeps the
  // floor f = ceil(W / 2) - 8; after A more days the counts serve while
  // A + f <= ceil((W + A) / 2): 17 days after a mine over 20 days (f =
  // 2), and again 17 days after the one over 38 (f = 11).
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  patterns::MobilityOptions options;
  options.mining.min_support = 0.5;
  data::Dataset dataset = routine_days(data::Dataset{}, 100, 20);
  HistoryIndex kept(options.sequences);
  kept.extend(dataset.checkins_for(1), 0, tax);
  bool counted = true;
  (void)patterns::mine_user_mobility(1, kept, options, &counted);
  EXPECT_FALSE(counted);  // first touch
  EXPECT_EQ(kept.kept().floor(), 2u);
  for (std::size_t days = 21; days <= 57; ++days) {
    dataset = routine_days(dataset, 100 + static_cast<std::int64_t>(days) - 1, 1);
    const data::Dataset::UserColumns records = dataset.checkins_for(1);
    ASSERT_EQ(kept.resume_point(records), records.size() - 1);
    kept.extend(records, kept.resume_point(records), tax);
    ASSERT_EQ(kept.day_count(), days);
    const patterns::UserMobility entry = patterns::mine_user_mobility(1, kept, options, &counted);
    EXPECT_EQ(counted, days != 38 && days != 56) << days << " days";
    EXPECT_EQ(patterns::entry_difference(entry, patterns::mine_user_mobility(dataset, 1, tax,
                                                                             options)),
              "")
        << days << " days";
    if (days == 38) {
      EXPECT_EQ(kept.kept().floor(), 11u);
    }
  }

  // A record not later than the last filed one refiles and drops the set.
  data::DatasetBuilder builder(dataset);
  data::CheckIn tie = dataset.checkins_for(1)[0];
  ASSERT_TRUE(builder.add_checkin(tie).is_ok());
  dataset = builder.build();
  ASSERT_EQ(kept.resume_point(dataset.checkins_for(1)), 0u);
  kept.extend(dataset.checkins_for(1), 0, tax);
  EXPECT_FALSE(kept.kept().valid());
  (void)patterns::mine_user_mobility(1, kept, options, &counted);
  EXPECT_FALSE(counted);
  EXPECT_TRUE(kept.kept().valid());
}

TEST(KeptPatternsTest, KeptSetIsCountedInTheIndexBytes) {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  const data::Dataset dataset = routine_days(data::Dataset{}, 100, 20);
  HistoryIndex kept;
  kept.extend(dataset.checkins_for(1), 0, tax);
  const std::size_t before = kept.resident_bytes();
  (void)patterns::mine_user_mobility(1, kept, patterns::MobilityOptions{});
  ASSERT_EQ(kept.kept().size(), 1u);
  EXPECT_EQ(kept.resident_bytes(), before + kept.kept().resident_bytes());
  EXPECT_GT(kept.kept().resident_bytes(), 0u);
}

}  // namespace
}  // namespace crowdweb::mining
