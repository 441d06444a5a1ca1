#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/categories.hpp"
#include "data/csv.hpp"
#include "data/dataset.hpp"
#include "data/dataset_io.hpp"
#include "reference/load_oracle.hpp"
#include "util/civil_time.hpp"
#include "util/rng.hpp"

namespace crowdweb::data {
namespace {

// ------------------------------------------------------------- Taxonomy

TEST(TaxonomyTest, FoursquareHasNineRoots) {
  const Taxonomy& tax = Taxonomy::foursquare();
  EXPECT_EQ(tax.roots().size(), 9u);
  EXPECT_GT(tax.size(), 60u);  // roots + leaves
}

TEST(TaxonomyTest, PaperCategoriesExist) {
  const Taxonomy& tax = Taxonomy::foursquare();
  // The labels the paper uses verbatim.
  for (const std::string_view name :
       {"Eatery", "Shop & Service", "Residence", "Thai Restaurant"}) {
    EXPECT_TRUE(tax.find(name).has_value()) << name;
  }
}

TEST(TaxonomyTest, RootOfLeafIsItsParent) {
  const Taxonomy& tax = Taxonomy::foursquare();
  const auto thai = tax.find("Thai Restaurant");
  const auto eatery = tax.find("Eatery");
  ASSERT_TRUE(thai && eatery);
  EXPECT_EQ(tax.root_of(*thai), *eatery);
  EXPECT_EQ(tax.root_of(*eatery), *eatery);  // roots map to themselves
}

TEST(TaxonomyTest, ChildrenBelongToRoot) {
  const Taxonomy& tax = Taxonomy::foursquare();
  for (const CategoryId root : tax.roots()) {
    EXPECT_FALSE(tax.children(root).empty());
    for (const CategoryId child : tax.children(root)) {
      EXPECT_EQ(tax.category(child).parent, root);
      EXPECT_EQ(tax.root_of(child), root);
    }
  }
}

TEST(TaxonomyTest, FindUnknownReturnsNullopt) {
  EXPECT_FALSE(Taxonomy::foursquare().find("Space Elevator").has_value());
}

TEST(TaxonomyTest, CreateValidation) {
  // Non-dense ids.
  EXPECT_FALSE(Taxonomy::create({{5, "X", kNoCategory}}).is_ok());
  // Parent referencing a later entry.
  EXPECT_FALSE(Taxonomy::create({{0, "Leaf", 1}, {1, "Root", kNoCategory}}).is_ok());
  // Three-level nesting is rejected.
  EXPECT_FALSE(
      Taxonomy::create({{0, "Root", kNoCategory}, {1, "Mid", 0}, {2, "Deep", 1}}).is_ok());
  // Empty names are rejected.
  EXPECT_FALSE(Taxonomy::create({{0, "", kNoCategory}}).is_ok());
  // A valid two-level tree works.
  const auto tax = Taxonomy::create({{0, "Root", kNoCategory}, {1, "Leaf", 0}});
  ASSERT_TRUE(tax.is_ok());
  EXPECT_EQ(tax->roots().size(), 1u);
  EXPECT_EQ(tax->children(0).size(), 1u);
}

// -------------------------------------------------------- DatasetBuilder

VenueSpec make_venue(VenueId id, CategoryId category, double lat = 40.7,
                     double lon = -74.0) {
  VenueSpec v;
  v.id = id;
  v.name = "venue " + std::to_string(id);
  v.category = category;
  v.position = {lat, lon};
  return v;
}

CheckIn make_checkin(UserId user, VenueId venue, CategoryId category, std::int64_t t,
                     double lat = 40.7, double lon = -74.0) {
  CheckIn c;
  c.user = user;
  c.venue = venue;
  c.category = category;
  c.position = {lat, lon};
  c.timestamp = t;
  return c;
}

CategoryId thai() { return *Taxonomy::foursquare().find("Thai Restaurant"); }
CategoryId office() { return *Taxonomy::foursquare().find("Office"); }

TEST(DatasetBuilderTest, RejectsNonDenseVenueIds) {
  DatasetBuilder builder;
  EXPECT_FALSE(builder.add_venue(make_venue(3, thai())).is_ok());
  EXPECT_TRUE(builder.add_venue(make_venue(0, thai())).is_ok());
  EXPECT_FALSE(builder.add_venue(make_venue(0, thai())).is_ok());  // duplicate
}

TEST(DatasetBuilderTest, RejectsBadVenues) {
  DatasetBuilder builder;
  EXPECT_FALSE(builder.add_venue(make_venue(0, thai(), 95.0, 0.0)).is_ok());  // bad lat
  VenueSpec no_category = make_venue(0, thai());
  no_category.category = kNoCategory;
  EXPECT_FALSE(builder.add_venue(no_category).is_ok());
}

TEST(DatasetBuilderTest, RejectsBadCheckins) {
  DatasetBuilder builder;
  ASSERT_TRUE(builder.add_venue(make_venue(0, thai())).is_ok());
  EXPECT_FALSE(builder.add_checkin(make_checkin(1, 7, thai(), 1000)).is_ok());  // no venue
  EXPECT_FALSE(builder.add_checkin(make_checkin(1, 0, office(), 1000)).is_ok());  // wrong cat
  EXPECT_FALSE(
      builder.add_checkin(make_checkin(1, 0, thai(), 1000, 99.0, 0.0)).is_ok());  // bad pos
  EXPECT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), 1000)).is_ok());
}

// ---------------------------------------------------------------- Dataset

Dataset two_user_dataset() {
  DatasetBuilder builder;
  EXPECT_TRUE(builder.add_venue(make_venue(0, thai(), 40.70, -74.00)).is_ok());
  EXPECT_TRUE(builder.add_venue(make_venue(1, office(), 40.75, -73.98)).is_ok());
  const std::int64_t day1 = to_epoch_seconds({2012, 4, 2, 9, 0, 0});
  const std::int64_t day2 = to_epoch_seconds({2012, 4, 3, 9, 0, 0});
  // User 5: 3 records over 2 days; user 9: 1 record.
  EXPECT_TRUE(builder.add_checkin(make_checkin(5, 1, office(), day1)).is_ok());
  EXPECT_TRUE(builder.add_checkin(make_checkin(5, 0, thai(), day1 + 3 * 3600)).is_ok());
  EXPECT_TRUE(builder.add_checkin(make_checkin(5, 1, office(), day2)).is_ok());
  EXPECT_TRUE(builder.add_checkin(make_checkin(9, 0, thai(), day2 + 1800)).is_ok());
  return builder.build();
}

TEST(DatasetTest, CountsAndUsers) {
  const Dataset d = two_user_dataset();
  EXPECT_EQ(d.checkin_count(), 4u);
  EXPECT_EQ(d.user_count(), 2u);
  EXPECT_EQ(d.venue_count(), 2u);
  ASSERT_EQ(d.users().size(), 2u);
  EXPECT_EQ(d.users()[0], 5u);
  EXPECT_EQ(d.users()[1], 9u);
}

TEST(DatasetTest, PerUserRecordsAreTimeSorted) {
  const Dataset d = two_user_dataset();
  const auto records = d.checkins_for(5);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_LT(records[0].timestamp, records[1].timestamp);
  EXPECT_LT(records[1].timestamp, records[2].timestamp);
  EXPECT_TRUE(d.checkins_for(12345).empty());
}

TEST(DatasetTest, VenueLookup) {
  const Dataset d = two_user_dataset();
  ASSERT_NE(d.venue(0), nullptr);
  EXPECT_EQ(d.venue(0)->category, thai());
  EXPECT_EQ(d.venue(99), nullptr);
}

TEST(DatasetTest, BoundsCoverAllPositions) {
  const Dataset d = two_user_dataset();
  for (const CheckIn& c : d.checkins()) EXPECT_TRUE(d.bounds().contains(c.position));
}

TEST(DatasetTest, StatsOnKnownCorpus) {
  const Dataset d = two_user_dataset();
  const DatasetStats s = d.stats();
  EXPECT_EQ(s.checkin_count, 4u);
  EXPECT_EQ(s.user_count, 2u);
  EXPECT_DOUBLE_EQ(s.mean_records_per_user, 2.0);
  EXPECT_DOUBLE_EQ(s.median_records_per_user, 2.0);
  EXPECT_EQ(s.collection_days, 2u);
}

TEST(DatasetTest, StatsEmptyDataset) {
  const Dataset d;
  const DatasetStats s = d.stats();
  EXPECT_EQ(s.checkin_count, 0u);
  EXPECT_EQ(s.collection_days, 0u);
}

TEST(DatasetTest, MonthlyCountsOrdered) {
  DatasetBuilder builder;
  ASSERT_TRUE(builder.add_venue(make_venue(0, thai())).is_ok());
  for (const int month : {6, 4, 4, 5, 4}) {
    ASSERT_TRUE(builder
                    .add_checkin(make_checkin(1, 0, thai(),
                                              to_epoch_seconds({2012, month, 10, 12, 0, 0})))
                    .is_ok());
  }
  const auto months = builder.build().monthly_counts();
  ASSERT_EQ(months.size(), 3u);
  EXPECT_EQ(months[0], (std::pair<std::string, std::size_t>{"2012-04", 3}));
  EXPECT_EQ(months[1], (std::pair<std::string, std::size_t>{"2012-05", 1}));
  EXPECT_EQ(months[2], (std::pair<std::string, std::size_t>{"2012-06", 1}));
}

TEST(DatasetTest, ActiveDaysWindowed) {
  const Dataset d = two_user_dataset();
  EXPECT_EQ(d.active_days(5), 2u);
  EXPECT_EQ(d.active_days(9), 1u);
  const std::int64_t day2 = to_epoch_seconds({2012, 4, 3, 0, 0, 0});
  EXPECT_EQ(d.active_days(5, day2), 1u);      // only day 2 onward
  EXPECT_EQ(d.active_days(5, 0, day2), 1u);   // only day 1
}

TEST(DatasetTest, ActiveUserCriteriaDayRule) {
  const Dataset d = two_user_dataset();
  ActiveUserCriteria criteria;
  criteria.from = 0;
  criteria.to = to_epoch_seconds({2013, 1, 1, 0, 0, 0});
  criteria.max_gap_seconds = 0;  // any recorded day counts
  criteria.min_days = 1;
  EXPECT_TRUE(d.is_active_user(5, criteria));   // 2 days > 1
  EXPECT_FALSE(d.is_active_user(9, criteria));  // 1 day is not > 1
}

TEST(DatasetTest, ActiveUserCriteriaGapRule) {
  DatasetBuilder builder;
  ASSERT_TRUE(builder.add_venue(make_venue(0, thai())).is_ok());
  const std::int64_t base = to_epoch_seconds({2012, 4, 2, 9, 0, 0});
  // Day 1: two check-ins 1h apart (qualifies under 2h rule).
  ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), base)).is_ok());
  ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), base + 3600)).is_ok());
  // Day 2: two check-ins 5h apart (does not qualify).
  ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), base + 86400)).is_ok());
  ASSERT_TRUE(builder.add_checkin(make_checkin(1, 0, thai(), base + 86400 + 5 * 3600)).is_ok());
  const Dataset d = builder.build();

  ActiveUserCriteria criteria;
  criteria.from = 0;
  criteria.to = base + 10 * 86400;
  criteria.max_gap_seconds = 2 * 3600;
  criteria.min_days = 0;
  EXPECT_TRUE(d.is_active_user(1, criteria));  // day 1 qualifies -> 1 > 0
  criteria.min_days = 1;
  EXPECT_FALSE(d.is_active_user(1, criteria));  // only one qualifying day
}

TEST(DatasetTest, FilterTimeRange) {
  const Dataset d = two_user_dataset();
  const std::int64_t day2 = to_epoch_seconds({2012, 4, 3, 0, 0, 0});
  const Dataset filtered = d.filter_time_range(0, day2);
  EXPECT_EQ(filtered.checkin_count(), 2u);
  for (const CheckIn& c : filtered.checkins()) EXPECT_LT(c.timestamp, day2);
  // Venues carry over.
  EXPECT_EQ(filtered.venue_count(), 2u);
}

TEST(DatasetTest, FilterUsers) {
  const Dataset d = two_user_dataset();
  const std::vector<UserId> keep{9};
  const Dataset filtered = d.filter_users(keep);
  EXPECT_EQ(filtered.user_count(), 1u);
  EXPECT_EQ(filtered.checkin_count(), 1u);
  EXPECT_EQ(filtered.users()[0], 9u);
}

TEST(DatasetTest, FilterActiveUsers) {
  const Dataset d = two_user_dataset();
  ActiveUserCriteria criteria;
  criteria.from = 0;
  criteria.to = to_epoch_seconds({2013, 1, 1, 0, 0, 0});
  criteria.max_gap_seconds = 0;
  criteria.min_days = 1;
  const Dataset active = d.filter_active_users(criteria);
  EXPECT_EQ(active.user_count(), 1u);
  EXPECT_EQ(active.users()[0], 5u);
}

// ------------------------------------------------------ append in place

/// A shard version's columns copied out, and where it read them from.
struct ColumnCopy {
  const std::int64_t* data = nullptr;
  std::vector<std::int64_t> timestamps;
  std::vector<double> lats;
  std::vector<double> lons;
  std::vector<VenueId> venues;
};

ColumnCopy copy_columns(const Dataset::UserShard& shard) {
  return {shard.timestamps().data(),
          {shard.timestamps().begin(), shard.timestamps().end()},
          {shard.lats().begin(), shard.lats().end()},
          {shard.lons().begin(), shard.lons().end()},
          {shard.venues().begin(), shard.venues().end()}};
}

void expect_columns_unchanged(const Dataset::UserShard& shard, const ColumnCopy& copy,
                              const std::string& where) {
  EXPECT_EQ(shard.timestamps().data(), copy.data) << where;
  EXPECT_TRUE(std::equal(shard.timestamps().begin(), shard.timestamps().end(),
                         copy.timestamps.begin(), copy.timestamps.end()))
      << where;
  EXPECT_TRUE(std::equal(shard.lats().begin(), shard.lats().end(), copy.lats.begin(),
                         copy.lats.end()))
      << where;
  EXPECT_TRUE(std::equal(shard.lons().begin(), shard.lons().end(), copy.lons.begin(),
                         copy.lons.end()))
      << where;
  EXPECT_TRUE(std::equal(shard.venues().begin(), shard.venues().end(), copy.venues.begin(),
                         copy.venues.end()))
      << where;
}

std::vector<CheckIn> all_records(const Dataset& dataset) {
  return {dataset.checkins().begin(), dataset.checkins().end()};
}

/// Venues 0 (Thai) and 1 (Office) plus `records`, built from scratch.
Dataset scratch_build(const std::vector<CheckIn>& records) {
  DatasetBuilder builder;
  EXPECT_TRUE(builder.add_venue(make_venue(0, thai(), 40.70, -74.00)).is_ok());
  EXPECT_TRUE(builder.add_venue(make_venue(1, office(), 40.75, -73.98)).is_ok());
  for (const CheckIn& c : records) EXPECT_TRUE(builder.add_checkin(c).is_ok());
  return builder.build();
}

/// Record k of user 7: alternating venues, positions that differ per k.
CheckIn append_record(std::size_t k, std::int64_t timestamp) {
  const VenueId venue = static_cast<VenueId>(k % 2);
  return make_checkin(7, venue, venue == 0 ? thai() : office(), timestamp,
                      40.70 + 1e-6 * static_cast<double>(k), -74.00);
}

Dataset appended(const Dataset& base, const std::vector<CheckIn>& delta) {
  DatasetBuilder builder(base);
  for (const CheckIn& c : delta) EXPECT_TRUE(builder.add_checkin(c).is_ok());
  return builder.build();
}

TEST(DatasetAppendTest, OlderVersionsStayUnchangedAcrossAppendsAndReallocations) {
  std::vector<CheckIn> records;
  std::int64_t t = to_epoch_seconds({2012, 4, 2, 8, 0, 0});
  for (std::size_t k = 0; k < 5; ++k) records.push_back(append_record(k, t += 600));
  records.push_back(make_checkin(8, 1, office(), t));  // user 8 is never touched
  Dataset live = scratch_build(records);

  // Pinned versions of user 7 and the bytes they saw when published.
  std::vector<std::pair<Dataset, ColumnCopy>> pinned;
  pinned.emplace_back(live, copy_columns(*live.shard_for(7)));
  Rng rng(25);
  std::size_t reallocations = 0;
  for (int chunk = 1; chunk <= 200; ++chunk) {
    const Dataset::ShardPtr before = live.shard_for(7);
    std::vector<CheckIn> delta;
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 5));
    for (std::size_t i = 0; i < count; ++i) {
      // Some records repeat the previous timestamp: an in-order tie.
      t += rng.uniform_int(0, 2) == 0 ? 0 : 300;
      delta.push_back(append_record(records.size(), t));
      records.push_back(delta.back());
    }
    DatasetBuilder builder(live);
    for (const CheckIn& c : delta) ASSERT_TRUE(builder.add_checkin(c).is_ok());
    live = builder.build();
    const std::string where = "chunk " + std::to_string(chunk);
    EXPECT_EQ(builder.stats().shards_appended, 1u) << where;
    EXPECT_EQ(builder.stats().records_copied, 0u) << where;
    EXPECT_EQ(builder.stats().shards_reused, 1u) << where;
    const Dataset::ShardPtr after = live.shard_for(7);
    if (after->capacity() != before->capacity()) {
      ++reallocations;
      EXPECT_GE(after->capacity(), before->capacity() + before->capacity() / 2) << where;
    } else {
      EXPECT_EQ(after->timestamps().data(), before->timestamps().data()) << where;
    }
    if (chunk % 20 == 0) pinned.emplace_back(live, copy_columns(*after));
    for (std::size_t p = 0; p < pinned.size(); ++p)
      expect_columns_unchanged(*pinned[p].first.shard_for(7), pinned[p].second,
                               where + ", pinned version " + std::to_string(p));
  }
  EXPECT_GE(reallocations, 3u);
  EXPECT_EQ(all_records(live), all_records(scratch_build(records)));
}

TEST(DatasetAppendTest, TwoBuildersFromOneBaseEachEqualAFromScratchBuild) {
  std::vector<CheckIn> records;
  std::int64_t t = to_epoch_seconds({2012, 4, 2, 8, 0, 0});
  for (std::size_t k = 0; k < 4; ++k) records.push_back(append_record(k, t += 600));
  // One append moves user 7 into a buffer with spare slots.
  records.push_back(append_record(4, t += 600));
  const Dataset base = appended(scratch_build({records.begin(), records.end() - 1}),
                                {records.back()});
  const ColumnCopy base_columns = copy_columns(*base.shard_for(7));
  ASSERT_GT(base.shard_for(7)->capacity(), base.shard_for(7)->size());

  // Two builders over the same base, both in order. The first claims the
  // spare slots; the second finds the base is no longer the newest
  // version and copies.
  const CheckIn a = append_record(5, t + 60);
  const CheckIn b = make_checkin(7, 0, thai(), t + 120, 40.9, -73.9);
  DatasetBuilder first(base);
  ASSERT_TRUE(first.add_checkin(a).is_ok());
  const Dataset with_a = first.build();
  EXPECT_EQ(first.stats().shards_appended, 1u);
  EXPECT_EQ(first.stats().records_copied, 0u);
  EXPECT_EQ(with_a.shard_for(7)->timestamps().data(), base.shard_for(7)->timestamps().data());
  DatasetBuilder second(base);
  ASSERT_TRUE(second.add_checkin(b).is_ok());
  const Dataset with_b = second.build();
  EXPECT_EQ(second.stats().shards_appended, 0u);
  EXPECT_EQ(second.stats().records_copied, base.checkin_count());

  std::vector<CheckIn> expect_a = records;
  expect_a.push_back(a);
  std::vector<CheckIn> expect_b = records;
  expect_b.push_back(b);
  EXPECT_EQ(all_records(with_a), all_records(scratch_build(expect_a)));
  EXPECT_EQ(all_records(with_b), all_records(scratch_build(expect_b)));
  expect_columns_unchanged(*base.shard_for(7), base_columns, "base");

  // Each result is the newest version of its own buffer, so each keeps
  // appending without copying, and neither sees the other's records.
  const CheckIn c = append_record(6, t + 600);
  const Dataset a_then_c = appended(with_a, {c});
  const Dataset b_then_c = appended(with_b, {c});
  expect_a.push_back(c);
  expect_b.push_back(c);
  EXPECT_EQ(all_records(a_then_c), all_records(scratch_build(expect_a)));
  EXPECT_EQ(all_records(b_then_c), all_records(scratch_build(expect_b)));
}

TEST(DatasetAppendTest, OutOfOrderDeltaFallsBackToACopy) {
  std::vector<CheckIn> records;
  std::int64_t t = to_epoch_seconds({2012, 4, 2, 8, 0, 0});
  for (std::size_t k = 0; k < 6; ++k) records.push_back(append_record(k, t += 600));
  const Dataset base = appended(scratch_build({records.begin(), records.end() - 1}),
                                {records.back()});
  const ColumnCopy base_columns = copy_columns(*base.shard_for(7));

  // One record earlier than the user's last: a stable merge into a
  // fresh buffer, base records first on ties.
  const CheckIn early = append_record(6, records[2].timestamp);
  DatasetBuilder builder(base);
  ASSERT_TRUE(builder.add_checkin(early).is_ok());
  const Dataset merged = builder.build();
  EXPECT_EQ(builder.stats().shards_appended, 0u);
  EXPECT_EQ(builder.stats().records_copied, records.size());
  EXPECT_NE(merged.shard_for(7)->timestamps().data(), base.shard_for(7)->timestamps().data());
  std::vector<CheckIn> expect = records;
  expect.push_back(early);
  EXPECT_EQ(all_records(merged), all_records(scratch_build(expect)));
  EXPECT_EQ(merged.checkins_for(7)[3], early);
  expect_columns_unchanged(*base.shard_for(7), base_columns, "base");

  // The copy claimed nothing: the base still appends in place.
  DatasetBuilder later(base);
  ASSERT_TRUE(later.add_checkin(append_record(7, t + 60)).is_ok());
  const Dataset next = later.build();
  EXPECT_EQ(later.stats().shards_appended, 1u);
  EXPECT_EQ(next.shard_for(7)->timestamps().data(), base.shard_for(7)->timestamps().data());
}

// -------------------------------------------------------------------- CSV

TEST(CsvTest, SimpleRoundTrip) {
  const std::vector<CsvRow> rows{{"a", "b"}, {"1", "2"}};
  const auto parsed = parse_csv(write_csv(rows));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvTest, QuotingRoundTrip) {
  const std::vector<CsvRow> rows{{"with,comma", "with\"quote", "with\nnewline", "plain"}};
  const auto parsed = parse_csv(write_csv(rows));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvTest, EmptyFieldsPreserved) {
  const auto parsed = parse_csv("a,,c\n,,\n");
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (CsvRow{"a", "", "c"}));
  EXPECT_EQ((*parsed)[1], (CsvRow{"", "", ""}));
}

TEST(CsvTest, NoTrailingNewline) {
  const auto parsed = parse_csv("a,b\nc,d");
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1], (CsvRow{"c", "d"}));
}

TEST(CsvTest, CrlfLineEndings) {
  const auto parsed = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(parsed.is_ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (CsvRow{"a", "b"}));
}

TEST(CsvTest, EmptyInput) {
  const auto parsed = parse_csv("");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(CsvTest, MalformedQuotesRejected) {
  EXPECT_FALSE(parse_csv("a,\"unterminated\n").is_ok());
  EXPECT_FALSE(parse_csv("a,b\"stray\n").is_ok());
}

TEST(CsvTest, TsvDelimiter) {
  CsvOptions options;
  options.delimiter = '\t';
  const auto parsed = parse_csv("a\tb\nc\td\n", options);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ((*parsed)[0], (CsvRow{"a", "b"}));
  EXPECT_EQ(write_csv({{"x", "y"}}, options), "x\ty\n");
}

class CsvFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvFuzzTest, RandomTablesRoundTrip) {
  Rng rng(GetParam());
  std::vector<CsvRow> rows;
  const int n_rows = static_cast<int>(rng.uniform_int(0, 20));
  for (int r = 0; r < n_rows; ++r) {
    CsvRow row;
    const int n_fields = static_cast<int>(rng.uniform_int(1, 6));
    for (int f = 0; f < n_fields; ++f) {
      std::string field;
      const int len = static_cast<int>(rng.uniform_int(0, 12));
      for (int i = 0; i < len; ++i) {
        // Bias toward the troublesome characters.
        const char pool[] = {'a', 'b', ',', '"', '\n', '\r', ' ', '\t', 'z'};
        field += pool[rng.uniform_int(0, std::size(pool) - 1)];
      }
      row.push_back(std::move(field));
    }
    rows.push_back(std::move(row));
  }
  const auto parsed = parse_csv(write_csv(rows));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(*parsed, rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// -------------------------------------------------------------- DatasetIO

TEST(DatasetIoTest, RoundTrip) {
  const Dataset original = two_user_dataset();
  const Taxonomy& tax = Taxonomy::foursquare();
  const std::string venues = venues_to_csv(original, tax);
  const std::string checkins = checkins_to_csv(original, tax);
  const auto restored = dataset_from_csv(venues, checkins, tax);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored->checkin_count(), original.checkin_count());
  EXPECT_EQ(restored->user_count(), original.user_count());
  EXPECT_EQ(restored->venue_count(), original.venue_count());
  // Record-level equality after the same (user, time) sort.
  const auto a = original.checkins();
  const auto b = restored->checkins();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].venue, b[i].venue);
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_NEAR(a[i].position.lat, b[i].position.lat, 1e-6);
  }
}

TEST(DatasetIoTest, RejectsUnknownCategory) {
  const std::string venues = "venue_id,name,category,lat,lon\n0,X,Martian Diner,40.7,-74.0\n";
  const std::string checkins = "user_id,venue_id,category,lat,lon,timestamp\n";
  EXPECT_FALSE(dataset_from_csv(venues, checkins, Taxonomy::foursquare()).is_ok());
}

TEST(DatasetIoTest, RejectsWrongHeader) {
  const std::string venues = "id,name,category,lat,lon\n";
  const std::string checkins = "user_id,venue_id,category,lat,lon,timestamp\n";
  EXPECT_FALSE(dataset_from_csv(venues, checkins, Taxonomy::foursquare()).is_ok());
}

TEST(DatasetIoTest, RejectsMalformedRows) {
  const Taxonomy& tax = Taxonomy::foursquare();
  const std::string venues =
      "venue_id,name,category,lat,lon\n0,X,Thai Restaurant,40.7,-74.0\n";
  const std::string bad_time =
      "user_id,venue_id,category,lat,lon,timestamp\n"
      "1,0,Thai Restaurant,40.7,-74.0,yesterday\n";
  EXPECT_FALSE(dataset_from_csv(venues, bad_time, tax).is_ok());
  const std::string missing_venue =
      "user_id,venue_id,category,lat,lon,timestamp\n"
      "1,7,Thai Restaurant,40.7,-74.0,2012-04-02 09:00:00\n";
  EXPECT_FALSE(dataset_from_csv(venues, missing_venue, tax).is_ok());
  const std::string short_row =
      "user_id,venue_id,category,lat,lon,timestamp\n1,0\n";
  EXPECT_FALSE(dataset_from_csv(venues, short_row, tax).is_ok());
}

TEST(DatasetIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/crowdweb_io_test.csv";
  ASSERT_TRUE(write_file(path, "hello\nworld\n").is_ok());
  const auto content = read_file(path);
  ASSERT_TRUE(content.is_ok());
  EXPECT_EQ(*content, "hello\nworld\n");
  EXPECT_FALSE(read_file("/nonexistent/path/file.csv").is_ok());
}


// ------------------------------------------- CsvReader vs the char loop

/// Every row of `text` through CsvReader, copied, or its error.
Result<std::vector<CsvRow>> read_all(std::string_view text) {
  CsvReader reader(text);
  std::vector<CsvRow> rows;
  for (;;) {
    const auto row = reader.next();
    if (!row) return row.status();
    if (row->empty()) break;
    rows.emplace_back(row->begin(), row->end());
    EXPECT_EQ(reader.row_number(), rows.size());
  }
  return rows;
}

/// CsvReader must give the char loop's rows, or its error text.
void expect_reader_matches_loop(std::string_view text) {
  const auto expected = parse_csv_per_char(text);
  const auto actual = read_all(text);
  ASSERT_EQ(actual.is_ok(), expected.is_ok())
      << "input: '" << text << "' reader: " << actual.status().to_string()
      << " loop: " << expected.status().to_string();
  if (expected.is_ok()) {
    EXPECT_EQ(*actual, *expected) << "input: '" << text << "'";
  } else {
    EXPECT_EQ(actual.status().to_string(), expected.status().to_string())
        << "input: '" << text << "'";
  }
}

/// A document of quoted and plain fields, embedded delimiters, '""',
/// embedded CR and LF, empty fields and rows, mixed row ends, and a
/// final newline only sometimes.
std::string random_document(Rng& rng) {
  static constexpr std::string_view kPlain[] = {"", "a", "bc", "x y", "12.5", "\t"};
  static constexpr std::string_view kQuoted[] = {"\"\"",         "\"a,b\"",   "\"say \"\"hi\"\"\"",
                                                 "\"line\nbreak\"", "\"cr\rin\"", "\"crlf\r\nin\"",
                                                 "\"\"\"\"",     "\"q\"tail"};
  static constexpr std::string_view kRowEnd[] = {"\n", "\r\n", "\r"};
  std::string doc;
  const auto rows = rng.uniform_int(0, 8);
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto fields = rng.uniform_int(1, 5);
    for (std::int64_t f = 0; f < fields; ++f) {
      if (f > 0) doc += ',';
      if (rng.bernoulli(0.4)) {
        doc += kQuoted[rng.uniform_int(0, std::size(kQuoted) - 1)];
      } else {
        doc += kPlain[rng.uniform_int(0, std::size(kPlain) - 1)];
      }
    }
    if (r + 1 < rows || rng.bernoulli(0.5)) doc += kRowEnd[rng.uniform_int(0, 2)];
  }
  return doc;
}

TEST(CsvReaderTest, SeededDocumentsAndTheirMutationsMatchTheCharLoop) {
  static constexpr char kBytes[] = {'"', ',', '\r', '\n', 'a', ' '};
  Rng rng(20121);
  for (int doc_index = 0; doc_index < 300; ++doc_index) {
    const std::string doc = random_document(rng);
    SCOPED_TRACE("document " + std::to_string(doc_index));
    expect_reader_matches_loop(doc);
    // Truncation at every length.
    for (std::size_t len = 0; len < doc.size(); ++len)
      expect_reader_matches_loop(std::string_view(doc).substr(0, len));
    if (doc.empty()) continue;
    // A fixed budget of byte flips and inserted quotes.
    for (int m = 0; m < 24; ++m) {
      std::string mutated = doc;
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(doc.size()) - 1));
      if (m % 2 == 0) {
        mutated[at] = kBytes[rng.uniform_int(0, std::size(kBytes) - 1)];
      } else {
        mutated.insert(at, 1, '"');
      }
      expect_reader_matches_loop(mutated);
    }
  }
}

TEST(CsvReaderTest, ErrorsNamePhysicalLines) {
  EXPECT_EQ(read_all("a\n\"x\ny\"\nb\"c\n").status().to_string(),
            parse_error("stray quote at line 4").to_string());
  EXPECT_EQ(read_all("a\r\nb,\"open\n\n").status().to_string(),
            parse_error("unterminated quote at line 4").to_string());
  EXPECT_EQ(read_all("\"q\"\"").status().to_string(),
            parse_error("unterminated quote at line 1").to_string());
  EXPECT_EQ(read_all("\"q\"x\"").status().to_string(),
            parse_error("stray quote at line 1").to_string());
}

TEST(CsvReaderTest, PlainFieldsViewTheInputAndQuotedOnesTheReader) {
  const std::string text = "plain,\"a \"\"b\"\"\",\"c,d\"tail\nnext\n";
  CsvReader reader(text);
  const auto row = reader.next();
  ASSERT_TRUE(row.is_ok());
  ASSERT_EQ(row->size(), 3u);
  EXPECT_EQ((*row)[0], "plain");
  EXPECT_EQ((*row)[0].data(), text.data());
  EXPECT_EQ((*row)[1], "a \"b\"");
  EXPECT_EQ((*row)[2], "c,dtail");
  const auto in_text = [&](std::string_view field) {
    return field.data() >= text.data() && field.data() < text.data() + text.size();
  };
  EXPECT_FALSE(in_text((*row)[1]));
  EXPECT_FALSE(in_text((*row)[2]));
  const auto second = reader.next();
  ASSERT_TRUE(second.is_ok());
  ASSERT_EQ(second->size(), 1u);
  EXPECT_EQ((*second)[0], "next");
  const auto end = reader.next();
  ASSERT_TRUE(end.is_ok());
  EXPECT_TRUE(end->empty());
  EXPECT_EQ(reader.row_number(), 2u);
}

// ------------------------------------- Streaming load vs the two passes

void expect_same_dataset(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.checkin_count(), b.checkin_count());
  ASSERT_EQ(a.venue_count(), b.venue_count());
  EXPECT_TRUE(std::ranges::equal(a.users(), b.users()));
  EXPECT_TRUE(std::ranges::equal(a.checkins(), b.checkins()));
  for (std::size_t id = 0; id < a.venue_count(); ++id) {
    const Venue& x = *a.venue(static_cast<VenueId>(id));
    const Venue& y = *b.venue(static_cast<VenueId>(id));
    EXPECT_EQ(x.name, y.name) << "venue " << id;
    EXPECT_EQ(x.category, y.category) << "venue " << id;
    EXPECT_EQ(x.position.lat, y.position.lat) << "venue " << id;
    EXPECT_EQ(x.position.lon, y.position.lon) << "venue " << id;
  }
  ASSERT_TRUE(a.names() && b.names());
  EXPECT_TRUE(std::ranges::equal(a.names()->names(), b.names()->names()));
}

/// A corpus whose venue names need quoting and repeat (interning order
/// shows), with users checking in out of time order.
Dataset quoting_corpus() {
  const Taxonomy& tax = Taxonomy::foursquare();
  static constexpr std::string_view kNames[] = {"Thai, Pothong", "Joe's \"Best\" Pizza",
                                                "Plain", "Line\nBreak", "Plain"};
  static constexpr std::string_view kCategories[] = {"Thai Restaurant", "Pizza Place",
                                                     "Office", "Bar", "Park"};
  DatasetBuilder builder;
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    VenueSpec venue;
    venue.id = static_cast<VenueId>(i);
    venue.name = kNames[i];
    venue.category = *tax.find(kCategories[i]);
    venue.position = {40.70 + 0.01 * static_cast<double>(i), -74.00};
    EXPECT_TRUE(builder.add_venue(venue).is_ok());
  }
  Rng rng(7);
  const std::int64_t start = to_epoch_seconds({2012, 4, 2, 0, 0, 0});
  for (int i = 0; i < 200; ++i) {
    CheckIn checkin;
    checkin.user = static_cast<UserId>(rng.uniform_int(1, 12) * 11);
    checkin.venue = static_cast<VenueId>(rng.uniform_int(0, std::size(kNames) - 1));
    checkin.category = *tax.find(kCategories[checkin.venue]);
    checkin.position = {40.70 + rng.uniform(0.0, 0.05), -74.00 + rng.uniform(0.0, 0.05)};
    checkin.timestamp = start + rng.uniform_int(0, 30 * 86'400);
    EXPECT_TRUE(builder.add_checkin(checkin).is_ok());
  }
  return builder.build();
}

/// `text` with its `row`-th line (0 = header) replaced by `with`.
std::string replace_line(const std::string& text, std::size_t row, std::string_view with) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < row; ++i) begin = text.find('\n', begin) + 1;
  const std::size_t end = text.find('\n', begin);
  return text.substr(0, begin) + std::string(with) + text.substr(end);
}

TEST(DatasetLoadOracleTest, ValidCorporaMatchTheTwoPassLoad) {
  const Taxonomy& tax = Taxonomy::foursquare();
  for (const Dataset& original : {two_user_dataset(), quoting_corpus()}) {
    const std::string venues = venues_to_csv(original, tax);
    const std::string checkins = checkins_to_csv(original, tax);
    const auto streamed = dataset_from_csv(venues, checkins, tax);
    const auto two_pass = dataset_from_rows(venues, checkins, tax);
    ASSERT_TRUE(streamed.is_ok()) << streamed.status().to_string();
    ASSERT_TRUE(two_pass.is_ok()) << two_pass.status().to_string();
    expect_same_dataset(*streamed, *two_pass);
    // Positions round to the writer's 7 decimals, so the round trip is
    // checked as text.
    EXPECT_EQ(venues_to_csv(*streamed, tax), venues);
    EXPECT_EQ(checkins_to_csv(*streamed, tax), checkins);
  }
}

TEST(DatasetLoadOracleTest, SingleFaultErrorsMatchTheTwoPassLoad) {
  const Taxonomy& tax = Taxonomy::foursquare();
  const Dataset original = quoting_corpus();
  const std::string venues = venues_to_csv(original, tax);
  const std::string checkins = checkins_to_csv(original, tax);
  const std::string checkin_header = "user_id,venue_id,category,lat,lon,timestamp";
  struct Fault {
    std::string name;
    std::string venues;
    std::string checkins;
  };
  std::vector<Fault> faults{
      {"empty venues", "", checkins},
      {"empty checkins", venues, ""},
      {"venue header name", replace_line(venues, 0, "venue_id,name,kind,lat,lon"), checkins},
      {"venue header arity", replace_line(venues, 0, "venue_id,name,category,lat"), checkins},
      {"checkin header name", venues,
       replace_line(checkins, 0, "user,venue_id,category,lat,lon,timestamp")},
      {"checkin header arity", venues, replace_line(checkins, 0, checkin_header + ",x")},
      {"venue bad int", replace_line(venues, 3, "x2,Plain,Office,40.72,-74.0"), checkins},
      {"venue bad double", replace_line(venues, 3, "2,Plain,Office,4o.72,-74.0"), checkins},
      {"venue nan", replace_line(venues, 3, "2,Plain,Office,nan,-74.0"), checkins},
      {"venue unknown category", replace_line(venues, 3, "2,Plain,Martian Diner,40.72,-74.0"),
       checkins},
      {"venue arity", replace_line(venues, 3, "2,Plain,Office,40.72"), checkins},
      {"venue not dense", replace_line(venues, 3, "7,Plain,Office,40.72,-74.0"), checkins},
      {"venue bad position", replace_line(venues, 3, "2,Plain,Office,95.0,-74.0"), checkins},
      {"venue stray quote", replace_line(venues, 3, "2,Pla\"in,Office,40.72,-74.0"), checkins},
      {"checkin bad int", venues,
       replace_line(checkins, 5, "1x,2,Office,40.72,-74.0,2012-04-02 09:00:00")},
      {"checkin bad venue int", venues,
       replace_line(checkins, 5, "11,,Office,40.72,-74.0,2012-04-02 09:00:00")},
      {"checkin bad double", venues,
       replace_line(checkins, 5, "11,2,Office,40.72,-74.0.0,2012-04-02 09:00:00")},
      {"checkin inf", venues,
       replace_line(checkins, 5, "11,2,Office,inf,-74.0,2012-04-02 09:00:00")},
      {"checkin bad timestamp", venues,
       replace_line(checkins, 5, "11,2,Office,40.72,-74.0,yesterday")},
      {"checkin month range", venues,
       replace_line(checkins, 5, "11,2,Office,40.72,-74.0,2012-13-02 09:00:00")},
      {"checkin hour range", venues,
       replace_line(checkins, 5, "11,2,Office,40.72,-74.0,2012-04-02T24:00:00")},
      {"checkin unknown category", venues,
       replace_line(checkins, 5, "11,2,Offices,40.72,-74.0,2012-04-02 09:00:00")},
      {"checkin category mismatch", venues,
       replace_line(checkins, 5, "11,2,Bar,40.72,-74.0,2012-04-02 09:00:00")},
      {"checkin arity", venues, replace_line(checkins, 5, "11,2,Office,40.72,-74.0")},
      {"checkin missing venue", venues,
       replace_line(checkins, 5, "11,99,Office,40.72,-74.0,2012-04-02 09:00:00")},
      {"checkin bad position", venues,
       replace_line(checkins, 5, "11,2,Office,40.72,-190.0,2012-04-02 09:00:00")},
      {"checkin unterminated quote", venues, checkins + "\"11,2"},
  };
  for (const Fault& fault : faults) {
    SCOPED_TRACE(fault.name);
    const auto streamed = dataset_from_csv(fault.venues, fault.checkins, tax);
    const auto two_pass = dataset_from_rows(fault.venues, fault.checkins, tax);
    ASSERT_FALSE(two_pass.is_ok());
    ASSERT_FALSE(streamed.is_ok());
    EXPECT_EQ(streamed.status().to_string(), two_pass.status().to_string());
  }
}

TEST(DatasetLoadOracleTest, CrlfAndBareCrFilesLoadTheSameDataset) {
  const Taxonomy& tax = Taxonomy::foursquare();
  const Dataset original = two_user_dataset();
  const auto with_ends = [](std::string text, std::string_view end) {
    std::string out;
    for (const char c : text) {
      if (c == '\n') {
        out += end;
      } else {
        out += c;
      }
    }
    return out;
  };
  for (const std::string_view end : {"\r\n", "\r"}) {
    const std::string venues = with_ends(venues_to_csv(original, tax), end);
    const std::string checkins = with_ends(checkins_to_csv(original, tax), end);
    const auto streamed = dataset_from_csv(venues, checkins, tax);
    const auto two_pass = dataset_from_rows(venues, checkins, tax);
    ASSERT_TRUE(streamed.is_ok()) << streamed.status().to_string();
    ASSERT_TRUE(two_pass.is_ok());
    expect_same_dataset(*streamed, *two_pass);
  }
}

// --------------------------------------------- parse_timestamp fast path

void expect_timestamp_matches_fields(const std::string& text) {
  const auto fast = parse_timestamp(text);
  const auto fields = parse_timestamp_by_fields(text);
  ASSERT_EQ(fast.is_ok(), fields.is_ok()) << "'" << text << "'";
  if (fields.is_ok()) {
    EXPECT_EQ(*fast, *fields) << "'" << text << "'";
  } else {
    EXPECT_EQ(fast.status().code(), fields.status().code()) << "'" << text << "'";
    EXPECT_EQ(fast.status().message(), fields.status().message()) << "'" << text << "'";
  }
}

TEST(ParseTimestampTest, EverySingleCharMutationMatchesTheFieldParser) {
  for (const std::string valid :
       {"2012-04-02 09:30:15", "2012-02-29T23:59:59", "1999-12-31 00:00:00",
        "2013-02-28 12:00:00", "2012-04-02"}) {
    expect_timestamp_matches_fields(valid);
    for (std::size_t at = 0; at <= valid.size(); ++at) {
      for (int byte = 0; byte < 256; ++byte) {
        const char c = static_cast<char>(byte);
        if (at < valid.size()) {
          std::string substituted = valid;
          substituted[at] = c;
          expect_timestamp_matches_fields(substituted);
        }
        std::string inserted = valid;
        inserted.insert(at, 1, c);
        expect_timestamp_matches_fields(inserted);
      }
      if (at < valid.size()) {
        std::string deleted = valid;
        deleted.erase(at, 1);
        expect_timestamp_matches_fields(deleted);
      }
    }
  }
}

// ------------------------------------------------------ Taxonomy index

TEST(TaxonomyTest, NameIndexSurvivesCopiesAndKeepsTheFirstId) {
  std::optional<Taxonomy> copy;
  {
    auto created = Taxonomy::create({{0, "Root", kNoCategory},
                                     {1, "Leaf", 0},
                                     {2, "Leaf", 0},
                                     {3, "Other", kNoCategory}});
    ASSERT_TRUE(created.is_ok());
    copy.emplace(*created);
  }
  EXPECT_EQ(copy->find("Leaf"), CategoryId{1});
  EXPECT_EQ(copy->find("Other"), CategoryId{3});
  EXPECT_FALSE(copy->find("Missing").has_value());
  EXPECT_FALSE(copy->find("").has_value());
}

// ------------------------------------------------------------- read_file

TEST(DatasetIoTest, ReadFileReadsProcfsToEof) {
  // procfs reports size 0; a reader that trusts it reads nothing.
  const auto status = read_file("/proc/self/status");
  ASSERT_TRUE(status.is_ok()) << status.status().to_string();
  EXPECT_FALSE(status->empty());
  EXPECT_NE(status->find("VmHWM:"), std::string::npos);
}

TEST(DatasetIoTest, ReadFileReadsFilesLargerThanOneBuffer) {
  const std::string path = ::testing::TempDir() + "/crowdweb_io_large.csv";
  std::string content;
  for (int i = 0; i < 20'000; ++i) content += std::to_string(i) + ",row\n";
  ASSERT_TRUE(write_file(path, content).is_ok());
  const auto read = read_file(path);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, content);
}
}  // namespace
}  // namespace crowdweb::data
