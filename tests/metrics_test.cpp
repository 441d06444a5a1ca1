#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "metrics/mobility_metrics.hpp"
#include "stats/summary.hpp"

#include <random>
#include "synth/generator.hpp"
#include "util/civil_time.hpp"
#include "util/log.hpp"

namespace crowdweb::metrics {
namespace {

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

const data::Taxonomy& tax() { return data::Taxonomy::foursquare(); }

/// Builds a dataset where user 1 alternates between two venues `meters`
/// apart, `visits` times.
data::Dataset two_point_dataset(double meters, int visits) {
  data::DatasetBuilder builder;
  const geo::LatLon a{40.70, -74.00};
  const geo::LatLon b = geo::offset_meters(a, meters, 0.0);
  for (int i = 0; i < 2; ++i) {
    data::VenueSpec v;
    v.id = static_cast<data::VenueId>(i);
    v.name = std::string(i == 0 ? "A" : "B");
    v.category = *tax().find("Coffee Shop");
    v.position = i == 0 ? a : b;
    EXPECT_TRUE(builder.add_venue(v).is_ok());
  }
  for (int i = 0; i < visits; ++i) {
    data::CheckIn c;
    c.user = 1;
    c.venue = static_cast<data::VenueId>(i % 2);
    c.category = *tax().find("Coffee Shop");
    c.position = i % 2 == 0 ? a : b;
    c.timestamp = to_epoch_seconds({2012, 4, 1, 8, 0, 0}) + i * 3600;
    EXPECT_TRUE(builder.add_checkin(c).is_ok());
  }
  return builder.build();
}

// ------------------------------------------------------ RadiusOfGyration

TEST(RadiusOfGyrationTest, ZeroForStationaryUser) {
  const data::Dataset d = two_point_dataset(0.0, 6);
  EXPECT_NEAR(radius_of_gyration(d, 1), 0.0, 1e-6);
}

TEST(RadiusOfGyrationTest, TwoPointAlternationIsHalfDistance) {
  // Equal mass at two points d apart: rg = d/2.
  const data::Dataset d = two_point_dataset(1000.0, 10);
  EXPECT_NEAR(radius_of_gyration(d, 1), 500.0, 5.0);
}

TEST(RadiusOfGyrationTest, UnknownUserIsZero) {
  const data::Dataset d = two_point_dataset(1000.0, 4);
  EXPECT_DOUBLE_EQ(radius_of_gyration(d, 999), 0.0);
}

TEST(RadiusOfGyrationTest, AllUsersVectorAligned) {
  const data::Dataset d = two_point_dataset(1000.0, 4);
  const auto radii = all_radii_of_gyration(d);
  ASSERT_EQ(radii.size(), d.user_count());
  EXPECT_NEAR(radii[0], 500.0, 5.0);
}

// ------------------------------------------------------------ JumpLength

TEST(JumpLengthTest, ConsecutiveDistances) {
  const data::Dataset d = two_point_dataset(800.0, 5);
  const auto jumps = jump_lengths(d, 1);
  ASSERT_EQ(jumps.size(), 4u);
  for (const double jump : jumps) EXPECT_NEAR(jump, 800.0, 2.0);
}

TEST(JumpLengthTest, SingleRecordHasNoJumps) {
  const data::Dataset d = two_point_dataset(800.0, 1);
  EXPECT_TRUE(jump_lengths(d, 1).empty());
  EXPECT_TRUE(jump_lengths(d, 42).empty());
}

TEST(JumpLengthTest, PooledAcrossUsers) {
  const data::Dataset d = two_point_dataset(800.0, 5);
  EXPECT_EQ(all_jump_lengths(d).size(), 4u);
}

// --------------------------------------------------- VisitationFrequency

TEST(VisitationFrequencyTest, SortedDescending) {
  const data::Dataset d = two_point_dataset(500.0, 7);  // A x4, B x3
  const auto freq = visitation_frequency(d, 1);
  ASSERT_EQ(freq.size(), 2u);
  EXPECT_EQ(freq[0], 4u);
  EXPECT_EQ(freq[1], 3u);
  EXPECT_TRUE(visitation_frequency(d, 9).empty());
}

TEST(LocationEntropyTest, KnownValues) {
  // One venue only: entropy 0.
  EXPECT_NEAR(location_entropy(two_point_dataset(0.0, 1), 1), 0.0, 1e-12);
  // 50/50 over two venues: entropy 1 bit.
  EXPECT_NEAR(location_entropy(two_point_dataset(500.0, 8), 1), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(location_entropy(two_point_dataset(500.0, 8), 77), 0.0);
}

TEST(DistinctLocationsTest, MonotoneAndSaturating) {
  const data::Dataset d = two_point_dataset(500.0, 6);
  const auto s = distinct_locations_over_time(d, 1);
  ASSERT_EQ(s.size(), 6u);
  EXPECT_EQ(s.front(), 1u);
  EXPECT_EQ(s.back(), 2u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GE(s[i], s[i - 1]);
}

// ---------------------------------------------------------------- Zipf

TEST(ZipfTest, ExactPowerLawRecovered) {
  // f_k = 1000 * k^-1.2
  std::vector<std::size_t> frequencies;
  for (int k = 1; k <= 50; ++k)
    frequencies.push_back(
        static_cast<std::size_t>(1000.0 * std::pow(k, -1.2) + 0.5));
  EXPECT_NEAR(zipf_exponent(frequencies), 1.2, 0.05);
}

TEST(ZipfTest, FlatDistributionHasZeroExponent) {
  const std::vector<std::size_t> flat(20, 7);
  EXPECT_NEAR(zipf_exponent(flat), 0.0, 1e-9);
}

TEST(ZipfTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(zipf_exponent({}), 0.0);
  EXPECT_DOUBLE_EQ(zipf_exponent({5}), 0.0);
  EXPECT_DOUBLE_EQ(zipf_exponent({0, 0}), 0.0);
}

// --------------------------------------- Generator realism (integration)

TEST(GeneratorRealismTest, SyntheticCorpusBehavesLikeHumanMobility) {
  auto corpus = synth::small_corpus(3);
  ASSERT_TRUE(corpus.is_ok());
  const data::Dataset& d = corpus->dataset;

  // Radii of gyration: positive, city-bounded, heterogeneous.
  const auto radii = all_radii_of_gyration(d);
  const stats::Summary rg = stats::summarize(radii);
  EXPECT_GT(rg.median, 100.0);      // people do move
  EXPECT_LT(rg.max, 60'000.0);      // but stay inside the metro area
  EXPECT_GT(rg.stddev, 100.0);      // and differ from each other

  // Jump lengths: a strong short-range mode (routine, check-ins hours
  // apart can still span the city) with a long tail.
  const auto jumps = all_jump_lengths(d);
  ASSERT_GT(jumps.size(), 500u);
  const double short_fraction =
      static_cast<double>(std::count_if(jumps.begin(), jumps.end(),
                                        [](double j) { return j < 8'000.0; })) /
      static_cast<double>(jumps.size());
  EXPECT_GT(short_fraction, 0.4);
  EXPECT_LT(short_fraction, 1.0);  // long jumps exist

  // Visitation frequency decays like a power law for busy users
  // (anchors dominate): exponent clearly positive.
  std::vector<double> exponents;
  for (const data::UserId user : d.users()) {
    const auto freq = visitation_frequency(d, user);
    if (freq.size() >= 8) exponents.push_back(zipf_exponent(freq));
  }
  ASSERT_GT(exponents.size(), 10u);
  EXPECT_GT(stats::median(exponents), 0.5);

  // Exploration is sublinear: distinct venues grow slower than visits.
  // (Flexible venue choice keeps the ratio higher than in dense GPS
  // traces, but anchors guarantee plenty of repeats.)
  std::size_t users_checked = 0;
  double ratio_sum = 0.0;
  for (const data::UserId user : d.users()) {
    const auto s = distinct_locations_over_time(d, user);
    if (s.size() < 50) continue;
    EXPECT_LT(s.back(), s.size());  // at least one repeat visit
    ratio_sum += static_cast<double>(s.back()) / static_cast<double>(s.size());
    ++users_checked;
  }
  ASSERT_GT(users_checked, 5u);
  EXPECT_LT(ratio_sum / static_cast<double>(users_checked), 0.8);
}

TEST(GeneratorRealismTest, JumpDistributionIsSeedStationary) {
  // Two independent seeds must produce statistically indistinguishable
  // jump-length distributions (the generator models one city, not one
  // seed). KS on equal-size subsamples.
  auto a = synth::small_corpus(21);
  auto b = synth::small_corpus(22);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  auto jumps_a = all_jump_lengths(a->dataset);
  auto jumps_b = all_jump_lengths(b->dataset);
  ASSERT_GT(jumps_a.size(), 1000u);
  ASSERT_GT(jumps_b.size(), 1000u);
  // Deterministic thinning to equal sizes keeps the test cheap and the
  // KS critical value meaningful.
  const std::size_t n = 800;
  std::vector<double> sample_a, sample_b;
  for (std::size_t i = 0; i < n; ++i) {
    sample_a.push_back(jumps_a[i * jumps_a.size() / n]);
    sample_b.push_back(jumps_b[i * jumps_b.size() / n]);
  }
  // Different seeds regenerate the *city* too (neighborhood layout,
  // venue spreads), so the distributions are similar but not draws from
  // one distribution; bound the divergence rather than testing equality,
  // and check both tails look alike qualitatively.
  EXPECT_LT(stats::ks_statistic(sample_a, sample_b), 0.35);
  const stats::Summary sum_a = stats::summarize(sample_a);
  const stats::Summary sum_b = stats::summarize(sample_b);
  EXPECT_GT(sum_a.mean / sum_a.median, 1.0);  // right-skewed in both
  EXPECT_GT(sum_b.mean / sum_b.median, 1.0);
  EXPECT_LT(std::abs(sum_a.median - sum_b.median), 4'000.0);  // same scale (m)
}

}  // namespace
}  // namespace crowdweb::metrics
