// End-to-end integration tests over the whole platform: determinism,
// cross-module conservation invariants, and small-scale versions of the
// paper's figure shapes as regression gates.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/platform.hpp"
#include "stats/summary.hpp"
#include "util/log.hpp"

namespace crowdweb {
namespace {

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

core::PlatformConfig test_config(std::uint64_t seed = 42) {
  core::PlatformConfig config;
  config.seed = seed;
  config.small_corpus = true;
  config.min_active_days = 20;
  config.mining.min_support = 0.25;
  return config;
}

TEST(IntegrationTest, SameSeedReproducesEverythingBitForBit) {
  auto a = core::Platform::create(test_config(7));
  auto b = core::Platform::create(test_config(7));
  ASSERT_TRUE(a.is_ok() && b.is_ok());

  // Corpus identical.
  ASSERT_EQ(a->full_dataset().checkin_count(), b->full_dataset().checkin_count());
  const auto ca = a->full_dataset().checkins();
  const auto cb = b->full_dataset().checkins();
  for (std::size_t i = 0; i < ca.size(); ++i) ASSERT_EQ(ca[i], cb[i]);

  // Phase 2 identical: same users, days, and time-annotated patterns.
  ASSERT_EQ(a->mobility().size(), b->mobility().size());
  for (std::size_t i = 0; i < a->mobility().size(); ++i) {
    const patterns::UserMobility& ma = a->mobility()[i];
    const patterns::UserMobility& mb = b->mobility()[i];
    EXPECT_EQ(ma.user, mb.user);
    EXPECT_EQ(ma.recorded_days, mb.recorded_days);
    EXPECT_EQ(ma.patterns, mb.patterns) << "user " << ma.user;
  }

  // Phase 3 identical.
  ASSERT_EQ(a->crowd_model().window_count(), b->crowd_model().window_count());
  for (int w = 0; w < a->crowd_model().window_count(); ++w) {
    EXPECT_EQ(a->crowd_model().distribution(w).cells(),
              b->crowd_model().distribution(w).cells());
  }
}

TEST(IntegrationTest, DifferentSeedsProduceDifferentCrowds) {
  const core::PlatformConfig config_a = test_config(1);
  const core::PlatformConfig config_b = test_config(2);
  auto a = core::Platform::create(config_a);
  auto b = core::Platform::create(config_b);
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_NE(a->full_dataset().checkin_count(), b->full_dataset().checkin_count());
}

TEST(IntegrationTest, ConservationAcrossModules) {
  auto platform = core::Platform::create(test_config());
  ASSERT_TRUE(platform.is_ok());
  const auto& model = platform->crowd_model();

  // Placements == sum of distribution totals == sum of rhythm matrix.
  std::size_t distribution_total = 0;
  for (int w = 0; w < model.window_count(); ++w)
    distribution_total += model.distribution(w).total();
  EXPECT_EQ(distribution_total, model.total_placements());

  const auto rhythm = model.rhythm();
  std::size_t rhythm_total = 0;
  for (const auto& row : rhythm.counts)
    for (const std::size_t count : row) rhythm_total += count;
  EXPECT_EQ(rhythm_total, model.total_placements());

  // Groups (min_size 1) partition each window's placements.
  for (const int w : {8, 9, 12, 20}) {
    std::size_t grouped = 0;
    for (const auto& group : model.groups(w, 1)) grouped += group.users.size();
    EXPECT_EQ(grouped, model.placements(w).size());
  }
}

TEST(IntegrationTest, MobilityUsersMatchExperimentUsers) {
  auto platform = core::Platform::create(test_config());
  ASSERT_TRUE(platform.is_ok());
  const auto users = platform->experiment_dataset().users();
  ASSERT_EQ(platform->mobility().size(), users.size());
  for (std::size_t i = 0; i < users.size(); ++i)
    EXPECT_EQ(platform->mobility()[i].user, users[i]);
}

TEST(IntegrationTest, EveryPatternRespectsMinSupport) {
  auto platform = core::Platform::create(test_config());
  ASSERT_TRUE(platform.is_ok());
  for (const patterns::UserMobility& user : platform->mobility()) {
    for (const patterns::MobilityPattern& pattern : user.patterns) {
      EXPECT_GE(pattern.support, platform->config().mining.min_support - 1e-12);
      EXPECT_LE(pattern.support, 1.0 + 1e-12);
      EXPECT_EQ(pattern.support_count > 0, true);
      for (const patterns::TimedElement& element : pattern.elements) {
        EXPECT_GE(element.mean_minute, 0.0);
        EXPECT_LT(element.mean_minute, 24.0 * 60.0);
      }
    }
  }
}

TEST(IntegrationTest, FigureShapesHoldAtSmallScale) {
  // Small-scale regression gate for Figures 5 and 7: the monotone
  // decrease must hold on the small corpus too.
  auto platform = core::Platform::create(test_config());
  ASSERT_TRUE(platform.is_ok());
  const data::Dataset& active = platform->experiment_dataset();

  std::vector<double> pattern_means;
  std::vector<double> length_means;
  for (const double support : {0.25, 0.5, 0.75}) {
    patterns::MobilityOptions options;
    options.mining.min_support = support;
    const auto all =
        patterns::mine_all_mobility(active, platform->taxonomy(), options);
    std::vector<double> counts;
    std::vector<double> lengths;
    for (const patterns::UserMobility& user : all) {
      counts.push_back(static_cast<double>(user.patterns.size()));
      if (!user.patterns.empty())
        lengths.push_back(patterns::average_pattern_length(user.patterns));
    }
    pattern_means.push_back(stats::mean(counts));
    length_means.push_back(lengths.empty() ? 0.0 : stats::mean(lengths));
  }
  // Figure 5 shape.
  EXPECT_GT(pattern_means[0], pattern_means[1]);
  EXPECT_GT(pattern_means[1], pattern_means[2]);
  EXPECT_GT(pattern_means[0] - pattern_means[1], pattern_means[1] - pattern_means[2]);
  // Figure 7 shape (tolerate ties at the sparse end).
  EXPECT_GE(length_means[0] + 1e-9, length_means[1]);
}

}  // namespace
}  // namespace crowdweb
