#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "util/civil_time.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace crowdweb {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = invalid_argument("bad seed");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad seed");
  EXPECT_EQ(s.to_string(), "invalid_argument: bad seed");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition, StatusCode::kParseError,
        StatusCode::kIoError, StatusCode::kUnavailable, StatusCode::kInternal}) {
    EXPECT_FALSE(to_string(code).empty());
    EXPECT_NE(to_string(code), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = not_found("user 7");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a() == b() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(9, 3), 9);  // lo >= hi returns lo
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(5);
  int hits = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sumsq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, PoissonMean) {
  Rng rng(19);
  double total = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) total += rng.poisson(4.5);
  EXPECT_NEAR(total / n, 4.5, 0.1);
}

TEST(RngTest, PoissonLargeLambdaUsesApproximation) {
  Rng rng(23);
  double total = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) total += rng.poisson(100.0);
  EXPECT_NEAR(total / n, 100.0, 1.0);
}

TEST(RngTest, PoissonZeroLambda) {
  Rng rng(29);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(31);
  double total = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) total += rng.exponential(2.0);
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(37);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40'000;
  for (int i = 0; i < n; ++i) {
    const std::size_t index = rng.weighted_index(weights);
    ASSERT_LT(index, weights.size());
    ++counts[index];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, WeightedIndexAllZeroReturnsSize) {
  Rng rng(41);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(weights), weights.size());
  EXPECT_EQ(rng.weighted_index({}), 0u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, copy);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(99);
  Rng childA = parent.fork(1);
  Rng childB = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += childA() == childB() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

// ------------------------------------------------------------------- Log

TEST(LogTest, LevelIsProcessGlobalAndRestorable) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Messages below the level are cheap no-ops; above-level emission must
  // not crash (output goes to stderr).
  log_debug("suppressed {}", 1);
  log_info("suppressed {}", 2);
  log_error("emitted at error level: {}", 3);
  set_log_level(LogLevel::kOff);
  log_error("fully suppressed");
  set_log_level(before);
}

// ----------------------------------------------------------------- split

TEST(StringsTest, SplitBasic) {
  const auto fields = split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto fields = split("a,,c,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(StringsTest, SplitEmptyInput) {
  const auto fields = split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("\t \n"), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringsTest, JoinRoundTrip) {
  const std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(join(parts, ", "), "a, b, c");
  EXPECT_EQ(join(std::vector<std::string>{}, ","), "");
}

TEST(StringsTest, CaseAndAffixes) {
  EXPECT_EQ(to_lower("HeLLo"), "hello");
  EXPECT_TRUE(starts_with("crowdweb", "crowd"));
  EXPECT_FALSE(starts_with("cr", "crowd"));
  EXPECT_TRUE(ends_with("pattern.svg", ".svg"));
  EXPECT_FALSE(ends_with("svg", ".svg"));
}

TEST(StringsTest, ParseIntStrict) {
  EXPECT_EQ(*parse_int("42"), 42);
  EXPECT_EQ(*parse_int("  -7 "), -7);
  EXPECT_FALSE(parse_int("4.2").is_ok());
  EXPECT_FALSE(parse_int("abc").is_ok());
  EXPECT_FALSE(parse_int("").is_ok());
  EXPECT_FALSE(parse_int("42x").is_ok());
}

TEST(StringsTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*parse_double("-1e3"), -1000.0);
  EXPECT_FALSE(parse_double("one").is_ok());
  EXPECT_FALSE(parse_double("").is_ok());
  // Non-finite values parse in from_chars but pass no range check.
  for (const char* text : {"nan", "-nan", "inf", "-inf"})
    EXPECT_FALSE(parse_double(text).is_ok()) << text;
}

TEST(StringsTest, UrlDecodeBasics) {
  EXPECT_EQ(*url_decode("a%20b+c"), "a b c");
  EXPECT_EQ(*url_decode("100%25"), "100%");
  EXPECT_FALSE(url_decode("%2").is_ok());
  EXPECT_FALSE(url_decode("%zz").is_ok());
}

TEST(StringsTest, UrlEncodeRoundTrip) {
  const std::string original = "time window=9-10 am & cell/42";
  const std::string encoded = url_encode(original);
  EXPECT_EQ(encoded.find(' '), std::string::npos);
  EXPECT_EQ(*url_decode(encoded), original);
}

// ------------------------------------------------------------ CivilTime

TEST(CivilTimeTest, EpochOrigin) {
  const CivilTime c = to_civil(0);
  EXPECT_EQ(c.year, 1970);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
  EXPECT_EQ(c.hour, 0);
}

TEST(CivilTimeTest, KnownDate) {
  // 2012-04-03 12:30:45 UTC = 1333456245.
  CivilTime c;
  c.year = 2012;
  c.month = 4;
  c.day = 3;
  c.hour = 12;
  c.minute = 30;
  c.second = 45;
  EXPECT_EQ(to_epoch_seconds(c), 1333456245);
  EXPECT_EQ(to_civil(1333456245), c);
}

TEST(CivilTimeTest, RoundTripSweep) {
  // Cover the paper's collection window (Apr 2012 - Feb 2013) day by day.
  const std::int64_t start = to_epoch_seconds({2012, 4, 1, 0, 0, 0});
  const std::int64_t end = to_epoch_seconds({2013, 3, 1, 0, 0, 0});
  for (std::int64_t t = start; t < end; t += 86'400 + 3'600) {
    const CivilTime c = to_civil(t);
    EXPECT_EQ(to_epoch_seconds(c), t);
  }
}

TEST(CivilTimeTest, NegativeTimestamps) {
  const CivilTime c = to_civil(-1);
  EXPECT_EQ(c.year, 1969);
  EXPECT_EQ(c.month, 12);
  EXPECT_EQ(c.day, 31);
  EXPECT_EQ(c.hour, 23);
  EXPECT_EQ(c.second, 59);
}

TEST(CivilTimeTest, DayOfWeek) {
  // 1970-01-01 was a Thursday.
  EXPECT_EQ(day_of_week(0), 4);
  // 2012-04-01 was a Sunday.
  EXPECT_EQ(day_of_week(to_epoch_seconds({2012, 4, 1, 12, 0, 0})), 0);
  // 2012-04-07 was a Saturday.
  EXPECT_EQ(day_of_week(to_epoch_seconds({2012, 4, 7, 12, 0, 0})), 6);
}

TEST(CivilTimeTest, Weekend) {
  EXPECT_TRUE(is_weekend(to_epoch_seconds({2012, 4, 1, 9, 0, 0})));   // Sunday
  EXPECT_FALSE(is_weekend(to_epoch_seconds({2012, 4, 2, 9, 0, 0})));  // Monday
}

TEST(CivilTimeTest, LeapYears) {
  EXPECT_TRUE(is_leap_year(2012));
  EXPECT_FALSE(is_leap_year(2013));
  EXPECT_FALSE(is_leap_year(1900));
  EXPECT_TRUE(is_leap_year(2000));
  EXPECT_EQ(days_in_month(2012, 2), 29);
  EXPECT_EQ(days_in_month(2013, 2), 28);
  EXPECT_EQ(days_in_month(2012, 4), 30);
  EXPECT_EQ(days_in_month(2012, 13), 0);
}

TEST(CivilTimeTest, HourAndDayIndex) {
  const std::int64_t t = to_epoch_seconds({2012, 6, 15, 17, 45, 0});
  EXPECT_EQ(hour_of_day(t), 17);
  EXPECT_EQ(day_index(t), days_from_civil(2012, 6, 15));
  EXPECT_EQ(day_index(-1), -1);  // floor semantics before the epoch
}

TEST(CivilTimeTest, Formatting) {
  const std::int64_t t = to_epoch_seconds({2012, 4, 3, 9, 5, 7});
  EXPECT_EQ(format_timestamp(t), "2012-04-03 09:05:07");
  EXPECT_EQ(format_date(t), "2012-04-03");
}

TEST(CivilTimeTest, ParseTimestampFull) {
  const auto t = parse_timestamp("2012-04-03 09:05:07");
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(format_timestamp(*t), "2012-04-03 09:05:07");
  EXPECT_EQ(*parse_timestamp("2012-04-03T09:05:07"), *t);
}

TEST(CivilTimeTest, ParseTimestampDateOnly) {
  const auto t = parse_timestamp("2012-04-03");
  ASSERT_TRUE(t.is_ok());
  EXPECT_EQ(format_timestamp(*t), "2012-04-03 00:00:00");
}

TEST(CivilTimeTest, ParseTimestampRejectsGarbage) {
  EXPECT_FALSE(parse_timestamp("not a date").is_ok());
  EXPECT_FALSE(parse_timestamp("2012/04/03").is_ok());
  EXPECT_FALSE(parse_timestamp("2012-13-03").is_ok());
  EXPECT_FALSE(parse_timestamp("2012-02-30").is_ok());
  EXPECT_FALSE(parse_timestamp("2012-04-03 25:00:00").is_ok());
  EXPECT_FALSE(parse_timestamp("2012-04-03 09:61:00").is_ok());
  EXPECT_FALSE(parse_timestamp("").is_ok());
}

TEST(CivilTimeTest, ParseFormatRoundTripProperty) {
  Rng rng(57);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t t = rng.uniform_int(0, 2'000'000'000);
    const auto parsed = parse_timestamp(format_timestamp(t));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(*parsed, t);
  }
}

}  // namespace
}  // namespace crowdweb
