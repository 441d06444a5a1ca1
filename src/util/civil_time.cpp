#include "util/civil_time.hpp"

#include <optional>

#include "util/format.hpp"
#include "util/strings.hpp"

namespace crowdweb {

namespace {

constexpr std::int64_t kSecondsPerDay = 86'400;

std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
  return a / b - ((a % b != 0 && (a ^ b) < 0) ? 1 : 0);
}

}  // namespace

std::int64_t days_from_civil(int year, int month, int day) noexcept {
  // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms".
  year -= month <= 2;
  const std::int64_t era = (year >= 0 ? year : year - 399) / 400;
  const auto yoe = static_cast<unsigned>(year - era * 400);              // [0, 399]
  const unsigned doy =
      static_cast<unsigned>((153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146'097 + static_cast<std::int64_t>(doe) - 719'468;
}

CivilTime civil_from_days(std::int64_t days) noexcept {
  days += 719'468;
  const std::int64_t era = (days >= 0 ? days : days - 146'096) / 146'097;
  const auto doe = static_cast<unsigned>(days - era * 146'097);          // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t year = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  const unsigned day = doy - (153 * mp + 2) / 5 + 1;                     // [1, 31]
  const unsigned month = mp < 10 ? mp + 3 : mp - 9;                      // [1, 12]
  CivilTime civil;
  civil.year = static_cast<int>(year + (month <= 2));
  civil.month = static_cast<int>(month);
  civil.day = static_cast<int>(day);
  return civil;
}

std::int64_t to_epoch_seconds(const CivilTime& civil) noexcept {
  return days_from_civil(civil.year, civil.month, civil.day) * kSecondsPerDay +
         civil.hour * 3600 + civil.minute * 60 + civil.second;
}

CivilTime to_civil(std::int64_t epoch_seconds) noexcept {
  const std::int64_t days = floor_div(epoch_seconds, kSecondsPerDay);
  std::int64_t rem = epoch_seconds - days * kSecondsPerDay;
  CivilTime civil = civil_from_days(days);
  civil.hour = static_cast<int>(rem / 3600);
  rem %= 3600;
  civil.minute = static_cast<int>(rem / 60);
  civil.second = static_cast<int>(rem % 60);
  return civil;
}

int day_of_week(std::int64_t epoch_seconds) noexcept {
  const std::int64_t days = floor_div(epoch_seconds, kSecondsPerDay);
  // 1970-01-01 was a Thursday (weekday 4).
  return static_cast<int>(((days % 7) + 7 + 4) % 7);
}

bool is_weekend(std::int64_t epoch_seconds) noexcept {
  const int dow = day_of_week(epoch_seconds);
  return dow == 0 || dow == 6;
}

std::int64_t day_index(std::int64_t epoch_seconds) noexcept {
  return floor_div(epoch_seconds, kSecondsPerDay);
}

int hour_of_day(std::int64_t epoch_seconds) noexcept {
  return to_civil(epoch_seconds).hour;
}

int minute_of_day(std::int64_t epoch_seconds) noexcept {
  const std::int64_t days = floor_div(epoch_seconds, kSecondsPerDay);
  return static_cast<int>((epoch_seconds - days * kSecondsPerDay) / 60);
}

std::string format_timestamp(std::int64_t epoch_seconds) {
  const CivilTime c = to_civil(epoch_seconds);
  return crowdweb::format("{:04}-{:02}-{:02} {:02}:{:02}:{:02}", c.year, c.month, c.day,
                     c.hour, c.minute, c.second);
}

std::string format_date(std::int64_t epoch_seconds) {
  const CivilTime c = to_civil(epoch_seconds);
  return crowdweb::format("{:04}-{:02}-{:02}", c.year, c.month, c.day);
}

bool is_leap_year(int year) noexcept {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int days_in_month(int year, int month) noexcept {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2 && is_leap_year(year)) return 29;
  return kDays[month - 1];
}

namespace {

/// "YYYY-MM-DD HH:MM:SS" (or 'T' between date and time) with every digit
/// an ASCII digit and every field in range; nullopt for anything else,
/// which parse_timestamp's general path then accepts or refuses.
std::optional<std::int64_t> parse_fixed_timestamp(std::string_view text) noexcept {
  if (text.size() != 19 || text[4] != '-' || text[7] != '-' ||
      (text[10] != ' ' && text[10] != 'T') || text[13] != ':' || text[16] != ':')
    return std::nullopt;
  const auto digits = [&](std::size_t pos, std::size_t len) -> int {
    int value = 0;
    for (std::size_t i = pos; i < pos + len; ++i) {
      const unsigned digit = static_cast<unsigned char>(text[i]) - unsigned{'0'};
      if (digit > 9) return -1;
      value = value * 10 + static_cast<int>(digit);
    }
    return value;
  };
  CivilTime civil;
  civil.year = digits(0, 4);
  civil.month = digits(5, 2);
  civil.day = digits(8, 2);
  civil.hour = digits(11, 2);
  civil.minute = digits(14, 2);
  civil.second = digits(17, 2);
  if (civil.year < 0 || civil.month < 1 || civil.month > 12 || civil.day < 1 ||
      civil.day > days_in_month(civil.year, civil.month) || civil.hour < 0 ||
      civil.hour > 23 || civil.minute < 0 || civil.minute > 59 || civil.second < 0 ||
      civil.second > 59)
    return std::nullopt;
  return to_epoch_seconds(civil);
}

}  // namespace

Result<std::int64_t> parse_timestamp(std::string_view text) {
  if (const auto fixed = parse_fixed_timestamp(text)) return *fixed;
  const std::string_view body = trim(text);
  if (body.size() != 10 && body.size() != 19)
    return parse_error(crowdweb::format("bad timestamp length: '{}'", text));

  const auto field = [&](std::size_t pos, std::size_t len) -> Result<std::int64_t> {
    return parse_int(body.substr(pos, len));
  };

  const auto year = field(0, 4);
  const auto month = field(5, 2);
  const auto day = field(8, 2);
  if (!year || !month || !day || body[4] != '-' || body[7] != '-')
    return parse_error(crowdweb::format("bad date: '{}'", text));

  CivilTime civil;
  civil.year = static_cast<int>(*year);
  civil.month = static_cast<int>(*month);
  civil.day = static_cast<int>(*day);
  if (civil.month < 1 || civil.month > 12)
    return out_of_range(crowdweb::format("month out of range: '{}'", text));
  if (civil.day < 1 || civil.day > days_in_month(civil.year, civil.month))
    return out_of_range(crowdweb::format("day out of range: '{}'", text));

  if (body.size() == 19) {
    if (body[10] != ' ' && body[10] != 'T')
      return parse_error(crowdweb::format("bad separator: '{}'", text));
    const auto hour = field(11, 2);
    const auto minute = field(14, 2);
    const auto second = field(17, 2);
    if (!hour || !minute || !second || body[13] != ':' || body[16] != ':')
      return parse_error(crowdweb::format("bad time: '{}'", text));
    civil.hour = static_cast<int>(*hour);
    civil.minute = static_cast<int>(*minute);
    civil.second = static_cast<int>(*second);
    if (civil.hour > 23 || civil.minute > 59 || civil.second > 59 || civil.hour < 0 ||
        civil.minute < 0 || civil.second < 0)
      return out_of_range(crowdweb::format("time out of range: '{}'", text));
  }
  return to_epoch_seconds(civil);
}

}  // namespace crowdweb
