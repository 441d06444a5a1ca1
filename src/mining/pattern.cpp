#include "mining/pattern.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

namespace crowdweb::mining {

namespace {

__extension__ using Wide = unsigned __int128;

}  // namespace

bool is_subsequence(std::span<const Item> needle, std::span<const Item> haystack) noexcept {
  std::size_t n = 0;
  for (const Item item : haystack) {
    if (n == needle.size()) return true;
    if (item == needle[n]) ++n;
  }
  return n == needle.size();
}

std::size_t min_count(double support, std::size_t weight) noexcept {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (!(support > 0.0) || weight == 0) return 1;
  if (!std::isfinite(support)) return kMax;
  // The shortest scientific form that reads back as `support`,
  // "d.ddde-XX": support = mantissa x 10^scale exactly, with at most 17
  // mantissa digits, so mantissa x weight fits 121 bits.
  char text[32];
  const auto written = std::to_chars(text, text + sizeof text, support,
                                     std::chars_format::scientific);
  std::uint64_t mantissa = 0;
  int fraction_digits = 0;
  bool fraction = false;
  const char* p = text;
  for (; p != written.ptr && *p != 'e'; ++p) {
    if (*p == '.') {
      fraction = true;
      continue;
    }
    mantissa = mantissa * 10 + static_cast<std::uint64_t>(*p - '0');
    if (fraction) ++fraction_digits;
  }
  int exponent = 0;
  if (p != written.ptr) {
    ++p;  // 'e'
    if (p != written.ptr && *p == '+') ++p;
    std::from_chars(p, written.ptr, exponent);
  }
  const int scale = exponent - fraction_digits;
  Wide count = static_cast<Wide>(mantissa) * weight;
  if (scale >= 0) {
    for (int i = 0; i < scale; ++i) {
      if (count > kMax / 10) return kMax;
      count *= 10;
    }
  } else if (-scale > 37) {
    count = 1;  // below 10^37 over a larger power of ten: a fraction above 0
  } else {
    Wide divisor = 1;
    for (int i = 0; i < -scale; ++i) divisor *= 10;
    count = (count + divisor - 1) / divisor;
  }
  if (count > kMax) return kMax;
  return std::max<std::size_t>(1, static_cast<std::size_t>(count));
}

std::size_t SequenceColumns::total_weight() const noexcept {
  if (weights.empty()) return size();
  std::size_t total = 0;
  for (const std::uint32_t weight : weights) total += weight;
  return total;
}

void sort_patterns(std::vector<Pattern>& patterns) {
  std::sort(patterns.begin(), patterns.end(), [](const Pattern& a, const Pattern& b) {
    if (a.items.size() != b.items.size()) return a.items.size() < b.items.size();
    return a.items < b.items;
  });
}

}  // namespace crowdweb::mining
