#include "viz/color.hpp"

#include <algorithm>
#include <array>

namespace crowdweb::viz {

void append_hex(std::string& out, const Color& color) {
  static constexpr char kHex[] = "0123456789abcdef";
  const char hex[] = {'#',
                      kHex[color.r >> 4], kHex[color.r & 0xF],
                      kHex[color.g >> 4], kHex[color.g & 0xF],
                      kHex[color.b >> 4], kHex[color.b & 0xF]};
  out.append(hex, sizeof hex);
}

std::string to_hex(const Color& color) {
  std::string out;
  append_hex(out, color);
  return out;
}

Color lerp(const Color& a, const Color& b, double t) noexcept {
  t = std::clamp(t, 0.0, 1.0);
  const auto mix = [t](std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint8_t>(x + (y - x) * t + 0.5);
  };
  return {mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b)};
}

namespace {

/// Piecewise-linear ramp through control points.
template <std::size_t N>
Color ramp(const std::array<Color, N>& stops, double t) noexcept {
  t = std::clamp(t, 0.0, 1.0);
  const double scaled = t * static_cast<double>(N - 1);
  const auto index = static_cast<std::size_t>(scaled);
  if (index + 1 >= N) return stops[N - 1];
  return lerp(stops[index], stops[index + 1], scaled - static_cast<double>(index));
}

}  // namespace

Color sequential_scale(double t) noexcept {
  static constexpr std::array<Color, 5> kViridis{{{68, 1, 84},
                                                  {59, 82, 139},
                                                  {33, 145, 140},
                                                  {94, 201, 98},
                                                  {253, 231, 37}}};
  return ramp(kViridis, t);
}

Color categorical(std::size_t index) noexcept {
  static constexpr std::array<Color, 12> kPalette{{{31, 119, 180},
                                                   {255, 127, 14},
                                                   {44, 160, 44},
                                                   {214, 39, 40},
                                                   {148, 103, 189},
                                                   {140, 86, 75},
                                                   {227, 119, 194},
                                                   {127, 127, 127},
                                                   {188, 189, 34},
                                                   {23, 190, 207},
                                                   {174, 199, 232},
                                                   {255, 187, 120}}};
  return kPalette[index % kPalette.size()];
}

}  // namespace crowdweb::viz
