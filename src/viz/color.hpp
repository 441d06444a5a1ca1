// Colors and color scales for the renderers.
#pragma once

#include <cstdint>
#include <string>

namespace crowdweb::viz {

/// An sRGB color.
struct Color {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;

  friend bool operator==(const Color&, const Color&) = default;
};

/// "#rrggbb".
[[nodiscard]] std::string to_hex(const Color& color);
/// Appends to_hex(color) to `out`.
void append_hex(std::string& out, const Color& color);

/// Linear interpolation in sRGB, t clamped to [0, 1].
[[nodiscard]] Color lerp(const Color& a, const Color& b, double t) noexcept;

/// Sequential scale for densities/heat maps (viridis-like: dark violet ->
/// teal -> yellow). t is clamped to [0, 1].
[[nodiscard]] Color sequential_scale(double t) noexcept;

/// A categorical palette of 12 visually distinct colors, cycled by index.
[[nodiscard]] Color categorical(std::size_t index) noexcept;

}  // namespace crowdweb::viz
