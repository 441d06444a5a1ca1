// A small SVG document builder.
//
// Emits well-formed SVG 1.1. All text content and attribute values are
// XML-escaped; numeric attributes are rendered with enough precision for
// map work. The builder is deliberately low-level — charts and map
// renderers compose on top of it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "viz/color.hpp"

namespace crowdweb::viz {

/// Escapes &, <, >, ", ' for XML attribute/text contexts.
[[nodiscard]] std::string xml_escape(std::string_view text);

/// Appends a coordinate as every SVG attribute writes it: fixed with two
/// decimals ("{:.2f}"), "0" for NaN and ±Inf, and "?" when the fixed form
/// exceeds 64 bytes (|value| ≥ 1e62 or so).
void append_number(std::string& out, double value);

/// Style of a drawn shape.
struct Style {
  std::string fill = "none";      ///< "#rrggbb" or "none"
  std::string stroke = "none";
  double stroke_width = 1.0;
  double opacity = 1.0;
};

[[nodiscard]] inline Style fill_style(const Color& color, double opacity = 1.0) {
  return {to_hex(color), "none", 0.0, opacity};
}
[[nodiscard]] inline Style stroke_style(const Color& color, double width = 1.0,
                                        double opacity = 1.0) {
  return {"none", to_hex(color), width, opacity};
}

enum class TextAnchor { kStart, kMiddle, kEnd };

/// An SVG document under construction (origin top-left, y down).
class SvgDocument {
 public:
  SvgDocument(double width, double height);

  void rect(double x, double y, double w, double h, const Style& style, double rx = 0.0);
  void circle(double cx, double cy, double r, const Style& style);
  void line(double x1, double y1, double x2, double y2, const Style& style);
  /// Open polyline through the points.
  void polyline(const std::vector<std::pair<double, double>>& points, const Style& style);
  /// Closed filled polygon.
  void polygon(const std::vector<std::pair<double, double>>& points, const Style& style);
  /// Straight arrow with a filled head at the target.
  void arrow(double x1, double y1, double x2, double y2, const Color& color, double width);
  void text(double x, double y, std::string_view content, double size_px,
            const Color& color, TextAnchor anchor = TextAnchor::kStart,
            bool bold = false);
  /// Raw fragment escape hatch (must be well-formed SVG).
  void raw(std::string_view fragment);

  [[nodiscard]] double width() const noexcept { return width_; }
  [[nodiscard]] double height() const noexcept { return height_; }

  /// Finishes the document; the builder remains usable (idempotent).
  [[nodiscard]] std::string to_string() const;

 private:
  void append_style(const Style& style);

  double width_;
  double height_;
  std::string body_;
};

}  // namespace crowdweb::viz
