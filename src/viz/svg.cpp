#include "viz/svg.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>

namespace crowdweb::viz {

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += '0';
    return;
  }
  // Two decimals is below half a pixel everywhere we draw.
  char buffer[64];
  // Fast path: round |value| × 100 to whole cents and print those. The
  // product is off by at most half an ulp, so unless it lies within that
  // of a half cent, it rounds the way to_chars' exact digits do; near
  // halves and huge values take to_chars.
  const double scaled = std::abs(value) * 100.0;
  const double whole = std::floor(scaled);
  const double fraction = scaled - whole;
  if (scaled < 1e15 && std::abs(fraction - 0.5) > scaled * 0x1p-50) {
    const auto cents = static_cast<std::uint64_t>(whole) + (fraction > 0.5 ? 1 : 0);
    char* at = buffer;
    if (std::signbit(value)) *at++ = '-';
    at = std::to_chars(at, buffer + sizeof buffer, cents / 100).ptr;
    *at++ = '.';
    *at++ = static_cast<char>('0' + cents / 10 % 10);
    *at++ = static_cast<char>('0' + cents % 10);
    out.append(buffer, at);
    return;
  }
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof buffer, value, std::chars_format::fixed, 2);
  if (ec != std::errc{}) {
    out += '?';
    return;
  }
  out.append(buffer, end);
}

namespace {

/// Appends xml_escape(text) without a temporary.
void append_xml_escaped(std::string& out, std::string_view text) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string_view entity;
    switch (text[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      case '\'': entity = "&apos;"; break;
      default: continue;
    }
    out.append(text.data() + run, i - run);
    out += entity;
    run = i + 1;
  }
  out.append(text.data() + run, text.size() - run);
}

/// Appends ` name="value"` with `value` written by append_number.
void append_attribute(std::string& out, std::string_view name, double value) {
  out += ' ';
  out += name;
  out += "=\"";
  append_number(out, value);
  out += '"';
}

void append_points(std::string& out, const std::vector<std::pair<double, double>>& points) {
  out += " points=\"";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) out += ' ';
    append_number(out, points[i].first);
    out += ',';
    append_number(out, points[i].second);
  }
  out += '"';
}

}  // namespace

std::string xml_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_xml_escaped(out, text);
  return out;
}

SvgDocument::SvgDocument(double width, double height) : width_(width), height_(height) {}

void SvgDocument::append_style(const Style& style) {
  body_ += " fill=\"";
  append_xml_escaped(body_, style.fill);
  body_ += "\" stroke=\"";
  append_xml_escaped(body_, style.stroke);
  body_ += '"';
  if (style.stroke != "none") append_attribute(body_, "stroke-width", style.stroke_width);
  if (style.opacity < 1.0) append_attribute(body_, "opacity", style.opacity);
}

void SvgDocument::rect(double x, double y, double w, double h, const Style& style,
                       double rx) {
  body_ += "<rect";
  append_attribute(body_, "x", x);
  append_attribute(body_, "y", y);
  append_attribute(body_, "width", w);
  append_attribute(body_, "height", h);
  if (rx > 0.0) append_attribute(body_, "rx", rx);
  append_style(style);
  body_ += "/>\n";
}

void SvgDocument::circle(double cx, double cy, double r, const Style& style) {
  body_ += "<circle";
  append_attribute(body_, "cx", cx);
  append_attribute(body_, "cy", cy);
  append_attribute(body_, "r", r);
  append_style(style);
  body_ += "/>\n";
}

void SvgDocument::line(double x1, double y1, double x2, double y2, const Style& style) {
  body_ += "<line";
  append_attribute(body_, "x1", x1);
  append_attribute(body_, "y1", y1);
  append_attribute(body_, "x2", x2);
  append_attribute(body_, "y2", y2);
  append_style(style);
  body_ += "/>\n";
}

void SvgDocument::polyline(const std::vector<std::pair<double, double>>& points,
                           const Style& style) {
  if (points.size() < 2) return;
  body_ += "<polyline";
  append_points(body_, points);
  append_style(style);
  body_ += "/>\n";
}

void SvgDocument::polygon(const std::vector<std::pair<double, double>>& points,
                          const Style& style) {
  if (points.size() < 3) return;
  body_ += "<polygon";
  append_points(body_, points);
  append_style(style);
  body_ += "/>\n";
}

void SvgDocument::arrow(double x1, double y1, double x2, double y2, const Color& color,
                        double width) {
  const double dx = x2 - x1;
  const double dy = y2 - y1;
  const double length = std::hypot(dx, dy);
  if (length < 1e-9) return;
  line(x1, y1, x2, y2, stroke_style(color, width));
  // Arrow head: an isosceles triangle at the target.
  const double ux = dx / length;
  const double uy = dy / length;
  const double head = std::max(4.0, 3.0 * width);
  const double bx = x2 - ux * head;
  const double by = y2 - uy * head;
  polygon({{x2, y2},
           {bx - uy * head * 0.5, by + ux * head * 0.5},
           {bx + uy * head * 0.5, by - ux * head * 0.5}},
          fill_style(color));
}

void SvgDocument::text(double x, double y, std::string_view content, double size_px,
                       const Color& color, TextAnchor anchor, bool bold) {
  const std::string_view anchor_name =
      anchor == TextAnchor::kStart ? "start" : (anchor == TextAnchor::kMiddle ? "middle" : "end");
  body_ += "<text";
  append_attribute(body_, "x", x);
  append_attribute(body_, "y", y);
  append_attribute(body_, "font-size", size_px);
  body_ += " fill=\"";
  append_hex(body_, color);
  body_ += "\" text-anchor=\"";
  body_ += anchor_name;
  body_ += "\" font-family=\"Helvetica,Arial,sans-serif\"";
  if (bold) body_ += " font-weight=\"bold\"";
  body_ += ">";
  append_xml_escaped(body_, content);
  body_ += "</text>\n";
}

void SvgDocument::raw(std::string_view fragment) { body_ += fragment; }

std::string SvgDocument::to_string() const {
  std::string out;
  out.reserve(body_.size() + 160);
  out += "<svg xmlns=\"http://www.w3.org/2000/svg\"";
  append_attribute(out, "width", width_);
  append_attribute(out, "height", height_);
  out += " viewBox=\"0 0 ";
  append_number(out, width_);
  out += ' ';
  append_number(out, height_);
  out += "\">\n";
  out += body_;
  out += "</svg>\n";
  return out;
}

}  // namespace crowdweb::viz
