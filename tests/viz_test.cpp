#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "json/json.hpp"
#include "reference/render_oracle.hpp"
#include "util/rng.hpp"
#include "viz/charts.hpp"
#include "viz/citymap.hpp"
#include "viz/color.hpp"
#include "viz/geojson.hpp"
#include "viz/layout.hpp"
#include "viz/svg.hpp"

namespace crowdweb::viz {
namespace {

// ------------------------------------------------------------------ Color

TEST(ColorTest, HexFormatting) {
  EXPECT_EQ(to_hex({0, 0, 0}), "#000000");
  EXPECT_EQ(to_hex({255, 255, 255}), "#ffffff");
  EXPECT_EQ(to_hex({31, 119, 180}), "#1f77b4");
}

TEST(ColorTest, LerpEndpointsAndMidpoint) {
  const Color a{0, 0, 0};
  const Color b{200, 100, 50};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  const Color mid = lerp(a, b, 0.5);
  EXPECT_EQ(mid.r, 100);
  EXPECT_EQ(mid.g, 50);
  EXPECT_EQ(mid.b, 25);
  EXPECT_EQ(lerp(a, b, -1.0), a);  // clamped
  EXPECT_EQ(lerp(a, b, 2.0), b);
}

TEST(ColorTest, SequentialScaleEndpoints) {
  EXPECT_EQ(sequential_scale(0.0), (Color{68, 1, 84}));
  EXPECT_EQ(sequential_scale(1.0), (Color{253, 231, 37}));
  // Monotone-ish brightness increase.
  const auto brightness = [](const Color& c) {
    return 0.299 * c.r + 0.587 * c.g + 0.114 * c.b;
  };
  EXPECT_LT(brightness(sequential_scale(0.1)), brightness(sequential_scale(0.9)));
}

TEST(ColorTest, CategoricalCycles) {
  EXPECT_EQ(categorical(0), categorical(12));
  EXPECT_NE(categorical(0), categorical(1));
}

// -------------------------------------------------------------------- SVG

TEST(SvgTest, XmlEscaping) {
  EXPECT_EQ(xml_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
  EXPECT_EQ(xml_escape("plain"), "plain");
}

TEST(SvgTest, DocumentSkeleton) {
  SvgDocument svg(100, 50);
  const std::string out = svg.to_string();
  EXPECT_NE(out.find("<svg xmlns=\"http://www.w3.org/2000/svg\""), std::string::npos);
  EXPECT_NE(out.find("width=\"100.00\""), std::string::npos);
  EXPECT_NE(out.find("</svg>"), std::string::npos);
}

TEST(SvgTest, ShapesRendered) {
  SvgDocument svg(200, 200);
  svg.rect(1, 2, 3, 4, fill_style({255, 0, 0}));
  svg.circle(10, 10, 5, stroke_style({0, 255, 0}, 2.0));
  svg.line(0, 0, 10, 10, stroke_style({0, 0, 255}));
  svg.polyline({{0, 0}, {5, 5}, {10, 0}}, stroke_style({1, 2, 3}));
  svg.polygon({{0, 0}, {5, 5}, {10, 0}}, fill_style({4, 5, 6}));
  svg.text(5, 5, "label <&>", 12, {0, 0, 0});
  const std::string out = svg.to_string();
  EXPECT_NE(out.find("<rect"), std::string::npos);
  EXPECT_NE(out.find("<circle"), std::string::npos);
  EXPECT_NE(out.find("<line"), std::string::npos);
  EXPECT_NE(out.find("<polyline"), std::string::npos);
  EXPECT_NE(out.find("<polygon"), std::string::npos);
  EXPECT_NE(out.find("label &lt;&amp;&gt;"), std::string::npos);
  EXPECT_EQ(out.find("label <&>"), std::string::npos);
}

TEST(SvgTest, DegenerateShapesOmitted) {
  SvgDocument svg(10, 10);
  svg.polyline({{0, 0}}, stroke_style({0, 0, 0}));  // 1 point: skipped
  svg.polygon({{0, 0}, {1, 1}}, fill_style({0, 0, 0}));  // 2 points: skipped
  svg.arrow(5, 5, 5, 5, {0, 0, 0}, 1.0);  // zero length: skipped
  const std::string out = svg.to_string();
  EXPECT_EQ(out.find("<polyline"), std::string::npos);
  EXPECT_EQ(out.find("<polygon"), std::string::npos);
  EXPECT_EQ(out.find("<line"), std::string::npos);
}

TEST(SvgTest, ArrowHasShaftAndHead) {
  SvgDocument svg(100, 100);
  svg.arrow(0, 0, 50, 50, {10, 20, 30}, 2.0);
  const std::string out = svg.to_string();
  EXPECT_NE(out.find("<line"), std::string::npos);
  EXPECT_NE(out.find("<polygon"), std::string::npos);
}

// Every SVG attribute number is appended by append_number; it must spell
// each value as crowdweb::format("{:.2f}") did, including the two
// fallbacks: "0" for a non-finite value and "?" past the 64-byte buffer.
std::string appended_number(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

TEST(SvgNumberOracleTest, EdgeValuesMatchTheFormatSpelling) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double value : {0.0, -0.0, -0.004, 0.005, 0.015, 2.675, 1e15, 1e70,
                             std::nan(""), kInf, -kInf, -1e70, 1e61, 1e62, 1e63,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::denorm_min()})
    EXPECT_EQ(appended_number(value), format_number_2f(value)) << value;
  EXPECT_EQ(appended_number(-0.0), "-0.00");
  EXPECT_EQ(appended_number(1e70), "?");
  EXPECT_EQ(appended_number(std::nan("")), "0");
  EXPECT_EQ(appended_number(-kInf), "0");
}

TEST(SvgNumberOracleTest, RandomDoublesMatchTheFormatSpelling) {
  crowdweb::Rng rng(30);
  for (int i = 0; i < 100'000; ++i) {
    double value = 0.0;
    switch (i % 5) {
      case 0:  // canvas coordinates
        value = rng.uniform(-2000.0, 2000.0);
        break;
      case 1:  // half-cent ties and their neighbours
        value = static_cast<double>(rng.uniform_int(-200'000, 200'000)) / 1000.0 +
                static_cast<double>(rng.uniform_int(-1, 1)) * 1e-12;
        break;
      case 2: {  // k/200 (exact ties when representable) and the next doubles
        const double tie = static_cast<double>(rng.uniform_int(-20'000'000, 20'000'000)) / 200.0;
        const auto step = rng.uniform_int(-1, 1);
        value = step == 0 ? tie : std::nextafter(tie, step > 0 ? 1e300 : -1e300);
        break;
      }
      case 3:  // large magnitudes, where a cent is below the double's precision
        value = rng.uniform(-1e16, 1e16) * std::pow(10.0, -static_cast<double>(rng.uniform_int(0, 6)));
        break;
      default: {  // any bit pattern: subnormals, huge values, NaN, Inf
        const std::uint64_t bits = rng();
        std::memcpy(&value, &bits, sizeof value);
      }
    }
    ASSERT_EQ(appended_number(value), format_number_2f(value)) << value;
  }
}

// ----------------------------------------------------------------- Charts

TEST(ChartsTest, NiceTicksAreRound) {
  const auto ticks = nice_ticks(0.0, 1.0, 5);
  ASSERT_GE(ticks.size(), 3u);
  EXPECT_DOUBLE_EQ(ticks.front(), 0.0);
  for (std::size_t i = 1; i < ticks.size(); ++i) EXPECT_GT(ticks[i], ticks[i - 1]);
  EXPECT_TRUE(nice_ticks(5.0, 5.0, 4).size() == 1);
  EXPECT_TRUE(nice_ticks(0.0, 1.0, 0).empty());
}

TEST(ChartsTest, LineChartContainsSeriesAndLabels) {
  LineChartSpec spec;
  spec.title = "Sequences vs support";
  spec.x_label = "minimum support";
  spec.y_label = "sequences per user";
  spec.series.push_back({"prefixspan", {0.25, 0.5, 0.75}, {4.2, 0.9, 0.1}});
  const std::string out = render_line_chart(spec);
  EXPECT_NE(out.find("Sequences vs support"), std::string::npos);
  EXPECT_NE(out.find("minimum support"), std::string::npos);
  EXPECT_NE(out.find("<polyline"), std::string::npos);
  EXPECT_NE(out.find("<circle"), std::string::npos);  // markers
}

TEST(ChartsTest, LineChartEmptySeriesStillValid) {
  LineChartSpec spec;
  spec.title = "empty";
  const std::string out = render_line_chart(spec);
  EXPECT_NE(out.find("<svg"), std::string::npos);
  EXPECT_NE(out.find("</svg>"), std::string::npos);
}

TEST(ChartsTest, BarChartBarsMatchInput) {
  BarChartSpec spec;
  spec.title = "Monthly check-ins";
  spec.bars = {{"Apr", 26000}, {"May", 30000}, {"Jun", 25000}};
  const std::string out = render_bar_chart(spec);
  EXPECT_NE(out.find("Apr"), std::string::npos);
  EXPECT_NE(out.find("May"), std::string::npos);
  // Three bars + background rect + legend rects; at least 4 rects.
  std::size_t rects = 0;
  for (std::size_t pos = out.find("<rect"); pos != std::string::npos;
       pos = out.find("<rect", pos + 1))
    ++rects;
  EXPECT_GE(rects, 4u);
}

TEST(ChartsTest, DistributionPlotHasHistogramAndCurve) {
  DistributionPlotSpec spec;
  spec.title = "Distribution";
  spec.x_label = "value";
  for (int i = 0; i < 500; ++i)
    spec.values.push_back(std::sin(i * 0.7) * 3.0 + 10.0);
  const std::string out = render_distribution_plot(spec);
  EXPECT_NE(out.find("<polyline"), std::string::npos);  // KDE curve
  EXPECT_NE(out.find("density"), std::string::npos);
  std::size_t rects = 0;
  for (std::size_t pos = out.find("<rect"); pos != std::string::npos;
       pos = out.find("<rect", pos + 1))
    ++rects;
  EXPECT_GE(rects, spec.bins / 2);  // most bins non-empty
}

TEST(ChartsTest, DistributionPlotEmptyInput) {
  DistributionPlotSpec spec;
  const std::string out = render_distribution_plot(spec);
  EXPECT_NE(out.find("<svg"), std::string::npos);
}

TEST(ChartsTest, HeatmapRendersCellsAndLabels) {
  HeatmapSpec spec;
  spec.title = "Rhythm";
  spec.row_labels = {"Eatery", "Residence"};
  spec.col_labels = {"08", "09", "10"};
  spec.values = {{1.0, 5.0, 2.0}, {0.0, 0.0, 9.0}};
  const std::string out = render_heatmap(spec);
  EXPECT_NE(out.find("Rhythm"), std::string::npos);
  EXPECT_NE(out.find("Eatery"), std::string::npos);
  EXPECT_NE(out.find("09"), std::string::npos);
  // 6 cells + background: at least 7 rects.
  std::size_t rects = 0;
  for (std::size_t pos = out.find("<rect"); pos != std::string::npos;
       pos = out.find("<rect", pos + 1))
    ++rects;
  EXPECT_GE(rects, 7u);
}

TEST(ChartsTest, HeatmapEmptyAndRagged) {
  HeatmapSpec spec;
  spec.title = "empty";
  EXPECT_NE(render_heatmap(spec).find("</svg>"), std::string::npos);
  spec.row_labels = {"a", "b"};
  spec.col_labels = {"x", "y", "z"};
  spec.values = {{1.0}};  // ragged: missing cells render as empty
  EXPECT_NE(render_heatmap(spec).find("</svg>"), std::string::npos);
}

// ----------------------------------------------------------------- Layout

TEST(LayoutTest, PositionsInsideCanvas) {
  std::vector<patterns::PlaceEdge> edges{{0, 1, 3}, {1, 2, 1}, {2, 0, 2}};
  LayoutOptions options;
  options.width = 300;
  options.height = 200;
  const auto positions = force_layout(5, edges, options);
  ASSERT_EQ(positions.size(), 5u);
  for (const auto& [x, y] : positions) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 300.0);
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 200.0);
  }
}

TEST(LayoutTest, DeterministicForSeed) {
  std::vector<patterns::PlaceEdge> edges{{0, 1, 1}};
  const auto a = force_layout(4, edges, {});
  const auto b = force_layout(4, edges, {});
  EXPECT_EQ(a, b);
}

TEST(LayoutTest, ConnectedNodesEndUpCloserThanUnconnected) {
  // Two tight pairs with no cross edges.
  std::vector<patterns::PlaceEdge> edges{{0, 1, 10}, {2, 3, 10}};
  const auto p = force_layout(4, edges, {});
  const auto dist = [&](std::size_t i, std::size_t j) {
    return std::hypot(p[i].first - p[j].first, p[i].second - p[j].second);
  };
  EXPECT_LT(dist(0, 1), dist(0, 2));
  EXPECT_LT(dist(2, 3), dist(1, 3));
}

TEST(LayoutTest, EmptyAndSingleNode) {
  EXPECT_TRUE(force_layout(0, {}, {}).empty());
  const auto single = force_layout(1, {}, {});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_NEAR(single[0].first, 320.0, 1.0);  // centered on default canvas
}

TEST(LayoutTest, RenderPlaceGraphEmitsNodes) {
  patterns::PlaceGraph graph;
  graph.nodes.push_back({1, "Eatery", 15, 510.0});
  graph.nodes.push_back({2, "Office & Co", 10, 545.0});
  graph.edges.push_back({0, 1, 10});
  PlaceGraphRender render;
  render.title = "User 7";
  const std::string out = render_place_graph(graph, render);
  EXPECT_NE(out.find("Eatery"), std::string::npos);
  EXPECT_NE(out.find("Office &amp; Co"), std::string::npos);  // escaped
  EXPECT_NE(out.find("User 7"), std::string::npos);
  EXPECT_NE(out.find("<circle"), std::string::npos);
}

// ---------------------------------------------------------------- CityMap

geo::SpatialGrid test_grid() {
  geo::BoundingBox box;
  box.min_lat = 40.6;
  box.max_lat = 40.8;
  box.min_lon = -74.05;
  box.max_lon = -73.85;
  auto grid = geo::SpatialGrid::create(box, 1000.0);
  EXPECT_TRUE(grid.is_ok());
  return *grid;
}

TEST(CityMapTest, HeatMapContainsCellsAndLegend) {
  const geo::SpatialGrid grid = test_grid();
  crowd::CrowdDistribution dist(9);
  dist.add(grid.clamped_cell_of({40.7, -74.0}), 12);
  dist.add(grid.clamped_cell_of({40.75, -73.9}), 4);
  CityMapOptions options;
  options.title = "Crowd 09:00-10:00";
  const data::Dataset dataset;
  const std::string out = render_city_map(dist, grid, dataset, options);
  EXPECT_NE(out.find("Crowd 09:00-10:00"), std::string::npos);
  EXPECT_NE(out.find("16 users placed"), std::string::npos);
  EXPECT_NE(out.find("12"), std::string::npos);  // bubble label
}

TEST(CityMapTest, FlowMapDrawsArrows) {
  const geo::SpatialGrid grid = test_grid();
  crowd::FlowMatrix flow(9, 12);
  flow.add(grid.clamped_cell_of({40.7, -74.0}), grid.clamped_cell_of({40.75, -73.9}), 6);
  crowd::CrowdDistribution dest(12);
  dest.add(grid.clamped_cell_of({40.75, -73.9}), 6);
  const data::Dataset dataset;
  const std::string out = render_flow_map(flow, dest, grid, dataset, {});
  EXPECT_NE(out.find("<polygon"), std::string::npos);  // arrow head
  EXPECT_NE(out.find("6 users tracked"), std::string::npos);
}

TEST(CityMapTest, EmptyDistributionStillRenders) {
  const geo::SpatialGrid grid = test_grid();
  const data::Dataset dataset;
  const std::string out = render_city_map(crowd::CrowdDistribution(0), grid, dataset, {});
  EXPECT_NE(out.find("<svg"), std::string::npos);
  EXPECT_NE(out.find("0 users placed"), std::string::npos);
}

// ---------------------------------------------------------------- GeoJSON

TEST(GeoJsonTest, DistributionFeatures) {
  const geo::SpatialGrid grid = test_grid();
  crowd::CrowdDistribution dist(9);
  const geo::CellId cell = grid.clamped_cell_of({40.7, -74.0});
  dist.add(cell, 5);
  const json::Value doc = distribution_geojson(dist, grid);
  EXPECT_EQ(doc.find("type")->as_string(), "FeatureCollection");
  const auto& features = doc.find("features")->as_array();
  ASSERT_EQ(features.size(), 1u);
  const json::Value& feature = features[0];
  EXPECT_EQ(feature.find("geometry")->find("type")->as_string(), "Polygon");
  EXPECT_EQ(feature.find("properties")->find("count")->as_int(), 5);
  EXPECT_EQ(feature.find("properties")->find("window")->as_int(), 9);
  // Ring is closed: first == last coordinate.
  const auto& ring = feature.find("geometry")->find("coordinates")->as_array()[0].as_array();
  ASSERT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.front(), ring.back());
  // GeoJSON is [lon, lat]: longitude in NYC is negative.
  EXPECT_LT(ring[0].as_array()[0].as_double(), 0.0);
  EXPECT_GT(ring[0].as_array()[1].as_double(), 0.0);
}

TEST(GeoJsonTest, FlowLineStringsSkipStays) {
  const geo::SpatialGrid grid = test_grid();
  crowd::FlowMatrix flow(9, 12);
  const geo::CellId a = grid.clamped_cell_of({40.7, -74.0});
  const geo::CellId b = grid.clamped_cell_of({40.75, -73.9});
  flow.add(a, b, 3);
  flow.add(a, a, 9);  // stay: omitted
  const json::Value doc = flow_geojson(flow, grid);
  const auto& features = doc.find("features")->as_array();
  ASSERT_EQ(features.size(), 1u);
  EXPECT_EQ(features[0].find("geometry")->find("type")->as_string(), "LineString");
  EXPECT_EQ(features[0].find("properties")->find("count")->as_int(), 3);
}

TEST(GeoJsonTest, VenuePoints) {
  const data::Taxonomy& tax = data::Taxonomy::foursquare();
  data::DatasetBuilder builder;
  data::VenueSpec v;
  v.id = 0;
  v.name = "Thai Pothong";
  v.category = *tax.find("Thai Restaurant");
  v.position = {40.7, -74.0};
  ASSERT_TRUE(builder.add_venue(v).is_ok());
  data::CheckIn c;
  c.user = 1;
  c.venue = 0;
  c.category = v.category;
  c.position = v.position;
  c.timestamp = 1000;
  ASSERT_TRUE(builder.add_checkin(c).is_ok());
  const data::Dataset dataset = builder.build();

  const json::Value doc = venues_geojson(dataset, tax);
  const auto& features = doc.find("features")->as_array();
  ASSERT_EQ(features.size(), 1u);
  EXPECT_EQ(features[0].find("properties")->find("name")->as_string(), "Thai Pothong");
  EXPECT_EQ(features[0].find("properties")->find("category")->as_string(),
            "Thai Restaurant");
}

TEST(GeoJsonTest, OutputsParseAsJson) {
  const geo::SpatialGrid grid = test_grid();
  crowd::CrowdDistribution dist(9);
  dist.add(grid.clamped_cell_of({40.7, -74.0}), 5);
  const std::string text = json::dump(distribution_geojson(dist, grid));
  EXPECT_TRUE(json::parse(text).is_ok());
}

}  // namespace
}  // namespace crowdweb::viz
