#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "geo/grid.hpp"
#include "geo/point.hpp"
#include "geo/quadtree.hpp"
#include "reference/dbscan.hpp"
#include "util/rng.hpp"

namespace crowdweb::geo {
namespace {

// New York City area used throughout (the paper's dataset city).
constexpr LatLon kTimesSquare{40.7580, -73.9855};
constexpr LatLon kWallStreet{40.7061, -74.0092};

BoundingBox nyc_bounds() {
  BoundingBox box;
  box.min_lat = 40.55;
  box.max_lat = 40.92;
  box.min_lon = -74.1;
  box.max_lon = -73.68;
  return box;
}

// ----------------------------------------------------------------- Point

TEST(PointTest, Validity) {
  EXPECT_TRUE(is_valid(kTimesSquare));
  EXPECT_FALSE(is_valid({91.0, 0.0}));
  EXPECT_FALSE(is_valid({0.0, 181.0}));
  EXPECT_FALSE(is_valid({std::nan(""), 0.0}));
}

TEST(PointTest, HaversineZeroForSamePoint) {
  EXPECT_DOUBLE_EQ(haversine_meters(kTimesSquare, kTimesSquare), 0.0);
}

TEST(PointTest, HaversineKnownDistance) {
  // Times Square to Wall Street is roughly 6.1 km.
  const double d = haversine_meters(kTimesSquare, kWallStreet);
  EXPECT_NEAR(d, 6100.0, 300.0);
}

TEST(PointTest, HaversineSymmetric) {
  EXPECT_DOUBLE_EQ(haversine_meters(kTimesSquare, kWallStreet),
                   haversine_meters(kWallStreet, kTimesSquare));
}

TEST(PointTest, EquirectApproximatesHaversineAtCityScale) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const LatLon a{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)};
    const LatLon b{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)};
    const double exact = haversine_meters(a, b);
    const double approx = equirect_meters(a, b);
    EXPECT_NEAR(approx, exact, std::max(1.0, exact * 0.005));
  }
}

TEST(PointTest, OffsetMetersInvertsDistance) {
  const LatLon moved = offset_meters(kTimesSquare, 500.0, -300.0);
  const double d = haversine_meters(kTimesSquare, moved);
  EXPECT_NEAR(d, std::sqrt(500.0 * 500.0 + 300.0 * 300.0), 2.0);
}

TEST(ProjectionTest, RoundTrip) {
  const Projection proj(kTimesSquare);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const LatLon p{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)};
    const LatLon back = proj.to_latlon(proj.to_xy(p));
    EXPECT_NEAR(back.lat, p.lat, 1e-9);
    EXPECT_NEAR(back.lon, p.lon, 1e-9);
  }
}

TEST(ProjectionTest, DistancesPreservedLocally) {
  const Projection proj(kTimesSquare);
  const XY a = proj.to_xy(kTimesSquare);
  const XY b = proj.to_xy(kWallStreet);
  const double planar = std::hypot(a.x - b.x, a.y - b.y);
  EXPECT_NEAR(planar, haversine_meters(kTimesSquare, kWallStreet), 30.0);
}

// ----------------------------------------------------------- BoundingBox

TEST(BoundingBoxTest, EmptyAndExtend) {
  BoundingBox box;
  EXPECT_TRUE(box.empty());
  box.extend(kTimesSquare);
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.contains(kTimesSquare));
  box.extend(kWallStreet);
  EXPECT_TRUE(box.contains(kWallStreet));
  EXPECT_TRUE(box.contains(box.center()));
}

TEST(BoundingBoxTest, Intersections) {
  const BoundingBox nyc = nyc_bounds();
  BoundingBox manhattan;
  manhattan.extend(LatLon{40.70, -74.02});
  manhattan.extend(LatLon{40.88, -73.90});
  EXPECT_TRUE(nyc.intersects(manhattan));
  BoundingBox london;
  london.extend(LatLon{51.4, -0.2});
  london.extend(LatLon{51.6, 0.1});
  EXPECT_FALSE(nyc.intersects(london));
  EXPECT_FALSE(BoundingBox{}.intersects(nyc));
}

TEST(BoundingBoxTest, Inflated) {
  const BoundingBox box = nyc_bounds().inflated(0.1);
  EXPECT_DOUBLE_EQ(box.min_lat, 40.45);
  EXPECT_DOUBLE_EQ(box.max_lon, -73.58);
}

// ------------------------------------------------------------------ Grid

TEST(GridTest, CreateRejectsBadInput) {
  EXPECT_FALSE(SpatialGrid::create(BoundingBox{}, 500.0).is_ok());
  EXPECT_FALSE(SpatialGrid::create(nyc_bounds(), 0.0).is_ok());
  EXPECT_FALSE(SpatialGrid::create(nyc_bounds(), -5.0).is_ok());
  EXPECT_FALSE(SpatialGrid::create(nyc_bounds(), 0.001).is_ok());  // >16M cells
}

TEST(GridTest, DimensionsMatchCellSize) {
  const auto grid = SpatialGrid::create(nyc_bounds(), 500.0);
  ASSERT_TRUE(grid.is_ok());
  // NYC box is ~41 km tall and ~35 km wide.
  EXPECT_NEAR(grid->rows(), 82, 5);
  EXPECT_NEAR(grid->cols(), 71, 5);
  EXPECT_EQ(grid->cell_count(), static_cast<std::size_t>(grid->rows()) * grid->cols());
}

TEST(GridTest, CellOfInsideAndOutside) {
  const auto grid = SpatialGrid::create(nyc_bounds(), 500.0);
  ASSERT_TRUE(grid.is_ok());
  const auto cell = grid->cell_of(kTimesSquare);
  ASSERT_TRUE(cell.has_value());
  EXPECT_LT(*cell, grid->cell_count());
  EXPECT_FALSE(grid->cell_of({51.5, -0.1}).has_value());
  EXPECT_LT(grid->clamped_cell_of({51.5, -0.1}), grid->cell_count());
}

TEST(GridTest, CellCenterMapsBackToSameCell) {
  const auto grid = SpatialGrid::create(nyc_bounds(), 750.0);
  ASSERT_TRUE(grid.is_ok());
  Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    const LatLon p{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)};
    const auto cell = grid->cell_of(p);
    ASSERT_TRUE(cell.has_value());
    const auto again = grid->cell_of(grid->cell_center(*cell));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *cell);
  }
}

TEST(GridTest, CellBoundsContainPoint) {
  const auto grid = SpatialGrid::create(nyc_bounds(), 600.0);
  ASSERT_TRUE(grid.is_ok());
  const auto cell = grid->cell_of(kWallStreet);
  ASSERT_TRUE(cell.has_value());
  EXPECT_TRUE(grid->cell_bounds(*cell).contains(kWallStreet));
}

TEST(GridTest, RowColDecomposition) {
  const auto grid = SpatialGrid::create(nyc_bounds(), 500.0);
  ASSERT_TRUE(grid.is_ok());
  const CellId cell = grid->clamped_cell_of(kTimesSquare);
  EXPECT_EQ(grid->row_of(cell) * grid->cols() + grid->col_of(cell), cell);
}

TEST(GridTest, NeighborsCountByPosition) {
  const auto grid = SpatialGrid::create(nyc_bounds(), 2000.0);
  ASSERT_TRUE(grid.is_ok());
  ASSERT_GE(grid->rows(), 3u);
  ASSERT_GE(grid->cols(), 3u);
  EXPECT_EQ(grid->neighbors(0).size(), 3u);  // corner
  const CellId middle = grid->cols() + 1;    // row 1, col 1
  EXPECT_EQ(grid->neighbors(middle).size(), 8u);
  for (const CellId n : grid->neighbors(middle)) EXPECT_LT(n, grid->cell_count());
}

TEST(GridTest, EveryPointLandsInExactlyOneCell) {
  const auto grid = SpatialGrid::create(nyc_bounds(), 1000.0);
  ASSERT_TRUE(grid.is_ok());
  Rng rng(31);
  std::vector<int> counts(grid->cell_count(), 0);
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const LatLon p{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)};
    const auto cell = grid->cell_of(p);
    ASSERT_TRUE(cell.has_value());
    ++counts[*cell];
  }
  int total = 0;
  for (const int c : counts) total += c;
  EXPECT_EQ(total, n);
}

class GridSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(GridSweepTest, InvariantsHoldAtEveryResolution) {
  const double cell_meters = GetParam();
  const auto grid = SpatialGrid::create(nyc_bounds(), cell_meters);
  ASSERT_TRUE(grid.is_ok());
  Rng rng(static_cast<std::uint64_t>(cell_meters));
  for (int i = 0; i < 200; ++i) {
    const LatLon p{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)};
    const auto cell = grid->cell_of(p);
    ASSERT_TRUE(cell.has_value());
    // The cell's bounds contain the point and its center maps back.
    EXPECT_TRUE(grid->cell_bounds(*cell).contains(p));
    EXPECT_EQ(grid->clamped_cell_of(grid->cell_center(*cell)), *cell);
    // Cell extent is close to the requested size (within 50%).
    const BoundingBox box = grid->cell_bounds(*cell);
    const double height =
        haversine_meters({box.min_lat, box.min_lon}, {box.max_lat, box.min_lon});
    EXPECT_GT(height, cell_meters * 0.5);
    EXPECT_LT(height, cell_meters * 1.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GridSweepTest,
                         ::testing::Values(100.0, 250.0, 500.0, 1000.0, 2000.0, 5000.0));

// --------------------------------------------- DBSCAN (test-only reference)

std::vector<LatLon> gaussian_blob(Rng& rng, const LatLon& center, double spread_m,
                                  std::size_t n) {
  std::vector<LatLon> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(offset_meters(center, rng.normal(0.0, spread_m), rng.normal(0.0, spread_m)));
  return out;
}

TEST(DbscanTest, Validation) {
  const std::vector<LatLon> points{kTimesSquare};
  DbscanOptions options;
  options.eps_meters = 0.0;
  EXPECT_FALSE(dbscan(points, options).is_ok());
  options = DbscanOptions{};
  options.min_points = 0;
  EXPECT_FALSE(dbscan(points, options).is_ok());
  const std::vector<LatLon> invalid{{99.0, 0.0}};
  EXPECT_FALSE(dbscan(invalid, DbscanOptions{}).is_ok());
  EXPECT_TRUE(dbscan(std::vector<LatLon>{}, DbscanOptions{}).is_ok());
}

TEST(DbscanTest, SeparatesTwoBlobsAndNoise) {
  Rng rng(77);
  std::vector<LatLon> points = gaussian_blob(rng, kTimesSquare, 80.0, 60);
  const auto blob2 = gaussian_blob(rng, kWallStreet, 80.0, 60);
  points.insert(points.end(), blob2.begin(), blob2.end());
  // Lone noise point far from both.
  points.push_back(offset_meters(kTimesSquare, 15'000.0, 15'000.0));

  DbscanOptions options;
  options.eps_meters = 250.0;
  options.min_points = 5;
  const auto labels = dbscan(points, options);
  ASSERT_TRUE(labels.is_ok());
  EXPECT_EQ(cluster_count(*labels), 2u);
  // Blob membership: every point of blob 1 shares a label.
  const int first = (*labels)[0];
  ASSERT_NE(first, kNoise);
  for (std::size_t i = 0; i < 60; ++i) EXPECT_EQ((*labels)[i], first);
  const int second = (*labels)[60];
  ASSERT_NE(second, kNoise);
  EXPECT_NE(first, second);
  for (std::size_t i = 60; i < 120; ++i) EXPECT_EQ((*labels)[i], second);
  EXPECT_EQ(labels->back(), kNoise);
}

TEST(DbscanTest, AllNoiseWhenSparse) {
  Rng rng(79);
  std::vector<LatLon> points;
  for (int i = 0; i < 30; ++i)
    points.push_back({rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)});
  DbscanOptions options;
  options.eps_meters = 50.0;  // far tighter than typical spacing
  options.min_points = 4;
  const auto labels = dbscan(points, options);
  ASSERT_TRUE(labels.is_ok());
  EXPECT_EQ(cluster_count(*labels), 0u);
  for (const int label : *labels) EXPECT_EQ(label, kNoise);
}

TEST(DbscanTest, MinPointsOneClustersEverything) {
  Rng rng(83);
  std::vector<LatLon> points;
  for (int i = 0; i < 20; ++i)
    points.push_back({rng.uniform(40.7, 40.71), rng.uniform(-74.0, -73.99)});
  DbscanOptions options;
  options.eps_meters = 10'000.0;
  options.min_points = 1;
  const auto labels = dbscan(points, options);
  ASSERT_TRUE(labels.is_ok());
  EXPECT_EQ(cluster_count(*labels), 1u);
  for (const int label : *labels) EXPECT_EQ(label, 0);
}

TEST(DbscanTest, DeterministicAndOrderConsistent) {
  Rng rng(89);
  std::vector<LatLon> points = gaussian_blob(rng, kTimesSquare, 120.0, 80);
  const auto a = dbscan(points, DbscanOptions{});
  const auto b = dbscan(points, DbscanOptions{});
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_EQ(*a, *b);
}

TEST(DbscanTest, BorderPointsAdoptedNotCore) {
  // A tight core of 5 plus one point only reachable from the core edge:
  // the border point joins the cluster but must not recruit its own
  // neighborhood.
  std::vector<LatLon> points;
  for (int i = 0; i < 5; ++i) points.push_back(offset_meters(kTimesSquare, i * 10.0, 0.0));
  points.push_back(offset_meters(kTimesSquare, 40.0 + 90.0, 0.0));   // border (90 m from last core)
  points.push_back(offset_meters(kTimesSquare, 40.0 + 180.0, 0.0));  // beyond border's reach
  DbscanOptions options;
  options.eps_meters = 100.0;
  options.min_points = 5;
  const auto labels = dbscan(points, options);
  ASSERT_TRUE(labels.is_ok());
  EXPECT_EQ((*labels)[5], (*labels)[0]);  // border joins
  EXPECT_EQ((*labels)[6], kNoise);        // not chained through the border
}

// -------------------------------------------------------------- QuadTree

TEST(QuadTreeTest, InsertAndSize) {
  QuadTree tree(nyc_bounds());
  EXPECT_TRUE(tree.insert(kTimesSquare, 1));
  EXPECT_TRUE(tree.insert(kWallStreet, 2));
  EXPECT_FALSE(tree.insert({51.5, -0.1}, 3));  // out of bounds
  EXPECT_EQ(tree.size(), 2u);
}

TEST(QuadTreeTest, RangeQueryMatchesBruteForce) {
  QuadTree tree(nyc_bounds(), 8);
  Rng rng(41);
  std::vector<LatLon> points;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const LatLon p{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)};
    points.push_back(p);
    ASSERT_TRUE(tree.insert(p, i));
  }
  for (int trial = 0; trial < 20; ++trial) {
    BoundingBox query;
    query.extend(LatLon{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)});
    query.extend(LatLon{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)});
    auto got = tree.query_range(query);
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < points.size(); ++i) {
      if (query.contains(points[i])) expected.push_back(i);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(QuadTreeTest, RadiusQueryMatchesBruteForce) {
  QuadTree tree(nyc_bounds(), 8);
  Rng rng(43);
  std::vector<LatLon> points;
  for (std::uint32_t i = 0; i < 1500; ++i) {
    const LatLon p{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)};
    points.push_back(p);
    tree.insert(p, i);
  }
  for (int trial = 0; trial < 15; ++trial) {
    const LatLon center{rng.uniform(40.6, 40.9), rng.uniform(-74.05, -73.7)};
    const double radius = rng.uniform(200.0, 5000.0);
    auto got = tree.query_radius(center, radius);
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < points.size(); ++i) {
      if (haversine_meters(center, points[i]) <= radius) expected.push_back(i);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(QuadTreeTest, NearestMatchesBruteForce) {
  QuadTree tree(nyc_bounds(), 4);
  Rng rng(47);
  std::vector<LatLon> points;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const LatLon p{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)};
    points.push_back(p);
    tree.insert(p, i);
  }
  for (int trial = 0; trial < 50; ++trial) {
    const LatLon target{rng.uniform(40.55, 40.92), rng.uniform(-74.1, -73.68)};
    const auto got = tree.nearest(target);
    ASSERT_TRUE(got.has_value());
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t best_id = 0;
    for (std::uint32_t i = 0; i < points.size(); ++i) {
      const double d = haversine_meters(target, points[i]);
      if (d < best) {
        best = d;
        best_id = i;
      }
    }
    EXPECT_EQ(got->id, best_id);
  }
}

TEST(QuadTreeTest, EmptyTreeNearestIsNullopt) {
  const QuadTree tree(nyc_bounds());
  EXPECT_FALSE(tree.nearest(kTimesSquare).has_value());
  EXPECT_TRUE(tree.query_range(nyc_bounds()).empty());
}

TEST(QuadTreeTest, ManyDuplicatePointsDoNotRecurseForever) {
  QuadTree tree(nyc_bounds(), 2);
  for (std::uint32_t i = 0; i < 500; ++i)
    ASSERT_TRUE(tree.insert(kTimesSquare, i));
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_EQ(tree.query_radius(kTimesSquare, 1.0).size(), 500u);
}

}  // namespace
}  // namespace crowdweb::geo
