// Spatial-aggregation ablation: grid microcells vs DBSCAN density
// clusters for hotspot detection.
//
// CrowdWeb aggregates over a regular grid; related work (paper ref [10])
// clusters raw positions with DBSCAN. This bench runs both over the same
// morning check-ins and compares what they find: cluster/cell counts,
// coverage (fraction of points in a hotspot), and agreement (how many of
// the grid's top cells land inside some DBSCAN cluster). DBSCAN is the
// test-only reference in tests/reference/; no serving path uses it.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "geo/grid.hpp"
#include "reference/dbscan.hpp"
#include "util/civil_time.hpp"

using namespace crowdweb;

int main() {
  std::printf("=== Hotspots: grid microcells vs DBSCAN clusters ===\n\n");
  const data::Dataset& active = bench::experiment_dataset();

  // Morning check-ins (8-10 am) across the experiment window.
  std::vector<geo::LatLon> points;
  for (const data::CheckIn& c : active.checkins()) {
    const int hour = hour_of_day(c.timestamp);
    if (hour >= 8 && hour < 10) points.push_back(c.position);
  }
  std::printf("morning check-ins (08-10): %zu\n\n", points.size());

  // Grid occupancy.
  const auto grid = geo::SpatialGrid::create(active.bounds().inflated(0.002), 500.0);
  if (!grid) {
    std::fprintf(stderr, "%s\n", grid.status().to_string().c_str());
    return 1;
  }
  const auto grid_start = std::chrono::steady_clock::now();
  std::map<geo::CellId, std::size_t> cells;
  for (const geo::LatLon& p : points) ++cells[grid->clamped_cell_of(p)];
  const double grid_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - grid_start)
                             .count();
  std::size_t busy_cells = 0;
  std::size_t covered_by_grid = 0;
  for (const auto& [cell, count] : cells) {
    if (count >= 10) {
      ++busy_cells;
      covered_by_grid += count;
    }
  }

  // DBSCAN over the same points.
  geo::DbscanOptions options;
  options.eps_meters = 250.0;
  options.min_points = 10;
  const auto dbscan_start = std::chrono::steady_clock::now();
  const auto labels = geo::dbscan(points, options);
  const double dbscan_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - dbscan_start)
                               .count();
  if (!labels) {
    std::fprintf(stderr, "%s\n", labels.status().to_string().c_str());
    return 1;
  }
  std::size_t clustered = 0;
  for (const int label : *labels) clustered += label != geo::kNoise ? 1 : 0;

  std::printf("%28s %14s %14s\n", "", "grid (500 m)", "DBSCAN");
  std::printf("%28s %14zu %14zu\n", "hotspots found",
              busy_cells, geo::cluster_count(*labels));
  std::printf("%28s %13.1f%% %13.1f%%\n", "points inside a hotspot",
              100.0 * static_cast<double>(covered_by_grid) / static_cast<double>(points.size()),
              100.0 * static_cast<double>(clustered) / static_cast<double>(points.size()));
  std::printf("%28s %12.1fms %12.1fms\n", "aggregation cost", grid_ms, dbscan_ms);

  // Agreement: do the grid's busiest cells coincide with DBSCAN mass?
  std::vector<std::pair<std::size_t, geo::CellId>> ranked;
  for (const auto& [cell, count] : cells) ranked.push_back({count, cell});
  std::sort(ranked.rbegin(), ranked.rend());
  std::size_t agree = 0;
  const std::size_t top_n = std::min<std::size_t>(10, ranked.size());
  for (std::size_t i = 0; i < top_n; ++i) {
    const geo::BoundingBox box = grid->cell_bounds(ranked[i].second);
    std::size_t clustered_inside = 0, total_inside = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (!box.contains(points[p])) continue;
      ++total_inside;
      clustered_inside += (*labels)[p] != geo::kNoise ? 1 : 0;
    }
    if (total_inside > 0 && clustered_inside * 2 >= total_inside) ++agree;
  }
  std::printf("\nagreement: %zu of the grid's top %zu cells are majority-covered by a"
              " DBSCAN cluster\n", agree, top_n);

  const bool consistent = agree * 2 >= top_n;  // the methods see the same city
  std::printf("shape: both aggregations find the same hotspots = %s\n",
              consistent ? "yes" : "NO");
  return consistent ? 0 : 1;
}
