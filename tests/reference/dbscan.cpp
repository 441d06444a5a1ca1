#include "reference/dbscan.hpp"

#include <algorithm>
#include <deque>

#include "geo/quadtree.hpp"
#include "util/format.hpp"

namespace crowdweb::geo {

Result<std::vector<int>> dbscan(std::span<const LatLon> points,
                                const DbscanOptions& options) {
  if (!(options.eps_meters > 0.0))
    return invalid_argument(crowdweb::format("eps must be positive, got {}", options.eps_meters));
  if (options.min_points == 0) return invalid_argument("min_points must be >= 1");

  std::vector<int> labels(points.size(), kNoise);
  if (points.empty()) return labels;

  BoundingBox bounds;
  for (const LatLon& p : points) {
    if (!is_valid(p)) return invalid_argument("dbscan input contains an invalid point");
    bounds.extend(p);
  }
  QuadTree tree(bounds.inflated(0.001), 32);
  for (std::uint32_t i = 0; i < points.size(); ++i) tree.insert(points[i], i);

  // Classic label-spreading DBSCAN with a BFS frontier per cluster.
  std::vector<char> visited(points.size(), 0);
  int next_cluster = 0;
  for (std::size_t seed = 0; seed < points.size(); ++seed) {
    if (visited[seed] != 0) continue;
    visited[seed] = 1;
    const auto seed_neighbors = tree.query_radius(points[seed], options.eps_meters);
    if (seed_neighbors.size() < options.min_points) continue;  // noise (for now)

    const int cluster = next_cluster++;
    labels[seed] = cluster;
    std::deque<std::uint32_t> frontier(seed_neighbors.begin(), seed_neighbors.end());
    while (!frontier.empty()) {
      const std::uint32_t point = frontier.front();
      frontier.pop_front();
      if (labels[point] == kNoise) labels[point] = cluster;  // border adoption
      if (visited[point] != 0) continue;
      visited[point] = 1;
      labels[point] = cluster;
      const auto neighbors = tree.query_radius(points[point], options.eps_meters);
      if (neighbors.size() >= options.min_points) {
        // Core point: its neighborhood joins the cluster.
        frontier.insert(frontier.end(), neighbors.begin(), neighbors.end());
      }
    }
  }
  return labels;
}

std::size_t cluster_count(std::span<const int> labels) noexcept {
  int max_label = kNoise;
  for (const int label : labels) max_label = std::max(max_label, label);
  return static_cast<std::size_t>(max_label + 1);
}

}  // namespace crowdweb::geo
