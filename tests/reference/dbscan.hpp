// DBSCAN density clustering over geographic points.
//
// The paper's related work (Haifeng et al., ref [10]) clusters raw
// positions with DBSCAN before predicting mobility; CrowdWeb's microcells
// are a regular grid instead. This implementation lets the benches
// compare the two spatial aggregations (grid cells vs density clusters)
// on the same crowd. Neighborhood queries run on the point quadtree, so
// clustering a city-scale corpus stays near O(n log n). A test-only
// reference: no serving path clusters with DBSCAN.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/point.hpp"
#include "util/status.hpp"

namespace crowdweb::geo {

struct DbscanOptions {
  /// Neighborhood radius in meters (> 0).
  double eps_meters = 300.0;
  /// Minimum neighborhood size (including the point itself) for a core
  /// point (>= 1).
  std::size_t min_points = 5;
};

/// Cluster id for noise points.
inline constexpr int kNoise = -1;

/// Clusters `points`; returns one id per point: 0..k-1 for cluster
/// members, kNoise for noise. Ids are assigned in discovery order
/// (scanning points in input order), so results are deterministic.
[[nodiscard]] Result<std::vector<int>> dbscan(std::span<const LatLon> points,
                                              const DbscanOptions& options = {});

/// Convenience: the number of clusters in a dbscan labeling.
[[nodiscard]] std::size_t cluster_count(std::span<const int> labels) noexcept;

}  // namespace crowdweb::geo
