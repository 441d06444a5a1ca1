// Crowd synchronization and aggregation — phase 3 of the framework.
//
// Takes every user's time-annotated mobility patterns and aligns them on
// wall-clock time windows: a user whose pattern says "Eatery around
// 12:20" *appears* in the city during the 12:00-13:00 window, placed at
// their representative eatery (their most-visited venue of that label in
// that window, read from a per-user VenueTally). Aggregating the
// placements over the microcell grid gives the crowd distribution the
// map displays; following users across consecutive windows gives the
// crowd flows.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crowd/distribution.hpp"
#include "data/dataset.hpp"
#include "geo/grid.hpp"
#include "patterns/mobility.hpp"
#include "util/status.hpp"

namespace crowdweb::crowd {

/// One user's presence in one time window.
struct CrowdPlacement {
  data::UserId user = 0;
  mining::Item label = 0;        ///< the pattern element's place label
  data::VenueId venue = 0;       ///< representative venue for that label
  geo::LatLon position;
  geo::CellId cell = 0;
  double pattern_support = 0.0;  ///< support of the pattern that placed them
};

/// Users sharing a (cell, label) in one window — the paper's "group".
struct CrowdGroup {
  geo::CellId cell = 0;
  mining::Item label = 0;
  std::vector<data::UserId> users;
};

struct CrowdOptions {
  /// Minutes per synchronization window (60 = the demo's hourly view).
  int window_minutes = 60;
  /// Only pattern elements from patterns at or above this support place a
  /// user on the map.
  double min_pattern_support = 0.25;
};

/// One user's check-ins counted per (place label, time window, venue):
/// what placing the user reads. A user
/// appears at their representative venue for a (label, window) — the
/// venue they checked into most often in that window, ties broken
/// toward the smallest venue id — or, with no check-in of that label in
/// the window, at their most-visited venue of that label at any time.
/// Labels are root categories, the platform's default.
///
/// Counts do not depend on record order, so a tally kept beside a
/// growing history takes each added check-in with add() and always
/// equals a tally counted from the user's whole column.
class VenueTally {
 public:
  VenueTally() = default;
  /// Counts every record of `records` in windows of `window_minutes`
  /// (which must divide a day).
  VenueTally(const data::Dataset::UserColumns& records, int window_minutes);

  /// Counts one more check-in of the user.
  void add(const data::CheckIn& checkin);

  /// The representative venue for (label, window), or nullopt when the
  /// user never checked in at that label.
  [[nodiscard]] std::optional<data::VenueId> pick(mining::Item label, int window) const;

  [[nodiscard]] int window_minutes() const noexcept { return window_minutes_; }
  /// Check-ins counted.
  [[nodiscard]] std::size_t records() const noexcept { return records_; }
  /// Heap bytes held plus the object.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

 private:
  int window_minutes_ = 60;
  std::size_t records_ = 0;
  /// (label << 48) | (window << 32) | venue of every counted cell,
  /// ascending: a (label, window)'s venues are adjacent, and so are a
  /// label's cells.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> counts_;  ///< parallel to keys_
};

/// The synchronized, aggregated crowd — queryable per time window.
///
/// Each window's placements live behind a shared_ptr: `update` produces
/// a new model that shares every window the delta did not affect with
/// the previous one, rebuilding only the affected windows. An updated
/// model is value-identical to a full rebuild over the same inputs.
class CrowdModel {
 public:
  /// Builds the model, placing users in ascending id order. `grid` is
  /// copied; `dataset` is only read during construction. Fails when
  /// window_minutes does not divide a day.
  static Result<CrowdModel> build(const data::Dataset& dataset,
                                  std::span<const patterns::UserMobility> mobility,
                                  const geo::SpatialGrid& grid,
                                  const CrowdOptions& options = {});

  /// Same, over a shared mobility table.
  static Result<CrowdModel> build(const data::Dataset& dataset,
                                  const patterns::MobilityTable& mobility,
                                  const geo::SpatialGrid& grid,
                                  const CrowdOptions& options = {});

  /// Merges partition models whose user sets are disjoint into one model
  /// equal to a full build over the union of their inputs. Every part
  /// must share the grid geometry, options, and window count — sharded
  /// deployments guarantee this by seeding each shard with a
  /// filter_users() slice of the batch build's model, whose grid every
  /// later epoch keeps.
  /// Each window is a k-way merge of the parts' placements by user id;
  /// windows populated by only one part are shared with it by pointer.
  /// Because windows are user-sorted and each user lives in exactly one
  /// part, the result is value-identical to a single model built over
  /// the combined corpus.
  static Result<CrowdModel> merge(std::span<const CrowdModel* const> parts);

  /// The placements of `users` only, on the same grid and options: equal
  /// to a build over those users' records and mobility entries. One
  /// pass per window (placements are user-sorted); a window that keeps
  /// every placement is shared by pointer.
  [[nodiscard]] CrowdModel filter_users(std::span<const data::UserId> users) const;

  /// Incremental form: retracts the changed users' previous placements,
  /// places them afresh from `mobility`, and shares every window no
  /// changed user appears in with `previous` by pointer. Valid only
  /// while grid and options are unchanged (a grid or option change
  /// requires a full build); under that contract the result equals
  /// `build(dataset, mobility, previous.grid(), previous.options())`.
  ///
  /// `tallies`, when not empty, is parallel to `changed_users`: entry i
  /// is user i's kept tally over their records in `dataset`, or null to
  /// count those records here. A tally kept at other window minutes
  /// than the model's is not used.
  static Result<CrowdModel> update(const CrowdModel& previous,
                                   const data::Dataset& dataset,
                                   const patterns::MobilityTable& mobility,
                                   std::span<const data::UserId> changed_users,
                                   std::span<const VenueTally* const> tallies = {});

  [[nodiscard]] const geo::SpatialGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] const CrowdOptions& options() const noexcept { return options_; }
  [[nodiscard]] int window_count() const noexcept {
    return static_cast<int>(placements_.size());
  }
  /// "09:00-10:00" style label of a window index.
  [[nodiscard]] std::string window_label(int window) const;

  /// All user placements of a window.
  [[nodiscard]] std::span<const CrowdPlacement> placements(int window) const;

  /// Per-cell headcount for a window. Total equals placements(window).size().
  [[nodiscard]] CrowdDistribution distribution(int window) const;

  /// Movements of users present in both windows.
  [[nodiscard]] FlowMatrix flow(int from_window, int to_window) const;

  /// Groups of at least `min_size` users sharing (cell, label) in a window,
  /// largest first.
  [[nodiscard]] std::vector<CrowdGroup> groups(int window, std::size_t min_size = 2) const;

  /// Total placements across all windows.
  [[nodiscard]] std::size_t total_placements() const noexcept;

  /// Placement counts per (label, window) — the city's daily rhythm.
  /// labels are sorted ascending; counts[l][w] is label l's headcount in
  /// window w.
  struct Rhythm {
    std::vector<mining::Item> labels;
    std::vector<std::vector<std::size_t>> counts;
  };
  [[nodiscard]] Rhythm rhythm() const;

  /// Identity of a window's placement storage: equal across models iff
  /// the window object is shared (reused, not rebuilt). For sharing
  /// regression tests and delta telemetry.
  [[nodiscard]] const void* window_identity(int window) const noexcept {
    if (window < 0 || window >= window_count()) return nullptr;
    return placements_[static_cast<std::size_t>(window)].get();
  }

 private:
  /// One window's placements, shared between models when unaffected.
  using WindowPtr = std::shared_ptr<const std::vector<CrowdPlacement>>;

  CrowdModel(geo::SpatialGrid grid, CrowdOptions options)
      : grid_(grid), options_(options) {}

  /// Wraps freshly built per-window vectors into shared storage.
  void adopt_windows(std::vector<std::vector<CrowdPlacement>> windows);

  geo::SpatialGrid grid_;
  CrowdOptions options_;
  std::vector<WindowPtr> placements_;  // one shared vector per window
};

}  // namespace crowdweb::crowd
