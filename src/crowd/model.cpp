#include "crowd/model.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <set>

#include "util/format.hpp"

namespace crowdweb::crowd {

namespace {

/// Windows a day holds at most (one-minute windows).
constexpr std::uint64_t kWindows = 24 * 60;
/// No cell: every real key has a window below kWindows.
constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

/// Root categories are 16-bit CategoryIds, so a (label, window, venue)
/// triple packs into one integer ordered by label, window, then venue.
std::uint64_t tally_key(std::uint64_t label, std::uint64_t window,
                        data::VenueId venue) noexcept {
  return (label << 48) | (window << 32) | venue;
}

/// Phase 2's label of every category under root categories, which
/// synchronization assumes (the platform default), indexed by
/// CategoryId: one load per record instead of a taxonomy walk.
const std::vector<mining::Item>& place_labels() {
  static const std::vector<mining::Item> labels = [] {
    const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
    std::vector<mining::Item> out(taxonomy.size());
    for (std::size_t c = 0; c < out.size(); ++c)
      out[c] = mining::label_of(0, static_cast<data::CategoryId>(c),
                                mining::LabelMode::kRootCategory, taxonomy);
    return out;
  }();
  return labels;
}

/// minute_of_day(timestamp) / window_minutes, inline: one floor
/// division of the second of day.
std::uint64_t window_of(std::int64_t timestamp, int window_seconds) noexcept {
  constexpr std::int64_t kDay = 86'400;
  const auto second = static_cast<int>(((timestamp % kDay) + kDay) % kDay);
  return static_cast<std::uint64_t>(second / window_seconds);
}

/// The tally one user's placement reads: the kept one when it counts at
/// the model's window minutes, else one counted from the records on the
/// first pick — most users never clear the support threshold, and
/// skipping their count is most of the stage's win at scale.
class UserTally {
 public:
  UserTally(const data::Dataset& dataset, data::UserId user, const VenueTally* kept,
            int window_minutes)
      : dataset_(dataset),
        user_(user),
        window_minutes_(window_minutes),
        tally_(kept != nullptr && kept->window_minutes() == window_minutes ? kept : nullptr) {}

  [[nodiscard]] std::optional<data::VenueId> pick(mining::Item label, int window) {
    if (tally_ == nullptr)
      tally_ = &counted_.emplace(dataset_.checkins_for(user_), window_minutes_);
    return tally_->pick(label, window);
  }

 private:
  const data::Dataset& dataset_;
  data::UserId user_;
  int window_minutes_;
  const VenueTally* tally_;
  std::optional<VenueTally> counted_;
};

/// Appends one user's placements into per-window scratch vectors. The
/// full build and the incremental update place users through this
/// single code path, so their outputs agree element-for-element.
/// `kept` is the user's kept tally, or null to count their records.
void append_user_placements(const data::Dataset& dataset, const patterns::UserMobility& user,
                            const geo::SpatialGrid& grid, const CrowdOptions& options,
                            const VenueTally* kept,
                            std::vector<std::vector<CrowdPlacement>>& out) {
  if (user.patterns.empty()) return;
  UserTally venues(dataset, user.user, kept, options.window_minutes);
  const int windows = static_cast<int>(out.size());
  // A user appears at most once per (window, label): dedupe elements of
  // different patterns that land in the same window.
  std::set<std::pair<int, mining::Item>> placed;
  for (const patterns::MobilityPattern& pattern : user.patterns) {
    if (pattern.support < options.min_pattern_support) continue;
    for (const patterns::TimedElement& element : pattern.elements) {
      const int minute = static_cast<int>(element.mean_minute);
      const int window =
          std::clamp(minute / options.window_minutes, 0, windows - 1);
      if (!placed.insert({window, element.label}).second) continue;
      const auto venue_id = venues.pick(element.label, window);
      if (!venue_id) continue;
      const data::Venue* venue = dataset.venue(*venue_id);
      if (venue == nullptr) continue;
      CrowdPlacement placement;
      placement.user = user.user;
      placement.label = element.label;
      placement.venue = *venue_id;
      placement.position = venue->position;
      placement.cell = grid.clamped_cell_of(venue->position);
      placement.pattern_support = pattern.support;
      out[static_cast<std::size_t>(window)].push_back(placement);
    }
  }
}

/// Validates options and, on success, fills per-window placement
/// vectors by running every entry of `mobility` (any range of
/// UserMobility) through the shared placement path. Entries must be in
/// ascending user order — that is what makes each window's placements
/// user-sorted, which the incremental update relies on.
template <typename MobilityRange>
Result<std::vector<std::vector<CrowdPlacement>>> place_all(const data::Dataset& dataset,
                                                           const MobilityRange& mobility,
                                                           const geo::SpatialGrid& grid,
                                                           const CrowdOptions& options) {
  if (options.window_minutes <= 0 || (24 * 60) % options.window_minutes != 0)
    return invalid_argument(
        crowdweb::format("window_minutes must divide a day, got {}", options.window_minutes));

  const int windows = (24 * 60) / options.window_minutes;
  std::vector<std::vector<CrowdPlacement>> scratch(static_cast<std::size_t>(windows));
  for (const patterns::UserMobility& user : mobility)
    append_user_placements(dataset, user, grid, options, nullptr, scratch);
  return scratch;
}

}  // namespace

VenueTally::VenueTally(const data::Dataset::UserColumns& records, int window_minutes)
    : window_minutes_(window_minutes), records_(records.size()) {
  // Count each cell in a small open-addressing table — one probe per
  // record, none when a record repeats the previous one's cell — then
  // sort the user's distinct cells once. Routine histories revisit few
  // cells, so this stays O(records) where sorting the records would not.
  struct Slot {
    std::uint64_t key = kNoKey;
    std::uint32_t count = 0;
  };
  std::vector<Slot> slots(std::bit_ceil(2 * std::clamp<std::size_t>(records.size(), 8, 256)));
  std::size_t used = 0;
  const auto slot_of = [&slots](std::uint64_t key) -> Slot& {
    const std::size_t mask = slots.size() - 1;
    std::size_t at = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
    while (slots[at].key != key && slots[at].key != kNoKey) at = (at + 1) & mask;
    return slots[at];
  };

  const std::vector<mining::Item>& labels = place_labels();
  const int window_seconds = 60 * window_minutes;
  const std::span<const std::int64_t> timestamps = records.timestamps();
  const std::span<const data::VenueId> venues = records.venues();
  std::uint64_t last_key = kNoKey;
  Slot* last = nullptr;
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    const std::uint64_t key = tally_key(labels[records.category(i)],
                                        window_of(timestamps[i], window_seconds), venues[i]);
    if (key != last_key) {
      last = &slot_of(key);
      if (last->key == kNoKey) {
        if (2 * ++used > slots.size()) {
          std::vector<Slot> old(2 * slots.size());
          old.swap(slots);
          for (const Slot& slot : old) {
            if (slot.key != kNoKey) slot_of(slot.key) = slot;
          }
          last = &slot_of(key);
        }
        last->key = key;
      }
      last_key = key;
    }
    ++last->count;
  }

  keys_.reserve(used);
  for (const Slot& slot : slots) {
    if (slot.key != kNoKey) keys_.push_back(slot.key);
  }
  std::sort(keys_.begin(), keys_.end());
  counts_.reserve(keys_.size());
  for (const std::uint64_t key : keys_) counts_.push_back(slot_of(key).count);
}

void VenueTally::add(const data::CheckIn& checkin) {
  const std::uint64_t key =
      tally_key(place_labels()[checkin.category],
                window_of(checkin.timestamp, 60 * window_minutes_), checkin.venue);
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  const auto at = it - keys_.begin();
  if (it != keys_.end() && *it == key) {
    ++counts_[static_cast<std::size_t>(at)];
  } else {
    keys_.insert(it, key);
    counts_.insert(counts_.begin() + at, 1);
  }
  ++records_;
}

std::optional<data::VenueId> VenueTally::pick(mining::Item label, int window) const {
  if (label > 0xFFFF || window < 0 || static_cast<std::uint64_t>(window) >= kWindows)
    return std::nullopt;
  // Per-venue counts in ascending venue order within one cell, so the
  // first strictly larger count keeps ties at the smallest id.
  std::optional<data::VenueId> best;
  std::uint32_t best_count = 0;
  const std::uint64_t cell = tally_key(label, static_cast<std::uint64_t>(window), 0) >> 32;
  for (auto it = std::lower_bound(keys_.begin(), keys_.end(), cell << 32);
       it != keys_.end() && (*it >> 32) == cell; ++it) {
    const std::uint32_t count = counts_[static_cast<std::size_t>(it - keys_.begin())];
    if (count > best_count) {
      best_count = count;
      best = static_cast<data::VenueId>(*it);
    }
  }
  if (best) return best;

  // Fallback: the label's cells are adjacent; sum each venue over them.
  // A user visits few distinct venues per label, so linear probing wins.
  std::vector<std::pair<data::VenueId, std::uint32_t>> totals;
  const std::uint64_t first = tally_key(label, 0, 0);
  for (auto it = std::lower_bound(keys_.begin(), keys_.end(), first);
       it != keys_.end() && (*it >> 48) == label; ++it) {
    const auto venue = static_cast<data::VenueId>(*it);
    const std::uint32_t count = counts_[static_cast<std::size_t>(it - keys_.begin())];
    const auto seen = std::find_if(totals.begin(), totals.end(), [venue](const auto& total) {
      return total.first == venue;
    });
    if (seen != totals.end()) {
      seen->second += count;
    } else {
      totals.emplace_back(venue, count);
    }
  }
  for (const auto& [venue, count] : totals) {
    if (count > best_count || (count == best_count && venue < *best)) {
      best_count = count;
      best = venue;
    }
  }
  return best;
}

std::size_t VenueTally::resident_bytes() const noexcept {
  return sizeof(*this) + keys_.capacity() * sizeof(std::uint64_t) +
         counts_.capacity() * sizeof(std::uint32_t);
}

void CrowdModel::adopt_windows(std::vector<std::vector<CrowdPlacement>> windows) {
  placements_.clear();
  placements_.reserve(windows.size());
  for (std::vector<CrowdPlacement>& window : windows)
    placements_.push_back(std::make_shared<const std::vector<CrowdPlacement>>(std::move(window)));
}

Result<CrowdModel> CrowdModel::build(const data::Dataset& dataset,
                                     std::span<const patterns::UserMobility> mobility,
                                     const geo::SpatialGrid& grid,
                                     const CrowdOptions& options) {
  auto placed = place_all(dataset, mobility, grid, options);
  if (!placed) return placed.status();
  CrowdModel model(grid, options);
  model.adopt_windows(std::move(*placed));
  return model;
}

Result<CrowdModel> CrowdModel::build(const data::Dataset& dataset,
                                     const patterns::MobilityTable& mobility,
                                     const geo::SpatialGrid& grid,
                                     const CrowdOptions& options) {
  auto placed = place_all(dataset, mobility, grid, options);
  if (!placed) return placed.status();
  CrowdModel model(grid, options);
  model.adopt_windows(std::move(*placed));
  return model;
}

Result<CrowdModel> CrowdModel::merge(std::span<const CrowdModel* const> parts) {
  if (parts.empty()) return invalid_argument("merge needs at least one part");
  const CrowdModel& first = *parts.front();
  if (first.window_count() == 0)
    return invalid_argument("cannot merge default-constructed crowd models");
  for (const CrowdModel* part : parts) {
    if (part->window_count() != first.window_count() ||
        part->options_.window_minutes != first.options_.window_minutes ||
        part->options_.min_pattern_support != first.options_.min_pattern_support)
      return invalid_argument("crowd models disagree on windows or options");
    if (part->grid_.bounds() != first.grid_.bounds() ||
        part->grid_.rows() != first.grid_.rows() ||
        part->grid_.cols() != first.grid_.cols() ||
        part->grid_.cell_size_meters() != first.grid_.cell_size_meters())
      return invalid_argument(
          "crowd models disagree on grid geometry; merge requires a pinned grid");
  }

  CrowdModel model(first.grid_, first.options_);
  const std::size_t windows = first.placements_.size();
  model.placements_.resize(windows);
  std::vector<const WindowPtr*> live;
  for (std::size_t w = 0; w < windows; ++w) {
    live.clear();
    for (const CrowdModel* part : parts) {
      if (!part->placements_[w]->empty()) live.push_back(&part->placements_[w]);
    }
    if (live.empty()) {
      model.placements_[w] = first.placements_[w];  // any empty window serves
      continue;
    }
    if (live.size() == 1) {
      model.placements_[w] = *live.front();  // single contributor: share
      continue;
    }
    // K-way merge by user id. Each user's placements come from exactly
    // one part, so comparing the head users reproduces the global
    // user-sorted order a single build would emit.
    auto merged = std::make_shared<std::vector<CrowdPlacement>>();
    std::size_t total = 0;
    for (const WindowPtr* window : live) total += (*window)->size();
    merged->reserve(total);
    std::vector<std::size_t> cursor(live.size(), 0);
    while (merged->size() < total) {
      std::size_t pick = live.size();
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (cursor[i] >= (*live[i])->size()) continue;
        if (pick == live.size() ||
            (**live[i])[cursor[i]].user < (**live[pick])[cursor[pick]].user)
          pick = i;
      }
      merged->push_back((**live[pick])[cursor[pick]++]);
    }
    model.placements_[w] = std::move(merged);
  }
  return model;
}

CrowdModel CrowdModel::filter_users(std::span<const data::UserId> users) const {
  std::vector<data::UserId> wanted(users.begin(), users.end());
  std::sort(wanted.begin(), wanted.end());
  CrowdModel model(grid_, options_);
  model.placements_.reserve(placements_.size());
  for (const WindowPtr& window : placements_) {
    // Placements are user-sorted: one walk with a cursor into `wanted`.
    auto kept = std::make_shared<std::vector<CrowdPlacement>>();
    auto next = wanted.begin();
    for (const CrowdPlacement& placement : *window) {
      while (next != wanted.end() && *next < placement.user) ++next;
      if (next == wanted.end()) break;
      if (*next == placement.user) kept->push_back(placement);
    }
    if (kept->size() == window->size()) {
      model.placements_.push_back(window);  // every placement kept: share
    } else {
      model.placements_.push_back(std::move(kept));
    }
  }
  return model;
}

Result<CrowdModel> CrowdModel::update(const CrowdModel& previous,
                                      const data::Dataset& dataset,
                                      const patterns::MobilityTable& mobility,
                                      std::span<const data::UserId> changed_users,
                                      std::span<const VenueTally* const> tallies) {
  CrowdModel model(previous.grid_, previous.options_);
  const int windows = previous.window_count();
  if (windows == 0)
    return invalid_argument("cannot update a default-constructed crowd model");
  if (!tallies.empty() && tallies.size() != changed_users.size())
    return invalid_argument("tallies must be parallel to the changed users");

  // Place the changed users afresh, ascending by user id so each
  // window's fresh block is user-sorted like the full build's output.
  std::vector<std::pair<data::UserId, const VenueTally*>> placed_users;
  placed_users.reserve(changed_users.size());
  for (std::size_t i = 0; i < changed_users.size(); ++i)
    placed_users.emplace_back(changed_users[i], tallies.empty() ? nullptr : tallies[i]);
  std::sort(placed_users.begin(), placed_users.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto same_user = [](const auto& a, const auto& b) { return a.first == b.first; };
  placed_users.erase(std::unique(placed_users.begin(), placed_users.end(), same_user),
                     placed_users.end());
  std::vector<data::UserId> changed;
  changed.reserve(placed_users.size());
  for (const auto& [user, tally] : placed_users) changed.push_back(user);

  std::vector<std::vector<CrowdPlacement>> fresh(static_cast<std::size_t>(windows));
  for (const auto& [user, tally] : placed_users) {
    if (const patterns::UserMobility* entry = mobility.find(user))
      append_user_placements(dataset, *entry, model.grid_, model.options_, tally, fresh);
  }

  const auto is_changed = [&](data::UserId user) {
    return std::binary_search(changed.begin(), changed.end(), user);
  };
  const auto contains_changed = [&](const std::vector<CrowdPlacement>& old) {
    for (const data::UserId user : changed) {
      // Placements are user-sorted; one binary search per changed user.
      const auto it = std::lower_bound(
          old.begin(), old.end(), user,
          [](const CrowdPlacement& p, data::UserId u) { return p.user < u; });
      if (it != old.end() && it->user == user) return true;
    }
    return false;
  };

  model.placements_.resize(static_cast<std::size_t>(windows));
  for (int w = 0; w < windows; ++w) {
    const std::size_t wi = static_cast<std::size_t>(w);
    const std::vector<CrowdPlacement>& old = *previous.placements_[wi];
    if (fresh[wi].empty() && !contains_changed(old)) {
      model.placements_[wi] = previous.placements_[wi];  // untouched: share
      continue;
    }
    // Rebuild the window: retract the changed users' old placements and
    // merge the fresh blocks in by user id, preserving per-user order.
    auto rebuilt = std::make_shared<std::vector<CrowdPlacement>>();
    rebuilt->reserve(old.size() + fresh[wi].size());
    std::size_t oi = 0;
    std::size_t fi = 0;
    while (oi < old.size() || fi < fresh[wi].size()) {
      if (oi < old.size() && is_changed(old[oi].user)) {
        ++oi;  // retracted
        continue;
      }
      if (fi == fresh[wi].size()) {
        rebuilt->push_back(old[oi++]);
      } else if (oi == old.size() || fresh[wi][fi].user < old[oi].user) {
        rebuilt->push_back(fresh[wi][fi++]);
      } else {
        rebuilt->push_back(old[oi++]);
      }
    }
    model.placements_[wi] = std::move(rebuilt);
  }
  return model;
}

std::string CrowdModel::window_label(int window) const {
  const int start = window * options_.window_minutes;
  const int end = start + options_.window_minutes;
  return crowdweb::format("{:02}:{:02}-{:02}:{:02}", start / 60, start % 60,
                          (end / 60) % 25, end % 60);
}

std::span<const CrowdPlacement> CrowdModel::placements(int window) const {
  if (window < 0 || window >= window_count()) return {};
  return *placements_[static_cast<std::size_t>(window)];
}

CrowdDistribution CrowdModel::distribution(int window) const {
  CrowdDistribution dist(window);
  for (const CrowdPlacement& placement : placements(window)) dist.add(placement.cell);
  return dist;
}

FlowMatrix CrowdModel::flow(int from_window, int to_window) const {
  FlowMatrix matrix(from_window, to_window);
  // Index the destination window by user; a user may occupy several
  // labels per window — use their first placement in each.
  std::map<data::UserId, geo::CellId> destination;
  for (const CrowdPlacement& placement : placements(to_window))
    destination.try_emplace(placement.user, placement.cell);
  std::set<data::UserId> moved;
  for (const CrowdPlacement& placement : placements(from_window)) {
    if (!moved.insert(placement.user).second) continue;
    const auto it = destination.find(placement.user);
    if (it == destination.end()) continue;
    matrix.add(placement.cell, it->second);
  }
  return matrix;
}

std::vector<CrowdGroup> CrowdModel::groups(int window, std::size_t min_size) const {
  std::map<std::pair<geo::CellId, mining::Item>, std::vector<data::UserId>> buckets;
  for (const CrowdPlacement& placement : placements(window))
    buckets[{placement.cell, placement.label}].push_back(placement.user);
  std::vector<CrowdGroup> out;
  for (auto& [key, users] : buckets) {
    if (users.size() < std::max<std::size_t>(1, min_size)) continue;
    std::sort(users.begin(), users.end());
    out.push_back({key.first, key.second, std::move(users)});
  }
  std::sort(out.begin(), out.end(), [](const CrowdGroup& a, const CrowdGroup& b) {
    if (a.users.size() != b.users.size()) return a.users.size() > b.users.size();
    if (a.cell != b.cell) return a.cell < b.cell;
    return a.label < b.label;
  });
  return out;
}

std::size_t CrowdModel::total_placements() const noexcept {
  std::size_t total = 0;
  for (const auto& window : placements_) total += window->size();
  return total;
}

CrowdModel::Rhythm CrowdModel::rhythm() const {
  Rhythm out;
  std::map<mining::Item, std::size_t> index;
  for (const auto& window : placements_) {
    for (const CrowdPlacement& placement : *window) index.emplace(placement.label, 0);
  }
  std::size_t next = 0;
  for (auto& [label, slot] : index) {
    slot = next++;
    out.labels.push_back(label);
  }
  out.counts.assign(out.labels.size(),
                    std::vector<std::size_t>(placements_.size(), 0));
  for (std::size_t w = 0; w < placements_.size(); ++w) {
    for (const CrowdPlacement& placement : *placements_[w])
      ++out.counts[index[placement.label]][w];
  }
  return out;
}

}  // namespace crowdweb::crowd
