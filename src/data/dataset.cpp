#include "data/dataset.hpp"

#include <algorithm>
#include <atomic>
#include <set>
#include <unordered_set>
#include <utility>

#include "geo/kernels.hpp"
#include "stats/summary.hpp"
#include "util/civil_time.hpp"
#include "util/format.hpp"

namespace crowdweb::data {

/// `capacity` slots of each of a user's four record columns. Slots
/// [0, filled) hold records and are never written again: a builder
/// writes only slots it created the buffer with or claimed past
/// `filled`, so readers of any version's prefix never race with a
/// writer.
struct ColumnBuffer {
  /// A buffer whose first `filled_slots` slots the creator fills before
  /// sharing it.
  ColumnBuffer(std::size_t slots, std::size_t filled_slots)
      : capacity(slots),
        timestamps(std::make_unique_for_overwrite<std::int64_t[]>(slots)),
        lats(std::make_unique_for_overwrite<double[]>(slots)),
        lons(std::make_unique_for_overwrite<double[]>(slots)),
        venues(std::make_unique_for_overwrite<VenueId[]>(slots)),
        filled(filled_slots) {}

  /// Claims slots [from, to) for the version of length `from`: succeeds
  /// only while that version is the buffer's longest filled one and the
  /// slots fit.
  bool claim(std::size_t from, std::size_t to) noexcept {
    return to <= capacity &&
           filled.compare_exchange_strong(from, to, std::memory_order_acq_rel);
  }

  /// Newest version's length: another builder may have claimed past a
  /// base that reads less.
  [[nodiscard]] std::size_t newest() const noexcept {
    return filled.load(std::memory_order_acquire);
  }

  void put(std::size_t slot, const CheckIn& c) noexcept {
    timestamps[slot] = c.timestamp;
    lats[slot] = c.position.lat;
    lons[slot] = c.position.lon;
    venues[slot] = c.venue;
  }

  const std::size_t capacity;
  const std::unique_ptr<std::int64_t[]> timestamps;
  const std::unique_ptr<double[]> lats;
  const std::unique_ptr<double[]> lons;
  const std::unique_ptr<VenueId[]> venues;

 private:
  std::atomic<std::size_t> filled;
};

Dataset::UserShard::UserShard(UserId user, std::shared_ptr<ColumnBuffer> buffer,
                              std::size_t size) noexcept
    : user_(user),
      size_(size),
      buffer_(std::move(buffer)),
      timestamps_(buffer_->timestamps.get()),
      lats_(buffer_->lats.get()),
      lons_(buffer_->lons.get()),
      venues_(buffer_->venues.get()) {}

std::size_t Dataset::UserShard::capacity() const noexcept { return buffer_->capacity; }

void Dataset::CheckInIterator::seek(std::size_t index) noexcept {
  index_ = index;
  const auto& offsets = dataset_->offsets_;
  if (offsets.empty() || index >= offsets.back()) {
    shard_ = dataset_->shards_.size();
    local_ = 0;
    return;
  }
  // offsets_[i] <= index < offsets_[i+1] puts the record in shard i.
  const auto it = std::upper_bound(offsets.begin(), offsets.end(), index);
  shard_ = static_cast<std::size_t>(it - offsets.begin()) - 1;
  local_ = index - offsets[shard_];
}

const Venue* Dataset::venue(VenueId id) const noexcept {
  if (!venues_ || id >= venues_->size()) return nullptr;
  return &(*venues_)[id];
}

Dataset::UserColumns Dataset::checkins_for(UserId user) const noexcept {
  const auto it = std::lower_bound(users_.begin(), users_.end(), user);
  if (it == users_.end() || *it != user) return {};
  const std::size_t index = static_cast<std::size_t>(it - users_.begin());
  return UserColumns(shards_[index].get(), venues_ ? venues_.get() : nullptr);
}

Dataset::ShardPtr Dataset::shard_for(UserId user) const noexcept {
  const auto it = std::lower_bound(users_.begin(), users_.end(), user);
  if (it == users_.end() || *it != user) return nullptr;
  return shards_[static_cast<std::size_t>(it - users_.begin())];
}

VenueSpec Dataset::venue_spec(VenueId id) const {
  const Venue* v = venue(id);
  if (v == nullptr) return {};
  VenueSpec spec;
  spec.id = v->id;
  spec.name = std::string(name(v->name));
  spec.category = v->category;
  spec.position = v->position;
  return spec;
}

DatasetStats Dataset::stats() const {
  DatasetStats s;
  s.checkin_count = checkin_count();
  s.user_count = users_.size();
  s.venue_count = venue_count();
  if (s.checkin_count == 0) return s;

  std::vector<double> per_user;
  per_user.reserve(users_.size());
  for (const ShardPtr& shard : shards_)
    per_user.push_back(static_cast<double>(shard->size()));
  s.mean_records_per_user = stats::mean(per_user);
  s.median_records_per_user = stats::median(per_user);

  std::int64_t first = shards_.front()->timestamps().front();
  std::int64_t last = first;
  for (const ShardPtr& shard : shards_) {
    // Shards are time-sorted: front/back bound the user's range.
    first = std::min(first, shard->timestamps().front());
    last = std::max(last, shard->timestamps().back());
  }
  s.first_timestamp = first;
  s.last_timestamp = last;
  s.collection_days = static_cast<std::size_t>(day_index(last) - day_index(first)) + 1;
  if (s.collection_days > 0)
    s.mean_records_per_user_day =
        s.mean_records_per_user / static_cast<double>(s.collection_days);
  return s;
}

std::vector<std::pair<std::string, std::size_t>> Dataset::monthly_counts() const {
  // Month key = year * 12 + (month - 1), kept ordered. Only the
  // timestamp column matters, so walk it directly.
  std::vector<std::pair<std::int64_t, std::size_t>> keyed;
  for (const ShardPtr& shard : shards_) {
    for (const std::int64_t timestamp : shard->timestamps()) {
      const CivilTime civil = to_civil(timestamp);
      const std::int64_t key = static_cast<std::int64_t>(civil.year) * 12 + civil.month - 1;
      const auto it = std::lower_bound(
          keyed.begin(), keyed.end(), key,
          [](const auto& entry, std::int64_t k) { return entry.first < k; });
      if (it != keyed.end() && it->first == key) {
        ++it->second;
      } else {
        keyed.insert(it, {key, 1});
      }
    }
  }
  std::vector<std::pair<std::string, std::size_t>> out;
  out.reserve(keyed.size());
  for (const auto& [key, count] : keyed) {
    out.emplace_back(
        crowdweb::format("{:04}-{:02}", key / 12, key % 12 + 1), count);
  }
  return out;
}

std::size_t Dataset::active_days(UserId user, std::int64_t from, std::int64_t to) const {
  std::set<std::int64_t> days;
  for (const std::int64_t timestamp : checkins_for(user).timestamps()) {
    if (timestamp < from) continue;
    if (to != 0 && timestamp >= to) continue;
    days.insert(day_index(timestamp));
  }
  return days.size();
}

bool Dataset::is_active_user(UserId user, const ActiveUserCriteria& criteria) const {
  const auto timestamps = checkins_for(user).timestamps();
  // Count qualifying days. Records are time-sorted, so a single pass
  // suffices: a day qualifies when the gap rule is disabled (any record)
  // or when two consecutive records on that day are close enough.
  std::set<std::int64_t> qualifying;
  std::int64_t prev_time = 0;
  std::int64_t prev_day = -1;
  bool have_prev = false;
  for (const std::int64_t timestamp : timestamps) {
    if (timestamp < criteria.from || timestamp >= criteria.to) {
      have_prev = false;
      continue;
    }
    const std::int64_t day = day_index(timestamp);
    if (criteria.max_gap_seconds <= 0) {
      qualifying.insert(day);
    } else if (have_prev && prev_day == day &&
               timestamp - prev_time <= criteria.max_gap_seconds) {
      qualifying.insert(day);
    }
    prev_time = timestamp;
    prev_day = day;
    have_prev = true;
  }
  return static_cast<int>(qualifying.size()) > criteria.min_days;
}

void Dataset::adopt(VenueTablePtr venues, StringPoolPtr pool, NamesPtr names,
                    std::vector<ShardPtr> shards, const geo::BoundingBox& bounds) {
  venues_ = std::move(venues);
  name_pool_ = std::move(pool);
  names_ = std::move(names);
  shards_ = std::move(shards);
  users_.clear();
  offsets_.clear();
  users_.reserve(shards_.size());
  offsets_.reserve(shards_.size() + 1);
  std::size_t total = 0;
  bounds_ = bounds;
  const bool derive_bounds = bounds_.empty();
  for (const ShardPtr& shard : shards_) {
    users_.push_back(shard->user());
    offsets_.push_back(total);
    total += shard->size();
    if (derive_bounds) geo::extend_bounds(bounds_, shard->lats(), shard->lons());
  }
  offsets_.push_back(total);
}

Dataset Dataset::subset(std::vector<CheckIn> keep) const {
  // `keep` preserves (user, timestamp) order, so shards fall out of a
  // single grouping pass — no re-sort, and the venue table is shared.
  std::vector<ShardPtr> shards;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= keep.size(); ++i) {
    if (i == keep.size() || keep[i].user != keep[begin].user) {
      const std::size_t n = i - begin;
      auto buffer = std::make_shared<ColumnBuffer>(n, n);
      for (std::size_t k = begin; k < i; ++k) buffer->put(k - begin, keep[k]);
      shards.push_back(ShardPtr(new UserShard(keep[begin].user, std::move(buffer), n)));
      begin = i;
    }
  }
  Dataset out;
  out.adopt(venues_, name_pool_, names_, std::move(shards), geo::BoundingBox{});
  return out;
}

Dataset Dataset::filter_time_range(std::int64_t from, std::int64_t to) const {
  std::vector<CheckIn> keep;
  for (const CheckIn& c : checkins()) {
    if (c.timestamp >= from && c.timestamp < to) keep.push_back(c);
  }
  return subset(std::move(keep));
}

Dataset Dataset::filter_active_users(const ActiveUserCriteria& criteria) const {
  std::vector<UserId> selected;
  for (const UserId user : users_) {
    if (is_active_user(user, criteria)) selected.push_back(user);
  }
  return filter_users(selected);
}

Dataset Dataset::filter_users(std::span<const UserId> users) const {
  // The wanted users' shards themselves, not copies: a later append by
  // either dataset's lineage claims past the other's length or copies.
  const std::unordered_set<UserId> wanted(users.begin(), users.end());
  std::vector<ShardPtr> shards;
  for (const ShardPtr& shard : shards_) {
    if (wanted.contains(shard->user())) shards.push_back(shard);
  }
  Dataset out;
  out.adopt(venues_, name_pool_, names_, std::move(shards), geo::BoundingBox{});
  return out;
}

const Venue* DatasetBuilder::venue_at(VenueId id) const noexcept {
  const std::size_t base_count = base_.venue_count();
  if (id < base_count) return base_.venue(id);
  const std::size_t local = id - base_count;
  if (local >= new_venues_.size()) return nullptr;
  return &new_venues_[local];
}

void DatasetBuilder::ensure_pool() {
  if (!pool_) pool_ = std::make_shared<StringPool>();
}

Status DatasetBuilder::validate_venue(const Venue& venue, std::string_view display_name) {
  const std::size_t next_id = base_.venue_count() + new_venues_.size();
  if (venue.id != next_id)
    return invalid_argument(
        crowdweb::format("venue ids must be dense: expected {}, got {}", next_id,
                         venue.id));
  if (!geo::is_valid(venue.position))
    return invalid_argument(crowdweb::format("venue '{}' has an invalid position", display_name));
  if (venue.category == kNoCategory)
    return invalid_argument(crowdweb::format("venue '{}' has no category", display_name));
  return Status::ok();
}

Status DatasetBuilder::add_venue(const VenueSpec& spec) {
  Venue venue;
  venue.id = spec.id;
  venue.category = spec.category;
  venue.position = spec.position;
  if (Status status = validate_venue(venue, spec.name); !status.is_ok()) return status;
  ensure_pool();
  venue.name = pool_->intern(spec.name);
  new_venues_.push_back(venue);
  return Status::ok();
}

Status DatasetBuilder::add_venue(Venue venue) {
  ensure_pool();
  const std::string_view display_name =
      venue.name < pool_->size() ? pool_->snapshot()->names()[venue.name]
                                 : std::string_view{};
  if (Status status = validate_venue(venue, display_name); !status.is_ok()) return status;
  if (venue.name >= pool_->size())
    return invalid_argument(crowdweb::format(
        "venue {} references name id {} outside the pool ({} interned)", venue.id,
        venue.name, pool_->size()));
  new_venues_.push_back(venue);
  return Status::ok();
}

Status DatasetBuilder::add_checkin(CheckIn checkin) {
  const Venue* venue = venue_at(checkin.venue);
  if (venue == nullptr)
    return invalid_argument(crowdweb::format("check-in references unknown venue {}", checkin.venue));
  if (!geo::is_valid(checkin.position))
    return invalid_argument("check-in has an invalid position");
  if (checkin.category != venue->category)
    return invalid_argument(
        crowdweb::format("check-in category {} does not match venue category {}",
                         checkin.category, venue->category));
  pending_bounds_.extend(checkin.position);
  pending_[checkin.user].push_back(checkin);
  ++pending_count_;
  return Status::ok();
}

Dataset DatasetBuilder::build() {
  stats_ = {};
  ensure_pool();

  // Venue table: copy-on-write — adopt the base table untouched unless
  // this delta introduced venues.
  Dataset::VenueTablePtr venues;
  if (new_venues_.empty()) {
    venues = base_.venues_;
    stats_.venue_table_shared = venues != nullptr;
  } else {
    auto table = std::make_shared<std::vector<Venue>>();
    table->reserve(base_.venue_count() + new_venues_.size());
    if (base_.venues_)
      table->insert(table->end(), base_.venues_->begin(), base_.venues_->end());
    for (const Venue& v : new_venues_) table->push_back(v);
    venues = std::move(table);
  }

  // Touched users, ascending, each with its delta stably time-sorted so
  // same-timestamp records keep arrival order.
  std::vector<UserId> touched;
  touched.reserve(pending_.size());
  for (auto& [user, records] : pending_) {
    touched.push_back(user);
    std::stable_sort(records.begin(), records.end(),
                     [](const CheckIn& a, const CheckIn& b) {
                       return a.timestamp < b.timestamp;
                     });
  }
  std::sort(touched.begin(), touched.end());

  // Merge the base's user-sorted shards with the touched users: an
  // untouched shard is shared by pointer; a touched one gets a new
  // version. An in-order delta is written past the base's prefix (in
  // the base's buffer when the base is its newest version and the delta
  // fits, else after moving the prefix into a buffer 1.5x as large); any
  // other delta is a stable columnar time-merge of base records (first
  // on ties) and the delta into a fresh buffer.
  std::vector<Dataset::ShardPtr> shards;
  shards.reserve(base_.shards_.size() + touched.size());
  std::size_t bi = 0;
  std::size_t ti = 0;
  while (bi < base_.shards_.size() || ti < touched.size()) {
    if (ti == touched.size() ||
        (bi < base_.shards_.size() && base_.shards_[bi]->user() < touched[ti])) {
      shards.push_back(base_.shards_[bi]);
      ++stats_.shards_reused;
      ++bi;
      continue;
    }
    const UserId user = touched[ti];
    std::vector<CheckIn>& delta = pending_[user];
    const Dataset::UserShard* existing = nullptr;
    if (bi < base_.shards_.size() && base_.shards_[bi]->user() == user) {
      existing = base_.shards_[bi].get();
      ++bi;
    }
    const std::size_t base_n = existing ? existing->size() : 0;
    const std::size_t n = base_n + delta.size();
    std::shared_ptr<ColumnBuffer> buffer;
    if (base_n > 0 && delta.front().timestamp >= existing->timestamps_[base_n - 1]) {
      ColumnBuffer& held = *existing->buffer_;
      if (held.claim(base_n, n)) {
        buffer = existing->buffer_;
      } else if (held.newest() == base_n) {
        const std::size_t grown = std::max(n, held.capacity + held.capacity / 2);
        buffer = std::make_shared<ColumnBuffer>(grown, n);
        std::copy_n(existing->timestamps_, base_n, buffer->timestamps.get());
        std::copy_n(existing->lats_, base_n, buffer->lats.get());
        std::copy_n(existing->lons_, base_n, buffer->lons.get());
        std::copy_n(existing->venues_, base_n, buffer->venues.get());
      }
    }
    if (buffer) {
      for (std::size_t j = 0; j < delta.size(); ++j) buffer->put(base_n + j, delta[j]);
      ++stats_.shards_appended;
    } else {
      buffer = std::make_shared<ColumnBuffer>(n, n);
      stats_.records_copied += base_n;
      std::size_t i = 0;  // base cursor
      std::size_t j = 0;  // delta cursor
      for (std::size_t k = 0; k < n; ++k) {
        // Base wins timestamp ties, matching std::merge's stable order.
        if (j == delta.size() ||
            (i < base_n && existing->timestamps_[i] <= delta[j].timestamp)) {
          buffer->timestamps[k] = existing->timestamps_[i];
          buffer->lats[k] = existing->lats_[i];
          buffer->lons[k] = existing->lons_[i];
          buffer->venues[k] = existing->venues_[i];
          ++i;
        } else {
          buffer->put(k, delta[j]);
          ++j;
        }
      }
    }
    shards.push_back(Dataset::ShardPtr(new Dataset::UserShard(user, std::move(buffer), n)));
    ++stats_.shards_rebuilt;
    ++ti;
  }

  geo::BoundingBox bounds = base_.bounds_;
  bounds.extend(pending_bounds_);

  Dataset out;
  out.adopt(std::move(venues), pool_, pool_->snapshot(), std::move(shards), bounds);
  base_ = Dataset{};
  new_venues_.clear();
  pending_.clear();
  pending_count_ = 0;
  pending_bounds_ = geo::BoundingBox{};
  return out;
}

}  // namespace crowdweb::data
