// The check-in dataset container and the paper's preprocessing steps.
//
// Holds venues and check-ins, indexes records per user, and implements
// Section I.1 of the paper: corpus statistics (record counts, per-user
// mean/median, sparsity), month-window restriction (April-June is the
// richest period), and active-user selection ("users with less than
// 2 hours check-in records for more than 50 days within the 3-month
// period" — i.e. users whose records include, on more than `min_days`
// distinct days, check-ins less than two hours apart).
//
// Storage is sharded per user and columnar: each user's time-sorted
// records are the filled prefix of one column buffer (parallel
// timestamp / lat / lon / venue-id columns), viewed through a
// `UserShard` held by shared_ptr, and the venue table is one shared
// immutable vector of POD rows whose names are interned NameIds into a
// shared StringPool. The category column is not stored per record:
// add_checkin enforces that a check-in's category equals its venue's,
// so kernels derive it from the venue-id column and the venue table.
//
// A filled slot of a column buffer is never written again; a shard is
// the buffer plus the length its dataset version sees. Copying a
// Dataset copies only the shard pointers, and an incremental build
// (DatasetBuilder seeded `from` a base dataset) gives new shards only to
// the users the delta touched — every other shard is shared with the
// base. A touched user whose delta is not earlier than their last
// record, and whose base version is the newest one of its buffer, gets
// the delta written into the buffer's spare slots past that prefix:
// older versions keep seeing their shorter prefix, unchanged, so no
// history is copied. Any other touched user gets a fresh buffer. The
// name pool is append-only so base ids never change. A dataset built
// incrementally is value-identical to one built from scratch over the
// same records.
//
// Hot paths walk the columns directly via `checkins_for` (UserColumns)
// or `UserShard`; the record-at-a-time views (CheckInView, UserColumns
// iteration) materialize `CheckIn` values on the fly for callers that
// want the classic struct.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "data/checkin.hpp"
#include "data/string_pool.hpp"
#include "util/status.hpp"

namespace crowdweb::data {

/// Corpus statistics reported in Section I.1 of the paper.
struct DatasetStats {
  std::size_t checkin_count = 0;
  std::size_t user_count = 0;
  std::size_t venue_count = 0;
  double mean_records_per_user = 0.0;
  double median_records_per_user = 0.0;
  std::int64_t first_timestamp = 0;
  std::int64_t last_timestamp = 0;
  std::size_t collection_days = 0;        ///< days spanned by the data
  double mean_records_per_user_day = 0.0; ///< mean/collection_days; <1 = sparse
};

/// Criteria for the paper's active-user filter.
struct ActiveUserCriteria {
  std::int64_t from = 0;  ///< inclusive epoch seconds
  std::int64_t to = 0;    ///< exclusive epoch seconds
  /// A user qualifies with *more than* this many qualifying days.
  int min_days = 50;
  /// A day qualifies when it contains two check-ins at most this many
  /// seconds apart (the paper's "less than 2 hours" richness rule).
  /// Zero disables the gap rule: any day with a record qualifies.
  std::int64_t max_gap_seconds = 2 * 3600;
};

/// The raw column storage behind a user's shard versions (dataset.cpp).
struct ColumnBuffer;

/// An immutable, indexed check-in corpus.
///
/// Build with `DatasetBuilder`; all accessors require the built state.
class Dataset {
 public:
  /// One version of a user's time-sorted records as structure-of-arrays
  /// columns: the first size() slots of a column buffer shared along the
  /// user's versions. A version is immutable, and shared between the
  /// dataset versions whose delta never touched this user; later
  /// versions may append past its length in the same buffer, which the
  /// version never sees. All four columns have the same length; index i
  /// across them is one check-in. The per-record category is derived,
  /// not stored: it always equals the venue's category.
  class UserShard {
   public:
    [[nodiscard]] UserId user() const noexcept { return user_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    /// Slots of the underlying buffer, this version's size() included:
    /// what it holds resident for this user, append slack and all.
    [[nodiscard]] std::size_t capacity() const noexcept;

    /// Sorted ascending (stable).
    [[nodiscard]] std::span<const std::int64_t> timestamps() const noexcept {
      return {timestamps_, size_};
    }
    [[nodiscard]] std::span<const double> lats() const noexcept { return {lats_, size_}; }
    [[nodiscard]] std::span<const double> lons() const noexcept { return {lons_, size_}; }
    [[nodiscard]] std::span<const VenueId> venues() const noexcept { return {venues_, size_}; }

   private:
    friend class Dataset;
    friend class DatasetBuilder;
    UserShard(UserId user, std::shared_ptr<ColumnBuffer> buffer, std::size_t size) noexcept;

    UserId user_ = 0;
    std::size_t size_ = 0;
    std::shared_ptr<ColumnBuffer> buffer_;
    const std::int64_t* timestamps_ = nullptr;
    const double* lats_ = nullptr;
    const double* lons_ = nullptr;
    const VenueId* venues_ = nullptr;
  };
  using ShardPtr = std::shared_ptr<const UserShard>;
  using VenueTablePtr = std::shared_ptr<const std::vector<Venue>>;

  /// One user's records: raw column access for kernels, plus a
  /// record-at-a-time view that materializes `CheckIn` values (the
  /// category is resolved through the venue table). Valid as long as
  /// the dataset (or a copy of it) lives.
  class UserColumns {
   public:
    UserColumns() = default;

    [[nodiscard]] UserId user() const noexcept { return shard_ ? shard_->user() : 0; }
    [[nodiscard]] std::size_t size() const noexcept { return shard_ ? shard_->size() : 0; }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }

    /// Raw columns (empty spans for an unknown user).
    [[nodiscard]] std::span<const std::int64_t> timestamps() const noexcept {
      return shard_ ? shard_->timestamps() : std::span<const std::int64_t>{};
    }
    [[nodiscard]] std::span<const double> lats() const noexcept {
      return shard_ ? shard_->lats() : std::span<const double>{};
    }
    [[nodiscard]] std::span<const double> lons() const noexcept {
      return shard_ ? shard_->lons() : std::span<const double>{};
    }
    [[nodiscard]] std::span<const VenueId> venues() const noexcept {
      return shard_ ? shard_->venues() : std::span<const VenueId>{};
    }

    /// Per-record field accessors (no bounds check; i < size()).
    [[nodiscard]] std::int64_t timestamp(std::size_t i) const noexcept {
      return shard_->timestamps()[i];
    }
    [[nodiscard]] geo::LatLon position(std::size_t i) const noexcept {
      return {shard_->lats()[i], shard_->lons()[i]};
    }
    [[nodiscard]] VenueId venue(std::size_t i) const noexcept { return shard_->venues()[i]; }
    [[nodiscard]] CategoryId category(std::size_t i) const noexcept {
      return venue_table_ ? (*venue_table_)[venue(i)].category : kNoCategory;
    }

    /// Materialized record i (by value — the struct does not exist in
    /// storage).
    [[nodiscard]] CheckIn operator[](std::size_t i) const noexcept {
      CheckIn c;
      c.user = shard_->user();
      c.venue = venue(i);
      c.category = category(i);
      c.position = position(i);
      c.timestamp = timestamp(i);
      return c;
    }
    [[nodiscard]] CheckIn front() const noexcept { return (*this)[0]; }
    [[nodiscard]] CheckIn back() const noexcept { return (*this)[size() - 1]; }

    /// Random-access proxy iterator yielding materialized CheckIns.
    class Iterator {
     public:
      using iterator_category = std::random_access_iterator_tag;
      using value_type = CheckIn;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = CheckIn;

      Iterator() = default;

      [[nodiscard]] CheckIn operator*() const noexcept { return (*view_)[i_]; }
      [[nodiscard]] CheckIn operator[](difference_type n) const noexcept {
        return (*view_)[i_ + static_cast<std::size_t>(n)];
      }

      Iterator& operator++() noexcept { ++i_; return *this; }
      Iterator operator++(int) noexcept { Iterator out = *this; ++i_; return out; }
      Iterator& operator--() noexcept { --i_; return *this; }
      Iterator operator--(int) noexcept { Iterator out = *this; --i_; return out; }
      Iterator& operator+=(difference_type n) noexcept {
        i_ += static_cast<std::size_t>(n);
        return *this;
      }
      Iterator& operator-=(difference_type n) noexcept { return *this += -n; }
      [[nodiscard]] friend Iterator operator+(Iterator it, difference_type n) noexcept {
        return it += n;
      }
      [[nodiscard]] friend Iterator operator+(difference_type n, Iterator it) noexcept {
        return it += n;
      }
      [[nodiscard]] friend Iterator operator-(Iterator it, difference_type n) noexcept {
        return it += -n;
      }
      [[nodiscard]] friend difference_type operator-(const Iterator& a,
                                                     const Iterator& b) noexcept {
        return static_cast<difference_type>(a.i_) - static_cast<difference_type>(b.i_);
      }
      [[nodiscard]] friend bool operator==(const Iterator& a, const Iterator& b) noexcept {
        return a.i_ == b.i_;
      }
      [[nodiscard]] friend auto operator<=>(const Iterator& a, const Iterator& b) noexcept {
        return a.i_ <=> b.i_;
      }

     private:
      friend class UserColumns;
      Iterator(const UserColumns* view, std::size_t i) noexcept : view_(view), i_(i) {}
      const UserColumns* view_ = nullptr;
      std::size_t i_ = 0;
    };

    [[nodiscard]] Iterator begin() const noexcept { return {this, 0}; }
    [[nodiscard]] Iterator end() const noexcept { return {this, size()}; }

   private:
    friend class Dataset;
    UserColumns(const UserShard* shard, const std::vector<Venue>* venue_table) noexcept
        : shard_(shard), venue_table_(venue_table) {}
    const UserShard* shard_ = nullptr;             ///< null == unknown user
    const std::vector<Venue>* venue_table_ = nullptr;
  };

  /// Random-access iterator over every check-in in (user, timestamp)
  /// order, walking the per-user shard columns and materializing each
  /// record by value.
  class CheckInIterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = CheckIn;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = CheckIn;

    CheckInIterator() = default;

    [[nodiscard]] CheckIn operator*() const noexcept {
      return dataset_->materialize(*dataset_->shards_[shard_], local_);
    }
    [[nodiscard]] CheckIn operator[](difference_type n) const noexcept {
      return *(*this + n);
    }

    CheckInIterator& operator++() noexcept {
      ++index_;
      if (++local_ >= dataset_->shards_[shard_]->size()) {
        ++shard_;
        local_ = 0;
      }
      return *this;
    }
    CheckInIterator operator++(int) noexcept {
      CheckInIterator out = *this;
      ++*this;
      return out;
    }
    CheckInIterator& operator--() noexcept {
      --index_;
      if (local_ == 0) {
        --shard_;
        local_ = dataset_->shards_[shard_]->size() - 1;
      } else {
        --local_;
      }
      return *this;
    }
    CheckInIterator operator--(int) noexcept {
      CheckInIterator out = *this;
      --*this;
      return out;
    }
    CheckInIterator& operator+=(difference_type n) noexcept {
      seek(index_ + static_cast<std::size_t>(n));
      return *this;
    }
    CheckInIterator& operator-=(difference_type n) noexcept { return *this += -n; }
    [[nodiscard]] friend CheckInIterator operator+(CheckInIterator it,
                                                   difference_type n) noexcept {
      return it += n;
    }
    [[nodiscard]] friend CheckInIterator operator+(difference_type n,
                                                   CheckInIterator it) noexcept {
      return it += n;
    }
    [[nodiscard]] friend CheckInIterator operator-(CheckInIterator it,
                                                   difference_type n) noexcept {
      return it += -n;
    }
    [[nodiscard]] friend difference_type operator-(const CheckInIterator& a,
                                                   const CheckInIterator& b) noexcept {
      return static_cast<difference_type>(a.index_) - static_cast<difference_type>(b.index_);
    }
    [[nodiscard]] friend bool operator==(const CheckInIterator& a,
                                         const CheckInIterator& b) noexcept {
      return a.index_ == b.index_;
    }
    [[nodiscard]] friend auto operator<=>(const CheckInIterator& a,
                                          const CheckInIterator& b) noexcept {
      return a.index_ <=> b.index_;
    }

   private:
    friend class Dataset;
    CheckInIterator(const Dataset* dataset, std::size_t index) noexcept
        : dataset_(dataset) {
      seek(index);
    }
    void seek(std::size_t index) noexcept;

    const Dataset* dataset_ = nullptr;
    std::size_t index_ = 0;  ///< global rank in (user, timestamp) order
    std::size_t shard_ = 0;  ///< shard containing index_ (== shard count at end)
    std::size_t local_ = 0;  ///< offset inside that shard
  };

  /// The full corpus in (user, timestamp) order, as an indexable range.
  class CheckInView {
   public:
    [[nodiscard]] CheckInIterator begin() const noexcept {
      return {dataset_, 0};
    }
    [[nodiscard]] CheckInIterator end() const noexcept {
      return {dataset_, dataset_->checkin_count()};
    }
    [[nodiscard]] std::size_t size() const noexcept { return dataset_->checkin_count(); }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] CheckIn operator[](std::size_t index) const noexcept {
      return begin()[static_cast<std::ptrdiff_t>(index)];
    }
    [[nodiscard]] CheckIn front() const noexcept { return (*this)[0]; }
    [[nodiscard]] CheckIn back() const noexcept { return (*this)[size() - 1]; }

   private:
    friend class Dataset;
    explicit CheckInView(const Dataset* dataset) noexcept : dataset_(dataset) {}
    const Dataset* dataset_;
  };

  Dataset() = default;

  [[nodiscard]] std::size_t checkin_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.back();
  }
  [[nodiscard]] std::size_t user_count() const noexcept { return users_.size(); }
  [[nodiscard]] std::size_t venue_count() const noexcept {
    return venues_ ? venues_->size() : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return checkin_count() == 0; }

  /// All check-ins, in (user, timestamp) order.
  [[nodiscard]] CheckInView checkins() const noexcept { return CheckInView(this); }

  /// Distinct user ids, ascending.
  [[nodiscard]] std::span<const UserId> users() const noexcept { return users_; }

  /// All venues, indexed by VenueId.
  [[nodiscard]] std::span<const Venue> venues() const noexcept {
    return venues_ ? std::span<const Venue>(*venues_) : std::span<const Venue>{};
  }
  [[nodiscard]] const Venue* venue(VenueId id) const noexcept;

  /// This user's records as columns (empty when unknown).
  [[nodiscard]] UserColumns checkins_for(UserId user) const noexcept;

  /// The user's shard object, or null when unknown. Shards are shared
  /// between dataset versions whose delta never touched the user, so
  /// pointer equality across versions proves the records were reused,
  /// not copied.
  [[nodiscard]] ShardPtr shard_for(UserId user) const noexcept;

  /// The shared venue table (pointer equality across versions proves
  /// copy-on-write reuse). Null for an empty dataset.
  [[nodiscard]] VenueTablePtr venue_table() const noexcept { return venues_; }

  /// The append-only pool venue names are interned into (shared across
  /// dataset versions built from the same lineage). Null only for a
  /// default-constructed dataset.
  [[nodiscard]] const StringPoolPtr& name_pool() const noexcept { return name_pool_; }

  /// Frozen name snapshot taken when this dataset was built — the
  /// epoch's string table for rendering. Null only for a
  /// default-constructed dataset.
  [[nodiscard]] const NamesPtr& names() const noexcept { return names_; }

  /// The interned string behind `id` ("" when unknown).
  [[nodiscard]] std::string_view name(NameId id) const noexcept {
    return names_ ? (*names_)[id] : std::string_view{};
  }

  /// Display name of a venue ("" when the venue is unknown).
  [[nodiscard]] std::string_view venue_name(VenueId id) const noexcept {
    const Venue* v = venue(id);
    return v ? name(v->name) : std::string_view{};
  }

  /// Venue `id` with its name resolved back to a string — the boundary
  /// form, suitable for feeding a fresh DatasetBuilder. Default
  /// VenueSpec when the venue is unknown.
  [[nodiscard]] VenueSpec venue_spec(VenueId id) const;

  /// Geographic extent of all check-ins (empty box for an empty dataset).
  [[nodiscard]] const geo::BoundingBox& bounds() const noexcept { return bounds_; }

  /// Section I.1 corpus statistics.
  [[nodiscard]] DatasetStats stats() const;

  /// Number of check-ins per calendar month, as ("YYYY-MM", count) pairs
  /// in chronological order.
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> monthly_counts() const;

  /// Distinct days on which `user` has at least one check-in in
  /// [from, to); to == 0 means unbounded.
  [[nodiscard]] std::size_t active_days(UserId user, std::int64_t from = 0,
                                        std::int64_t to = 0) const;

  /// True when `user` satisfies `criteria` (see ActiveUserCriteria).
  [[nodiscard]] bool is_active_user(UserId user, const ActiveUserCriteria& criteria) const;

  /// New dataset restricted to [from, to) epoch seconds.
  [[nodiscard]] Dataset filter_time_range(std::int64_t from, std::int64_t to) const;

  /// New dataset keeping only users satisfying `criteria` (all their
  /// records, not just those inside the window).
  [[nodiscard]] Dataset filter_active_users(const ActiveUserCriteria& criteria) const;

  /// New dataset keeping only the given users. It shares their shards
  /// and the venue table with this one (no record is copied).
  [[nodiscard]] Dataset filter_users(std::span<const UserId> users) const;

 private:
  friend class DatasetBuilder;

  /// Adopts user-sorted shards + venue table + name pool, rebuilding
  /// users_/offsets_ and — when `bounds` is empty — deriving the
  /// bounds by scanning the coordinate columns.
  void adopt(VenueTablePtr venues, StringPoolPtr pool, NamesPtr names,
             std::vector<ShardPtr> shards, const geo::BoundingBox& bounds);

  /// Materialized record `local` of `shard` (category resolved through
  /// the venue table).
  [[nodiscard]] CheckIn materialize(const UserShard& shard, std::size_t local) const noexcept {
    CheckIn c;
    c.user = shard.user();
    c.venue = shard.venues()[local];
    c.category = venues_ ? (*venues_)[c.venue].category : kNoCategory;
    c.position = {shard.lats()[local], shard.lons()[local]};
    c.timestamp = shard.timestamps()[local];
    return c;
  }

  /// Subset sharing this dataset's venue table and name pool: `keep`
  /// holds the records in (user, timestamp) order (any stable
  /// subsequence of checkins() qualifies).
  [[nodiscard]] Dataset subset(std::vector<CheckIn> keep) const;

  VenueTablePtr venues_;             // null == empty table
  StringPoolPtr name_pool_;          // shared, append-only (null == default-constructed)
  NamesPtr names_;                   // frozen snapshot at build time
  std::vector<ShardPtr> shards_;     // sorted by user id
  std::vector<UserId> users_;        // distinct, ascending (parallel to shards_)
  std::vector<std::size_t> offsets_; // users_[i] owns global ranks [offsets_[i], offsets_[i+1])
  geo::BoundingBox bounds_;
};

/// Accumulates venues and check-ins, validates them, and produces a
/// `Dataset`.
///
/// The default-constructed builder builds from scratch; the `base`
/// constructor is the incremental form: it starts from an existing
/// dataset and `build()` merges only the added records into the shards
/// of the users they touch, sharing every untouched shard (and, when no
/// venue was added, the whole venue table) with the base. Both forms
/// run the same merge code — a from-scratch build is an incremental
/// build over an empty base — and order records identically: by user,
/// then timestamp, ties resolved by insertion order (base records
/// before added ones).
///
/// Venue names are interned here, at the build boundary: add_venue on
/// a VenueSpec assigns the name a dense NameId from the builder's pool
/// (the base's pool for incremental builds, so ids are stable across
/// epochs). The pre-interned Venue overload serves recovery paths that
/// replay rows already carrying NameIds from the same pool.
class DatasetBuilder {
 public:
  DatasetBuilder() = default;

  /// Incremental form: `build()` applies the added delta to `base`.
  explicit DatasetBuilder(const Dataset& base)
      : base_(base), pool_(base.name_pool()) {}

  /// From-scratch form interning into an existing pool — for recovery
  /// paths that rebuild a corpus whose rows already reference `pool`.
  explicit DatasetBuilder(StringPoolPtr pool) : pool_(std::move(pool)) {}

  /// Registers a venue described at the boundary (string name); the
  /// name is interned. The id must equal the number of venues known so
  /// far, base table included (dense ids).
  Status add_venue(const VenueSpec& spec);

  /// Registers a venue whose name is already interned in this
  /// builder's pool (recovery/replay paths).
  Status add_venue(Venue venue);

  /// Adds a check-in; the venue must exist, the position must be valid,
  /// and the category must match the venue's.
  Status add_checkin(CheckIn checkin);

  /// Number of records the built dataset will hold (base + added).
  [[nodiscard]] std::size_t checkin_count() const noexcept {
    return base_.checkin_count() + pending_count_;
  }

  /// The pool venue names are interned into (created lazily; never
  /// null after the first add_venue or build).
  [[nodiscard]] const StringPoolPtr& name_pool() {
    ensure_pool();
    return pool_;
  }

  /// How the last `build()` assembled its shards, for delta telemetry.
  struct BuildStats {
    std::size_t shards_reused = 0;    ///< base shards shared untouched
    /// Touched users given a new shard version: appended in place,
    /// copied, or new.
    std::size_t shards_rebuilt = 0;
    /// Of those, versions that wrote the delta past their base's prefix
    /// instead of copying it (a full buffer first moves the prefix into
    /// a buffer 1.5x as large; that move is amortised, not counted below).
    std::size_t shards_appended = 0;
    /// Base records copied into a fresh buffer by touched users that
    /// could not append: a delta earlier than the user's last record, or
    /// a base that is not its buffer's newest version.
    std::size_t records_copied = 0;
    bool venue_table_shared = false;  ///< base venue table adopted as-is
  };

  /// Merges, indexes, and returns the dataset; the builder is left
  /// empty (base cleared, nothing pending).
  [[nodiscard]] Dataset build();

  /// Statistics of the most recent build().
  [[nodiscard]] const BuildStats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] const Venue* venue_at(VenueId id) const noexcept;
  Status validate_venue(const Venue& venue, std::string_view display_name);
  void ensure_pool();

  Dataset base_;
  StringPoolPtr pool_;  ///< created lazily when null
  std::vector<Venue> new_venues_;
  /// Added records grouped per user, in arrival order.
  std::unordered_map<UserId, std::vector<CheckIn>> pending_;
  std::size_t pending_count_ = 0;
  geo::BoundingBox pending_bounds_;
  BuildStats stats_;
};

}  // namespace crowdweb::data
