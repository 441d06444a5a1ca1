// Lock-cheap metrics registry: the one accounting system for the
// CrowdWeb service.
//
// Instruments register metrics once (under a registry mutex) and then
// update them through plain atomic cells — counters, gauges, and
// fixed-bucket histograms never take a lock on the hot path. Labeled
// families resolve a label-value tuple to its cell under a family mutex;
// hot paths are expected to cache the returned reference (label sets are
// stable for the registry's lifetime), so the lookup happens once per
// (instrument, label set), not per event.
//
// Every value is recorded when it changes: there are no scrape-time
// callbacks, so rendering reads atomic cells and never calls into a
// component. A component that runs once per shard (the ingest worker and
// its durable store) labels each of its series with a constant `shard`
// label — "0" for a lone worker — so N of them record into one registry.
//
// Two exposition formats are rendered on demand (see exposition.hpp):
// Prometheus text format for `GET /metrics` and a JSON mirror folded
// into `/api/status`.
//
// Cardinality is bounded by construction: every family carries a
// max-series cap, and label sets beyond the cap collapse into a single
// overflow series (label values "other") while a registry-wide
// `crowdweb_telemetry_dropped_label_sets_total` counter records the
// collapse. Callers must still label with *patterns* (e.g. the router's
// "/api/crowd/:window"), never raw request data — the cap is a backstop,
// not a license.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace crowdweb::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void increment(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A value that can go up and down (queue depth, active connections).
class Gauge {
 public:
  void set(double value) noexcept { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with one atomic cell per bucket.
///
/// `bounds` are the inclusive upper bounds of the finite buckets, sorted
/// ascending; an implicit +Inf bucket catches the rest. observe() is two
/// relaxed atomic RMWs (cell + sum). Snapshots read the cells without
/// stopping writers, so a scrape may be at most a few observations out
/// of sync between sum and count — each counter is individually exact.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds().size() is +Inf.
  [[nodiscard]] std::uint64_t cell(std::size_t index) const noexcept {
    return cells_[index].load(std::memory_order_relaxed);
  }
  /// Total observations (sum of all cells).
  [[nodiscard]] std::uint64_t count() const noexcept;
  /// Sum of observed values.
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  const std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// Default buckets for request-level latencies (seconds, 0.5 ms .. 2.5 s).
[[nodiscard]] std::vector<double> default_latency_buckets();
/// Default buckets for batch/rebuild durations (seconds, 1 ms .. 30 s).
[[nodiscard]] std::vector<double> default_duration_buckets();

/// A set of series sharing one metric name, distinguished by label
/// values. `T` is Counter, Gauge, or Histogram.
template <typename T>
class Family {
 public:
  /// Resolves (creating on first use) the series for `label_values`,
  /// which must match the family's label names positionally. Past the
  /// series cap, returns the shared overflow series ("other", ...).
  /// Thread-safe; cache the reference on hot paths.
  T& with_labels(const std::vector<std::string>& label_values);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<std::string>& label_names() const noexcept {
    return label_names_;
  }
  /// Number of live series (racy snapshot).
  [[nodiscard]] std::size_t series_count() const;
  /// Sum of values across all series (counters only; used by legacy
  /// stats accessors).
  [[nodiscard]] std::uint64_t total() const
    requires std::is_same_v<T, Counter>;

  /// Calls `fn(label_values, series)` for every series in label order,
  /// under the family mutex (exposition; `fn` must not touch the family).
  template <typename Fn>
  void for_each_series(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [values, series] : series_) fn(values, static_cast<const T&>(*series));
  }

 private:
  friend class Registry;
  Family(std::string name, std::vector<std::string> label_names, std::size_t max_series,
         Counter* dropped, std::vector<double> bounds = {})
      : name_(std::move(name)),
        label_names_(std::move(label_names)),
        max_series_(max_series),
        dropped_(dropped),
        bounds_(std::move(bounds)) {}

  std::unique_ptr<T> make_series() const;

  const std::string name_;
  const std::vector<std::string> label_names_;
  const std::size_t max_series_;
  Counter* const dropped_;              ///< registry-wide drop counter
  const std::vector<double> bounds_;    ///< histogram families only
  mutable std::mutex mutex_;
  std::map<std::vector<std::string>, std::unique_ptr<T>> series_;
};

using CounterFamily = Family<Counter>;
using GaugeFamily = Family<Gauge>;
using HistogramFamily = Family<Histogram>;

/// The registry: owns every metric family. Registration is idempotent —
/// asking for an existing name with the same kind returns the existing
/// family; a kind mismatch is a programming error (logged, and a
/// detached shadow family is returned so the process keeps running).
///
/// Lifetime: instruments hand out references into the registry, so the
/// registry must outlive every component it meters (server, worker,
/// platform build).
class Registry {
 public:
  static constexpr std::size_t kDefaultMaxSeries = 256;

  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  CounterFamily& counter_family(const std::string& name, const std::string& help,
                                std::vector<std::string> label_names,
                                std::size_t max_series = kDefaultMaxSeries);
  GaugeFamily& gauge_family(const std::string& name, const std::string& help,
                            std::vector<std::string> label_names,
                            std::size_t max_series = kDefaultMaxSeries);
  HistogramFamily& histogram_family(const std::string& name, const std::string& help,
                                    std::vector<std::string> label_names,
                                    std::vector<double> bounds,
                                    std::size_t max_series = kDefaultMaxSeries);

  /// Unlabeled conveniences: the family's single series.
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds);

  /// Counter of label sets collapsed into overflow series.
  [[nodiscard]] std::uint64_t dropped_label_sets() const noexcept {
    return dropped_->value();
  }

  enum class Kind { kCounter, kGauge, kHistogram };

  /// One registered family; the pointer matching `kind` is set.
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    std::unique_ptr<CounterFamily> counters;
    std::unique_ptr<GaugeFamily> gauges;
    std::unique_ptr<HistogramFamily> histograms;
  };

  /// Calls `fn(entry)` for every family in registration order, under the
  /// registry mutex (exposition; `fn` must not register families).
  template <typename Fn>
  void for_each_family(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& entry : entries_) fn(static_cast<const Entry&>(*entry));
  }

 private:
  Entry* find_locked(const std::string& name);
  Entry& emplace_locked(std::string name, std::string help, Kind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< insertion order
  /// crowdweb_telemetry_dropped_label_sets_total, registered like any
  /// other counter by the constructor.
  Counter* dropped_ = nullptr;
  /// Families returned on kind mismatch, detached from exposition.
  std::vector<std::unique_ptr<Entry>> shadows_;
};

/// True when `name` is a valid Prometheus metric/label identifier.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

}  // namespace crowdweb::telemetry
