#include "telemetry/metrics.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace crowdweb::telemetry {

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  cells_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) cells_[i].store(0);
}

void Histogram::observe(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  cells_[index].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    total += cells_[i].load(std::memory_order_relaxed);
  return total;
}

std::vector<double> default_latency_buckets() {
  return {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
          0.05,   0.1,   0.25,   0.5,   1.0,  2.5};
}

std::vector<double> default_duration_buckets() {
  return {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
          0.25,  0.5,    1.0,   2.5,  5.0,   10.0, 30.0};
}

// ---------------------------------------------------------------------------
// Family

template <typename T>
std::unique_ptr<T> Family<T>::make_series() const {
  if constexpr (std::is_same_v<T, Histogram>) {
    return std::make_unique<Histogram>(bounds_);
  } else {
    return std::make_unique<T>();
  }
}

template <typename T>
T& Family<T>::with_labels(const std::vector<std::string>& label_values) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(label_values);
  if (it != series_.end()) return *it->second;
  if (label_values.size() != label_names_.size() || series_.size() >= max_series_) {
    // Wrong arity or past the cardinality cap: collapse into the shared
    // overflow series so the exported series set stays bounded.
    if (dropped_ != nullptr) dropped_->increment();
    std::vector<std::string> overflow(label_names_.size(), "other");
    const auto overflow_it = series_.find(overflow);
    if (overflow_it != series_.end()) return *overflow_it->second;
    return *series_.emplace(std::move(overflow), make_series()).first->second;
  }
  return *series_.emplace(label_values, make_series()).first->second;
}

template <typename T>
std::size_t Family<T>::series_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

template <typename T>
std::uint64_t Family<T>::total() const
  requires std::is_same_v<T, Counter>
{
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t sum = 0;
  for (const auto& [labels, series] : series_) sum += series->value();
  return sum;
}

template class Family<Counter>;
template class Family<Gauge>;
template class Family<Histogram>;

// ---------------------------------------------------------------------------
// Registry

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (const char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

Registry::Registry() {
  dropped_ = &counter("crowdweb_telemetry_dropped_label_sets_total",
                      "Label sets collapsed into an overflow series by a family's "
                      "max-series cap.");
}

Registry::Entry* Registry::find_locked(const std::string& name) {
  for (const auto& entry : entries_) {
    if (entry->name == name) return entry.get();
  }
  return nullptr;
}

Registry::Entry& Registry::emplace_locked(std::string name, std::string help, Kind kind) {
  auto entry = std::make_unique<Entry>();
  entry->name = std::move(name);
  entry->help = std::move(help);
  entry->kind = kind;
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

namespace {

/// Label-name sanity: reject invalid and repeated identifiers early so
/// exposition can never emit an unparsable line.
bool valid_label_names(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (!valid_metric_name(name) || name.starts_with("__")) return false;
    if (std::count(names.begin(), names.end(), name) > 1) return false;
  }
  return true;
}

}  // namespace

CounterFamily& Registry::counter_family(const std::string& name, const std::string& help,
                                        std::vector<std::string> label_names,
                                        std::size_t max_series) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry* existing = find_locked(name);
  if (existing != nullptr && existing->kind == Kind::kCounter) return *existing->counters;
  const bool shadow = existing != nullptr || !valid_metric_name(name) ||
                      !valid_label_names(label_names);
  if (shadow)
    log_error("telemetry: counter '{}' conflicts with an existing metric or has an "
              "invalid name; returning a detached family",
              name);
  Entry& entry = shadow ? *shadows_.emplace_back(std::make_unique<Entry>())
                        : emplace_locked(name, help, Kind::kCounter);
  entry.name = name;
  entry.kind = Kind::kCounter;
  entry.counters.reset(
      new CounterFamily(name, std::move(label_names), max_series, dropped_));
  return *entry.counters;
}

GaugeFamily& Registry::gauge_family(const std::string& name, const std::string& help,
                                    std::vector<std::string> label_names,
                                    std::size_t max_series) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry* existing = find_locked(name);
  if (existing != nullptr && existing->kind == Kind::kGauge) return *existing->gauges;
  const bool shadow = existing != nullptr || !valid_metric_name(name) ||
                      !valid_label_names(label_names);
  if (shadow)
    log_error("telemetry: gauge '{}' conflicts with an existing metric or has an "
              "invalid name; returning a detached family",
              name);
  Entry& entry = shadow ? *shadows_.emplace_back(std::make_unique<Entry>())
                        : emplace_locked(name, help, Kind::kGauge);
  entry.name = name;
  entry.kind = Kind::kGauge;
  entry.gauges.reset(new GaugeFamily(name, std::move(label_names), max_series, dropped_));
  return *entry.gauges;
}

HistogramFamily& Registry::histogram_family(const std::string& name, const std::string& help,
                                            std::vector<std::string> label_names,
                                            std::vector<double> bounds,
                                            std::size_t max_series) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry* existing = find_locked(name);
  if (existing != nullptr && existing->kind == Kind::kHistogram)
    return *existing->histograms;
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  const bool shadow = existing != nullptr || !valid_metric_name(name) ||
                      !valid_label_names(label_names);
  if (shadow)
    log_error("telemetry: histogram '{}' conflicts with an existing metric or has an "
              "invalid name; returning a detached family",
              name);
  Entry& entry = shadow ? *shadows_.emplace_back(std::make_unique<Entry>())
                        : emplace_locked(name, help, Kind::kHistogram);
  entry.name = name;
  entry.kind = Kind::kHistogram;
  entry.histograms.reset(new HistogramFamily(name, std::move(label_names), max_series,
                                             dropped_, std::move(bounds)));
  return *entry.histograms;
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  return counter_family(name, help, {}).with_labels({});
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  return gauge_family(name, help, {}).with_labels({});
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               std::vector<double> bounds) {
  return histogram_family(name, help, {}, std::move(bounds)).with_labels({});
}

}  // namespace crowdweb::telemetry
