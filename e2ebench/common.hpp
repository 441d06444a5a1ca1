// Shared pieces of the end-to-end benchmark's three programs.
//
// Every timestamp is CLOCK_MONOTONIC nanoseconds, so spans recorded by
// the system under test and by the load generator (two processes on one
// machine) share one time base and can be joined by run.py.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/event.hpp"
#include "json/json.hpp"
#include "util/status.hpp"

namespace e2e {

/// CLOCK_MONOTONIC in nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Sleeps until the given CLOCK_MONOTONIC instant (returns at once when
/// it has passed).
void sleep_until_ns(std::int64_t deadline_ns) noexcept;

/// 64-bit FNV-1a, chainable through `seed`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t seed = 0xcbf29ce484222325ull) noexcept;
[[nodiscard]] std::string hex64(std::uint64_t value);

/// The feed file: the events the load generator sends, in send order.
/// Little-endian fixed records behind an 8-byte magic and a count.
[[nodiscard]] crowdweb::Status write_events(const std::string& path,
                                            std::span<const crowdweb::ingest::IngestEvent> events);
[[nodiscard]] crowdweb::Result<std::vector<crowdweb::ingest::IngestEvent>> read_events(
    const std::string& path);

/// Reads and parses a JSON file.
[[nodiscard]] crowdweb::Result<crowdweb::json::Value> read_json(const std::string& path);

/// Integer / number / string member of a JSON object, with a fallback.
[[nodiscard]] std::int64_t int_of(const crowdweb::json::Value& object, std::string_view key,
                                  std::int64_t fallback = 0);
[[nodiscard]] double num_of(const crowdweb::json::Value& object, std::string_view key,
                            double fallback = 0.0);
[[nodiscard]] std::string str_of(const crowdweb::json::Value& object, std::string_view key);

/// One recorded span: a named interval with up to three attached
/// values. Spans of one request or event share `id`.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
};

/// In-memory span buffer, dumped once at exit. Thread-safe.
class SpanLog {
 public:
  void add(Span span);
  /// JSON array of [name, id, start_ns, end_ns, a, b, c] rows.
  [[nodiscard]] crowdweb::json::Value to_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Nearest-rank percentile of an unsorted sample (0 when empty).
[[nodiscard]] double percentile(std::vector<double> samples, double p);

}  // namespace e2e
