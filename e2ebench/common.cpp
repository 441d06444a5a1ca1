#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

#include "data/dataset_io.hpp"

namespace e2e {

using crowdweb::Result;
using crowdweb::Status;
using crowdweb::ingest::IngestEvent;
namespace json = crowdweb::json;

namespace {

constexpr std::string_view kFeedMagic = "E2EFEED1";
constexpr std::size_t kRecordBytes = 4 + 4 + 8 + 8 + 8;

template <typename T>
void put(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

template <typename T>
T take(const char* at) {
  T value;
  std::memcpy(&value, at, sizeof(T));
  return value;
}

}  // namespace

std::int64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void sleep_until_ns(std::int64_t deadline_ns) noexcept {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) noexcept {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

Status write_events(const std::string& path, std::span<const IngestEvent> events) {
  std::string out(kFeedMagic);
  put<std::uint64_t>(out, events.size());
  out.reserve(out.size() + events.size() * kRecordBytes);
  for (const IngestEvent& event : events) {
    put<std::uint32_t>(out, event.user);
    put<std::uint32_t>(out, event.category);
    put<double>(out, event.position.lat);
    put<double>(out, event.position.lon);
    put<std::int64_t>(out, event.timestamp);
  }
  return crowdweb::data::write_file(path, out);
}

Result<std::vector<IngestEvent>> read_events(const std::string& path) {
  auto bytes = crowdweb::data::read_file(path);
  if (!bytes) return bytes.status();
  const std::string& in = *bytes;
  if (in.size() < kFeedMagic.size() + 8 || in.compare(0, kFeedMagic.size(), kFeedMagic) != 0)
    return crowdweb::parse_error("not a feed file: " + path);
  const auto count = take<std::uint64_t>(in.data() + kFeedMagic.size());
  const std::size_t body = in.size() - kFeedMagic.size() - 8;
  if (count != body / kRecordBytes || body % kRecordBytes != 0)
    return crowdweb::parse_error("truncated feed file: " + path);
  std::vector<IngestEvent> events(static_cast<std::size_t>(count));
  const char* at = in.data() + kFeedMagic.size() + 8;
  for (IngestEvent& event : events) {
    event.user = take<std::uint32_t>(at);
    event.category = take<std::uint32_t>(at + 4);
    event.position.lat = take<double>(at + 8);
    event.position.lon = take<double>(at + 16);
    event.timestamp = take<std::int64_t>(at + 24);
    at += kRecordBytes;
  }
  return events;
}

Result<json::Value> read_json(const std::string& path) {
  auto text = crowdweb::data::read_file(path);
  if (!text) return text.status();
  return json::parse(*text);
}

std::int64_t int_of(const json::Value& object, std::string_view key, std::int64_t fallback) {
  const json::Value* value = object.find(key);
  if (value == nullptr || !value->is_number()) return fallback;
  return value->is_int() ? value->as_int() : static_cast<std::int64_t>(value->as_double());
}

double num_of(const json::Value& object, std::string_view key, double fallback) {
  const json::Value* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_double() : fallback;
}

std::string str_of(const json::Value& object, std::string_view key) {
  const json::Value* value = object.find(key);
  return value != nullptr && value->is_string() ? value->as_string() : std::string();
}

void SpanLog::add(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

json::Value SpanLog::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  json::Value rows = json::Value(json::Array{});
  for (const Span& span : spans_) {
    rows.push_back(json::Value(json::Array{span.name, span.id, span.start_ns, span.end_ns,
                                           span.a, span.b, span.c}));
  }
  return rows;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size());
  const std::size_t index =
      std::min(samples.size() - 1, static_cast<std::size_t>(rank > 0 ? rank - 1e-9 : 0));
  return samples[index];
}

}  // namespace e2e
