// Load generator: drives one running deployment over loopback sockets
// only — binary frames in, HTTP and SSE out — and checks what comes
// back.
//
// It runs one workload (manifest.json names it; e2e_gen wrote it) for
// --seconds, with at most four threads and four connections, and writes
// a report: the end-to-end numbers it can measure alone, the per-layer
// numbers of its own spans (frame acks, reads split by X-Cache, SSE
// receipts) and /metrics deltas, the raw receipts run.py joins with the
// system's spans, and the outcome of every correctness check.
//
// Run:  e2e_load --inputs DIR --http-port P --frame-port P --sut-pid PID
//                --seconds S --seed N --trace 0|1 --out FILE

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/api.hpp"
#include "data/dataset_io.hpp"
#include "deployment.hpp"
#include "shard/hash.hpp"
#include "transport/frame_client.hpp"
#include "util/format.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace crowdweb;
using e2e::now_ns;

namespace {

constexpr int kIoTimeoutMs = 10'000;

// ---------------------------------------------------------------------------
// Wire clients

struct Reply {
  int status = 0;
  std::string etag;
  std::string x_cache;
  std::string body;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Lower-cased value of header `name` inside a response head.
std::string header_value(std::string_view head, std::string_view name) {
  std::size_t at = 0;
  while (true) {
    const std::size_t eol = head.find("\r\n", at);
    const std::string_view line =
        head.substr(at, eol == std::string_view::npos ? std::string_view::npos : eol - at);
    const std::size_t colon = line.find(':');
    if (colon == name.size() && to_lower(line.substr(0, colon)) == name) {
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      return std::string(value);
    }
    if (eol == std::string_view::npos) return {};
    at = eol + 2;
  }
}

/// One keep-alive HTTP/1.1 connection; reconnects after an error.
class HttpConn {
 public:
  explicit HttpConn(std::uint16_t port) : port_(port) {}
  ~HttpConn() { close(); }
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  Result<Reply> get(std::string_view target) {
    if (fd_ < 0) {
      fd_ = connect_loopback(port_);
      if (fd_ < 0) return unavailable("connect failed");
      buffer_.clear();
    }
    std::string request = "GET ";
    request += target;
    request += " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (!write_all(fd_, request)) return fail("send failed");
    std::size_t head_end = std::string::npos;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return fail("connection closed before the response head");
    }
    const std::string_view head(buffer_.data(), head_end);
    Reply reply;
    if (head.size() < 12 || head.substr(0, 9) != "HTTP/1.1 ") return fail("bad status line");
    reply.status = std::atoi(std::string(head.substr(9, 3)).c_str());
    reply.etag = header_value(head, "etag");
    reply.x_cache = header_value(head, "x-cache");
    const auto length = parse_int(header_value(head, "content-length"));
    if (!length || *length < 0) return fail("response without Content-Length");
    const std::size_t total = head_end + 4 + static_cast<std::size_t>(*length);
    while (buffer_.size() < total) {
      if (!fill()) return fail("connection closed mid-body");
    }
    reply.body = buffer_.substr(head_end + 4, static_cast<std::size_t>(*length));
    buffer_.erase(0, total);
    return reply;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  Status fail(const char* what) {
    close();
    return io_error(what);
  }

  bool fill() {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, kIoTimeoutMs) <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  std::uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

/// A non-blocking SSE subscription; the caller polls fd().
class SseStream {
 public:
  struct Event {
    std::string event;
    std::string data;
    std::int64_t recv_ns = 0;
  };

  ~SseStream() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool open(std::uint16_t port, const std::string& path) {
    fd_ = connect_loopback(port);
    if (fd_ < 0) return false;
    if (!write_all(fd_, "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")) return false;
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] bool bad_status() const noexcept { return bad_status_; }

  /// Reads what is available and appends complete events to `out`.
  void pump(std::vector<Event>* out) {
    const std::int64_t t = now_ns();
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) closed_ = true;
      break;
    }
    if (!head_done_) {
      const std::size_t end = buffer_.find("\r\n\r\n");
      if (end == std::string::npos) return;
      bad_status_ = buffer_.compare(0, 12, "HTTP/1.1 200") != 0;
      buffer_.erase(0, end + 4);
      head_done_ = true;
    }
    std::size_t at = 0;
    while (true) {
      const std::size_t end = buffer_.find("\n\n", at);
      if (end == std::string::npos) break;
      Event event;
      event.recv_ns = t;
      std::string_view block(buffer_.data() + at, end - at);
      while (!block.empty()) {
        const std::size_t eol = block.find('\n');
        const std::string_view line = block.substr(0, eol);
        if (line.substr(0, 7) == "event: ") {
          event.event = std::string(line.substr(7));
        } else if (line.substr(0, 6) == "data: ") {
          if (!event.data.empty()) event.data += '\n';
          event.data += line.substr(6);
        }
        if (eol == std::string_view::npos) break;
        block.remove_prefix(eol + 1);
      }
      if (!event.event.empty()) out->push_back(std::move(event));
      at = end + 2;
    }
    buffer_.erase(0, at);
  }

 private:
  int fd_ = -1;
  bool head_done_ = false;
  bool closed_ = false;
  bool bad_status_ = false;
  std::string buffer_;
};

// ---------------------------------------------------------------------------
// Read mixes

/// Route patterns the benchmark reads, in the order of the per-route
/// metrics (core.handler_us.<name>).
struct RouteKind {
  const char* name;
  const char* pattern;
  bool svg;
};
constexpr RouteKind kRoutes[] = {
    {"crowd", "/api/crowd/:window", false},
    {"crowd_map", "/api/crowd/:window/map.svg", true},
    {"crowd_geojson", "/api/crowd/:window/geojson", false},
    {"groups", "/api/groups/:window", false},
    {"flow", "/api/flow/:from/:to", false},
    {"flow_map", "/api/flow/:from/:to/map.svg", true},
    {"users", "/api/users", false},
    {"user_patterns", "/api/user/:id/patterns", false},
    {"user_graph", "/api/user/:id/graph.svg", true},
    {"user_timeline", "/api/user/:id/timeline.svg", true},
    {"status", "/api/status", false},
};
enum Route { kCrowd, kCrowdMap, kCrowdGeo, kGroups, kFlow, kFlowMap, kUsers, kUserPatterns,
             kUserGraph, kUserTimeline, kStatus };

struct Target {
  std::string path;
  int route = 0;
};

std::string target_path(int route, int window, std::uint32_t user, int windows) {
  const std::string w = std::to_string(window);
  const std::string next = std::to_string((window + 1) % windows);
  const std::string u = std::to_string(user);
  switch (route) {
    case kCrowd: return "/api/crowd/" + w;
    case kCrowdMap: return "/api/crowd/" + w + "/map.svg";
    case kCrowdGeo: return "/api/crowd/" + w + "/geojson";
    case kGroups: return "/api/groups/" + w;
    case kFlow: return "/api/flow/" + w + "/" + next;
    case kFlowMap: return "/api/flow/" + w + "/" + next + "/map.svg";
    case kUsers: return "/api/users";
    case kUserPatterns: return "/api/user/" + u + "/patterns";
    case kUserGraph: return "/api/user/" + u + "/graph.svg";
    case kUserTimeline: return "/api/user/" + u + "/timeline.svg";
    default: return "/api/status";
  }
}

/// Zipf(1) sampler over ranks [0, n).
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) cdf_[i] = total += 1.0 / static_cast<double>(i + 1);
    for (double& c : cdf_) c /= total;
  }
  std::size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return std::min(cdf_.size() - 1, static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()));
  }

 private:
  std::vector<double> cdf_;
};

/// A workload's read mix: a route kind picked uniformly, then a window
/// and a user each Zipf-picked from a popularity ranking. The ranking
/// comes from the served data, not the seed (read_mix), so every seed
/// reads equally costly hot keys and the seed only varies the request
/// sequence.
struct ReadMix {
  std::vector<int> kinds;
  std::vector<int> windows;
  std::vector<std::uint32_t> users;

  [[nodiscard]] Target pick(std::mt19937_64& rng, const Zipf& window_zipf,
                            const Zipf& user_zipf) const {
    const int route = kinds[std::uniform_int_distribution<std::size_t>(0, kinds.size() - 1)(rng)];
    const int window = windows[window_zipf(rng)];
    const std::uint32_t user = users.empty() ? 0 : users[user_zipf(rng)];
    return {target_path(route, window, user, static_cast<int>(windows.size())), route};
  }
};

/// A response's body parses as what its route serves.
bool body_parses(const Reply& reply, int route) {
  if (kRoutes[route].svg)
    return reply.body.find("<svg") != std::string::npos &&
           reply.body.find("</svg>") != std::string::npos;
  return json::parse(reply.body).is_ok();
}

/// Checks every reply of one connection. A body byte-equal to one that
/// already parsed under the same path and ETag is not parsed again:
/// parsing a large JSON body on every cache hit would make later reads
/// on the connection late by the load generator's own work.
class BodyChecker {
 public:
  bool ok(const std::string& path, const Reply& reply, int route) {
    if (reply.status < 200 || reply.status >= 300) return false;
    const auto seen = parsed_.find(path);
    if (!reply.etag.empty() && seen != parsed_.end() && seen->second.first == reply.etag &&
        seen->second.second == reply.body)
      return true;
    if (!body_parses(reply, route)) return false;
    if (!reply.etag.empty()) parsed_[path] = {reply.etag, reply.body};
    return true;
  }

 private:
  std::map<std::string, std::pair<std::string, std::string>> parsed_;  // path -> ETag, body
};

struct ReadSample {
  std::int64_t due_ns = 0;
  double latency_ms = 0;  ///< from due time
  double late_ms = 0;     ///< send time minus due time
  double service_us = 0;  ///< send to last byte
  int route = 0;
  bool hit = false;
  bool ok = false;
};

/// One reader connection, open loop: request k is due at start + offset
/// + k * period and is timed from then. Stops at `stop_ns` or when
/// `stop` is set.
struct Reader {
  std::uint16_t port = 0;
  std::uint64_t seed = 0;
  std::int64_t start_ns = 0;
  std::int64_t offset_ns = 0;
  std::int64_t period_ns = 0;
  std::int64_t stop_ns = 0;
  const std::atomic<bool>* stop = nullptr;
  const ReadMix* mix = nullptr;
  std::vector<ReadSample> samples;

  void run() {
    HttpConn conn(port);
    std::mt19937_64 rng(seed);
    const Zipf window_zipf(mix->windows.size());
    const Zipf user_zipf(std::max<std::size_t>(1, mix->users.size()));
    BodyChecker checker;
    for (std::int64_t k = 0;; ++k) {
      const std::int64_t due = start_ns + offset_ns + k * period_ns;
      if (due >= stop_ns || (stop != nullptr && stop->load(std::memory_order_relaxed))) break;
      e2e::sleep_until_ns(due);
      const Target target = mix->pick(rng, window_zipf, user_zipf);
      const std::int64_t sent = now_ns();
      auto reply = conn.get(target.path);
      const std::int64_t done = now_ns();
      ReadSample sample;
      sample.due_ns = due;
      sample.latency_ms = static_cast<double>(done - due) / 1e6;
      sample.late_ms = static_cast<double>(sent - due) / 1e6;
      sample.service_us = static_cast<double>(done - sent) / 1e3;
      sample.route = target.route;
      sample.ok = reply.is_ok() && checker.ok(target.path, *reply, target.route);
      sample.hit = reply.is_ok() && reply->x_cache == "hit";
      samples.push_back(sample);
    }
  }
};

// ---------------------------------------------------------------------------
// Process and /metrics probes

/// user + system CPU seconds of `pid` (all threads), from /proc.
double cpu_seconds(int pid) {
  auto stat = data::read_file("/proc/" + std::to_string(pid) + "/stat");
  if (!stat) return 0;
  const std::size_t close = stat->rfind(')');
  if (close == std::string::npos) return 0;
  const std::vector<std::string_view> fields = split(std::string_view(*stat).substr(close + 2), ' ');
  if (fields.size() < 13) return 0;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (std::atof(std::string(fields[11]).c_str()) + std::atof(std::string(fields[12]).c_str())) / ticks;
}

/// The SUT's CPU time over exactly the measured phase. A loop that
/// wakes every few milliseconds calls sample(), which reads the SUT's
/// CPU time once when the phase starts and once when it ends; the
/// operations are those due between the two readings. (CPU read at the
/// load generator's start and exit would also count the feed's tail
/// and the wait for the last epoch, which no measured operation pays.)
class MeasuredCpu {
 public:
  MeasuredCpu(int pid, std::int64_t start_ns, double seconds)
      : pid_(pid), due_{start_ns, start_ns + static_cast<std::int64_t>(seconds * 1e9)} {}

  void sample(std::int64_t now) {
    if (taken_ < 2 && now >= due_[taken_]) marks_[taken_++] = {now_ns(), cpu_seconds(pid_)};
  }

  /// SUT CPU microseconds per operation; `due_ns` holds the due time
  /// of every completed one. 0 when the phase did not run to its end.
  [[nodiscard]] double us_per_op(const std::vector<std::int64_t>& due_ns) const {
    if (taken_ < 2) return 0;
    const auto ops = std::count_if(due_ns.begin(), due_ns.end(), [this](std::int64_t due) {
      return due >= marks_[0].first && due < marks_[1].first;
    });
    return ops > 0 ? (marks_[1].second - marks_[0].second) * 1e6 / static_cast<double>(ops) : 0;
  }

 private:
  int pid_;
  std::array<std::int64_t, 2> due_;
  std::array<std::pair<std::int64_t, double>, 2> marks_{};  // sample time, CPU seconds
  int taken_ = 0;
};

/// Peak resident set (VmHWM) of `pid` in MiB.
double rss_peak_mb(int pid) {
  auto status = data::read_file("/proc/" + std::to_string(pid) + "/status");
  if (!status) return 0;
  const std::size_t at = status->find("VmHWM:");
  if (at == std::string::npos) return 0;
  return std::atof(status->c_str() + at + 6) / 1024.0;
}

/// Largest value among the series of gauge `name` in a Prometheus text.
double max_gauge(std::string_view text, std::string_view name) {
  double best = 0;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t eol = text.find('\n', at);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(at, eol - at);
    if (line.substr(0, name.size()) == name && line.size() > name.size() &&
        (line[name.size()] == ' ' || line[name.size()] == '{')) {
      best = std::max(best, std::atof(std::string(line.substr(line.rfind(' ') + 1)).c_str()));
    }
    at = eol + 1;
  }
  return best;
}

// ---------------------------------------------------------------------------
// The run

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Context {
  json::Value manifest;
  std::string inputs;
  std::string workload;
  std::uint16_t http_port = 0;
  std::uint16_t frame_port = 0;
  int sut_pid = 0;
  double seconds = 10;
  std::uint64_t seed = 0;
  bool trace = false;
  std::vector<ingest::IngestEvent> feed;

  std::vector<Check> checks;
  json::Value e2e = json::Value(json::Object{});
  json::Value layer = json::Value(json::Object{});
  json::Value raw = json::Value(json::Object{});
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> late_ms;
  double gauge_queue_max = 0;
  double gauge_http_queue_max = 0;
  double gauge_shard_lag_max = 0;

  void check(std::string name, bool ok, std::string detail = {}) {
    if (!ok) std::fprintf(stderr, "check failed: %s %s\n", name.c_str(), detail.c_str());
    checks.push_back({std::move(name), ok, std::move(detail)});
  }

  /// Samples the gauges whose maxima the traced run reports.
  void sample_gauges(HttpConn& conn) {
    auto scrape = conn.get("/metrics");
    if (!scrape || scrape->status != 200) return;
    gauge_queue_max = std::max({gauge_queue_max, max_gauge(scrape->body, "crowdweb_ingest_queue_depth"),
                                max_gauge(scrape->body, "crowdweb_shard_queue_depth")});
    gauge_http_queue_max =
        std::max(gauge_http_queue_max, max_gauge(scrape->body, "crowdweb_http_worker_queue_depth"));
    gauge_shard_lag_max =
        std::max(gauge_shard_lag_max, max_gauge(scrape->body, "crowdweb_shard_epoch_lag"));
  }
};

/// Latency samples of the operations due within the measured seconds;
/// a percentile is taken over all of them, so a stall of any length
/// moves the tail by the share of operations it delayed.
class Timings {
 public:
  Timings(std::int64_t start_ns, double seconds)
      : start_ns_(start_ns), end_ns_(start_ns + static_cast<std::int64_t>(seconds * 1e9)) {}

  void add(std::int64_t due_ns, double ms) {
    if (due_ns >= start_ns_ && due_ns < end_ns_) samples_.push_back(ms);
  }

  [[nodiscard]] double percentile(double p) const { return e2e::percentile(samples_, p); }

 private:
  std::int64_t start_ns_;
  std::int64_t end_ns_;
  std::vector<double> samples_;
};

/// Summarizes reads into e2e + layer metrics and failure counts.
void account_reads(Context& ctx, const std::vector<ReadSample>& reads, std::int64_t start_ns) {
  Timings latency(start_ns, ctx.seconds);
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  std::uint64_t ok = 0;
  for (const ReadSample& read : reads) {
    latency.add(read.due_ns, read.latency_ms);
    ctx.late_ms.push_back(read.late_ms);
    (read.hit ? hit_us : miss_us).push_back(read.service_us);
    if (read.ok) ++ok;
  }
  ctx.attempted += reads.size();
  ctx.failed += reads.size() - ok;
  ctx.check("reads are 2xx with parseable bodies", ok == reads.size() && !reads.empty(),
            format("{} of {} ok", ok, reads.size()));
  ctx.e2e.set("read_p50_ms", latency.percentile(0.50));
  ctx.e2e.set("read_p99_ms", latency.percentile(0.99));
  ctx.e2e.set("reads", static_cast<std::int64_t>(reads.size()));
  ctx.layer.set("http.read_hit_us.p50", e2e::percentile(hit_us, 0.50));
  ctx.layer.set("http.read_hit_us.p99", e2e::percentile(hit_us, 0.99));
  ctx.layer.set("http.read_miss_us.p50", e2e::percentile(miss_us, 0.50));
  ctx.layer.set("http.read_miss_us.p99", e2e::percentile(miss_us, 0.99));
  ctx.raw.set("reads_ok", static_cast<std::int64_t>(ok));
}

/// Popularity ranks: windows nearest the middle of the day first, users
/// with the most recorded days first (ties by id).
ReadMix read_mix(Context& ctx, HttpConn& conn, int windows) {
  ReadMix mix;
  for (int w = 0; w < windows; ++w) mix.windows.push_back(w);
  const auto from_midday = [windows](int w) {
    const int d = std::abs(w - windows / 2);
    return std::min(d, windows - d);
  };
  std::stable_sort(mix.windows.begin(), mix.windows.end(),
                   [&](int a, int b) { return from_midday(a) < from_midday(b); });
  if (ctx.workload == "dense_backfill") {
    mix.kinds = {kCrowd, kCrowdMap, kFlow, kFlowMap};
    return mix;
  }
  mix.kinds = {kCrowd, kCrowdMap, kCrowdGeo, kGroups, kFlow, kFlowMap, kUsers,
               kUserPatterns, kUserGraph, kUserTimeline};
  std::vector<std::pair<std::int64_t, std::uint32_t>> ranked;  // -recorded_days, id
  auto users = conn.get("/api/users");
  if (users && users->status == 200) {
    if (auto parsed = json::parse(users->body)) {
      if (const json::Value* list = parsed->find("users"); list != nullptr && list->is_array())
        for (const json::Value& user : list->as_array())
          ranked.emplace_back(-e2e::int_of(user, "recorded_days"),
                              static_cast<std::uint32_t>(e2e::int_of(user, "id")));
    }
  }
  ctx.check("user list served", !ranked.empty());
  std::sort(ranked.begin(), ranked.end());
  for (const auto& [days, id] : ranked) mix.users.push_back(id);
  return mix;
}

int status_windows(HttpConn& conn) {
  auto status = conn.get("/api/status");
  if (!status || status->status != 200) return 0;
  auto parsed = json::parse(status->body);
  return parsed ? static_cast<int>(e2e::int_of(*parsed, "windows")) : 0;
}

/// Events due within the measured seconds; the feed holds one more
/// second of events after them (see run_live_city).
std::size_t measured_events(const Context& ctx, double rate) {
  return std::min(ctx.feed.size(), static_cast<std::size_t>(std::llround(rate * ctx.seconds)));
}

/// Frame producer state shared by the feed workloads.
struct FrameLog {
  std::vector<double> ack_us;
  std::uint64_t frames = 0;
  std::uint64_t rejected_retried = 0;
  std::uint64_t send_errors = 0;
};

// ----- live_city -----------------------------------------------------------

void run_live_city(Context& ctx, HttpConn& ctl, const ReadMix& mix, int windows) {
  const double rate = e2e::num_of(ctx.manifest, "feed_rate");
  const double read_rate = e2e::num_of(ctx.manifest, "read_rate");
  const int connections = static_cast<int>(e2e::int_of(ctx.manifest, "read_connections", 2));
  const int crowd_window = static_cast<int>(ctx.seed % static_cast<std::uint64_t>(windows));
  const std::size_t events = ctx.feed.size();

  SseStream epochs;
  SseStream crowd;
  const bool subscribed = epochs.open(ctx.http_port, "/api/stream/epochs") &&
                          crowd.open(ctx.http_port, "/api/stream/crowd/" +
                                                        std::to_string(crowd_window));
  ctx.check("SSE subscriptions open", subscribed);
  if (!subscribed) return;

  const std::int64_t start = now_ns() + 100'000'000;
  const std::int64_t end = start + static_cast<std::int64_t>(ctx.seconds * 1e9);
  const auto due_of = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
  };
  MeasuredCpu cpu(ctx.sut_pid, start, ctx.seconds);

  // Producer: open loop — every event is sent at (or, when the
  // previous frame's ack ran late, right after) its scheduled time;
  // events already due travel together in one frame.
  FrameLog frames;
  std::vector<std::int64_t> admitted_ns(events, 0);  // ack receipt per event
  std::atomic<std::size_t> accepted_total{0};
  std::atomic<bool> producer_done{false};
  std::thread producer([&] {
    transport::FrameClient client;
    if (!client.connect_tcp("127.0.0.1", ctx.frame_port).is_ok()) {
      ++frames.send_errors;
      producer_done = true;
      return;
    }
    std::size_t next = 0;
    while (next < events) {
      e2e::sleep_until_ns(due_of(next));
      const std::int64_t sent = now_ns();
      std::size_t last = next + 1;
      while (last < events && due_of(last) <= sent) ++last;
      ctx.late_ms.push_back(static_cast<double>(sent - due_of(next)) / 1e6);
      auto ack = client.send(std::span(ctx.feed).subspan(next, last - next));
      const std::int64_t acked = now_ns();
      ++frames.frames;
      if (!ack.is_ok()) {
        ++frames.send_errors;
        break;
      }
      frames.ack_us.push_back(static_cast<double>(acked - sent) / 1e3);
      for (std::size_t i = next; i < next + ack->accepted; ++i) admitted_ns[i] = acked;
      next += ack->accepted;
      accepted_total.store(next, std::memory_order_release);
      if (ack->rejected > 0) {
        frames.rejected_retried += ack->rejected;
        e2e::sleep_until_ns(now_ns() + 5'000'000);
      }
    }
    producer_done = true;
  });

  std::vector<Reader> readers(static_cast<std::size_t>(connections));
  std::vector<std::thread> reader_threads;
  const auto period = static_cast<std::int64_t>(1e9 * connections / read_rate);
  for (int c = 0; c < connections; ++c) {
    Reader& reader = readers[static_cast<std::size_t>(c)];
    reader.port = ctx.http_port;
    reader.seed = ctx.seed * 31 + static_cast<std::uint64_t>(c);
    reader.start_ns = start;
    reader.offset_ns = period * c / connections;
    reader.period_ns = period;
    reader.stop_ns = end;
    reader.mix = &mix;
    reader_threads.emplace_back([&reader] { reader.run(); });
  }

  // Main thread: SSE receipts until every accepted event is visible.
  std::vector<SseStream::Event> epoch_events;
  std::vector<SseStream::Event> crowd_events;
  std::vector<std::array<std::int64_t, 3>> receipts;  // epoch, live_checkins, recv_ns
  std::int64_t last_epoch = -1;
  std::uint64_t gaps = 0;
  std::int64_t next_sample = start;
  const std::int64_t deadline = end + 20'000'000'000;
  std::int64_t quiet_until = 0;
  while (now_ns() < deadline) {
    pollfd fds[2] = {{epochs.fd(), POLLIN, 0}, {crowd.fd(), POLLIN, 0}};
    ::poll(fds, 2, 20);
    cpu.sample(now_ns());
    epochs.pump(&epoch_events);
    crowd.pump(&crowd_events);
    for (const SseStream::Event& event : epoch_events) {
      if (event.event != "epoch") continue;
      auto payload = json::parse(event.data);
      if (!payload) {
        ++gaps;
        continue;
      }
      const std::int64_t epoch = e2e::int_of(*payload, "epoch");
      if (last_epoch >= 0 && epoch != last_epoch + 1) ++gaps;
      last_epoch = epoch;
      receipts.push_back({epoch, e2e::int_of(*payload, "live_checkins"), event.recv_ns});
    }
    epoch_events.clear();
    if (ctx.trace && now_ns() >= next_sample) {
      ctx.sample_gauges(ctl);
      next_sample += 1'000'000'000;
    }
    if (epochs.closed() || crowd.closed()) break;
    const bool caught_up = producer_done.load() && !receipts.empty() &&
                           static_cast<std::size_t>(receipts.back()[1]) >= accepted_total.load();
    if (caught_up && quiet_until == 0) quiet_until = now_ns() + 600'000'000;
    if (quiet_until != 0 && now_ns() >= quiet_until && now_ns() >= end) break;
  }
  producer.join();
  for (std::thread& thread : reader_threads) thread.join();
  const std::int64_t finished = now_ns();

  // Event -> visible: the first epoch whose live_checkins covers it.
  // Latency is taken over the events due in the measured seconds; the
  // feed's last second only keeps the worker in steady state while they
  // become visible (the idle tail after a feed ends publishes late).
  const std::size_t accepted = accepted_total.load();
  const std::size_t measured = measured_events(ctx, rate);
  Timings visible_ms(start, ctx.seconds);
  std::size_t visible = 0;
  std::size_t r = 0;
  for (std::size_t i = 0; i < accepted; ++i) {
    while (r < receipts.size() && static_cast<std::size_t>(receipts[r][1]) < i + 1) ++r;
    if (r == receipts.size()) break;
    ++visible;
    if (i >= measured) continue;
    visible_ms.add(due_of(i), static_cast<double>(receipts[r][2] - due_of(i)) / 1e6);
  }
  std::vector<ReadSample> reads;
  for (const Reader& reader : readers)
    reads.insert(reads.end(), reader.samples.begin(), reader.samples.end());

  account_reads(ctx, reads, start);
  ctx.e2e.set("visible_p50_ms", visible_ms.percentile(0.50));
  ctx.e2e.set("visible_p99_ms", visible_ms.percentile(0.99));
  std::vector<std::int64_t> op_due;
  for (std::size_t i = 0; i < visible; ++i) op_due.push_back(due_of(i));
  for (const ReadSample& read : reads)
    if (read.ok) op_due.push_back(read.due_ns);
  ctx.e2e.set("cpu_us_per_op", cpu.us_per_op(op_due));
  ctx.e2e.set("events", static_cast<std::int64_t>(visible));
  ctx.attempted += events + 2;
  ctx.failed += (events - visible) + gaps + (epochs.bad_status() ? 1 : 0) +
                (crowd.bad_status() ? 1 : 0);

  ctx.check("every event accepted", accepted == events && frames.send_errors == 0,
            format("{} of {} accepted", accepted, events));
  ctx.check("every accepted event becomes visible", visible == accepted,
            format("{} of {} visible", visible, accepted));
  ctx.check("SSE epochs arrive strictly increasing without gaps", gaps == 0 && !receipts.empty(),
            format("{} gaps", gaps));

  auto stats = ctl.get("/api/ingest/stats");
  std::int64_t live = -1;
  if (stats && stats->status == 200)
    if (auto parsed = json::parse(stats->body)) live = e2e::int_of(*parsed, "live_checkins", -1);
  ctx.check("final live_checkins equals accepted",
            live == static_cast<std::int64_t>(accepted) && !receipts.empty() &&
                receipts.back()[1] == live,
            format("live {} accepted {}", live, accepted));

  // The last crowd push and the GET body render the same epoch.
  auto body = ctl.get("/api/crowd/" + std::to_string(crowd_window));
  std::string last_crowd;
  for (const SseStream::Event& event : crowd_events)
    if (event.event == "crowd") last_crowd = event.data;
  const std::string etag_epoch =
      body.is_ok() && body->etag.size() > 2 ? body->etag.substr(1, body->etag.find('-') - 1) : "";
  ctx.check("SSE crowd payload equals GET /api/crowd body at the same epoch",
            body.is_ok() && body->status == 200 && body->body == last_crowd &&
                !receipts.empty() && etag_epoch == std::to_string(receipts.back()[0]),
            format("etag {} last epoch {}", etag_epoch,
                   receipts.empty() ? -1 : receipts.back()[0]));

  json::Value raw_receipts = json::Value(json::Array{});
  for (const auto& receipt : receipts)
    raw_receipts.push_back(json::Value(json::Array{receipt[0], receipt[1], receipt[2]}));
  json::Value raw_admitted = json::Value(json::Array{});
  for (std::size_t i = 0; i < accepted; ++i) raw_admitted.push_back(admitted_ns[i]);
  ctx.raw.set("sse_epochs", std::move(raw_receipts));
  if (ctx.trace) ctx.raw.set("admitted_ns", std::move(raw_admitted));
  ctx.raw.set("start_ns", start);
  ctx.raw.set("end_ns", finished);
  ctx.layer.set("transport.frame_ack_us.p50", e2e::percentile(frames.ack_us, 0.50));
  ctx.layer.set("transport.frame_ack_us.p99", e2e::percentile(frames.ack_us, 0.99));
  ctx.layer.set("transport.frames", static_cast<std::int64_t>(frames.frames));
  ctx.layer.set("transport.rejected_retried", static_cast<std::int64_t>(frames.rejected_retried));
  ctx.layer.set("drain_eps",
                static_cast<double>(visible) / (static_cast<double>(finished - start) / 1e9));
}

// ----- dense_backfill ------------------------------------------------------

/// Reference: an in-process single IngestWorker fed the same events,
/// rebuilt once, rendered through the single-process API.
struct Reference {
  std::optional<core::Platform> platform;
  std::unique_ptr<ingest::IngestWorker> worker;
  std::unique_ptr<http::Router> api;
};

Status build_reference(Context& ctx, Reference* ref) {
  auto dataset = e2e::load_dataset(ctx.inputs);
  if (!dataset) return dataset.status();
  auto platform =
      core::Platform::from_dataset(std::move(dataset).value(), e2e::platform_config(ctx.manifest));
  if (!platform) return platform.status();
  const core::Platform& p = ref->platform.emplace(std::move(platform).value());
  // The pipeline core::make_ingest_worker would build, with the grid
  // pinned to the corpus bounds as ShardRouter pins every shard's: hash
  // sharding is value-identical to this single worker.
  ingest::IngestPipelineConfig pipeline;
  pipeline.grid_cell_meters = p.config().grid_cell_meters;
  pipeline.crowd = p.config().crowd;
  pipeline.sequences = p.config().sequences;
  pipeline.mining = p.config().mining;
  pipeline.mining_threads = p.config().mining_threads;
  pipeline.fixed_grid_bounds = p.experiment_dataset().bounds();
  ingest::IngestWorkerConfig config;
  config.queue_capacity = ctx.feed.size() + 1;
  config.rebuild_interval = std::chrono::hours(1);
  ref->worker = std::make_unique<ingest::IngestWorker>(p.experiment_dataset(), p.mobility(),
                                                       p.taxonomy(), pipeline, config);
  if (Status status = ref->worker->start(); !status.is_ok()) return status;
  if (ref->worker->submit(ctx.feed).accepted != ctx.feed.size())
    return internal_error("reference queue refused events");
  ref->worker->stop();
  core::ApiOptions options;
  options.ingest = ref->worker.get();
  ref->api = std::make_unique<http::Router>(core::make_api_router(p, options));
  return Status::ok();
}

/// The merged view's corpus size and per-shard live counts, from one
/// GET /api/status.
struct StatusPoll {
  std::int64_t recv_ns = 0;
  std::int64_t checkins = -1;
  std::vector<std::int64_t> shard_live;
};

std::optional<StatusPoll> poll_status(HttpConn& conn) {
  auto status = conn.get("/api/status");
  StatusPoll poll;
  poll.recv_ns = now_ns();
  if (!status || status->status != 200) return std::nullopt;
  auto parsed = json::parse(status->body);
  if (!parsed) return std::nullopt;
  if (const json::Value* experiment = parsed->find("experiment"))
    poll.checkins = e2e::int_of(*experiment, "checkins", -1);
  if (const json::Value* blocks = parsed->find("shards"); blocks != nullptr && blocks->is_array())
    for (const json::Value& block : blocks->as_array())
      poll.shard_live.push_back(e2e::int_of(block, "live_checkins"));
  return poll;
}

// The backfill is offered open loop at the manifest's rate, far above
// live_city's. Each frame holds one shard's events, so a partial accept
// rejects a suffix the producer retries after a backoff.
void run_dense_backfill(Context& ctx, HttpConn& ctl, const ReadMix& mix) {
  const std::size_t shards = static_cast<std::size_t>(e2e::int_of(ctx.manifest, "shards", 4));
  const double rate = e2e::num_of(ctx.manifest, "feed_rate");
  const double read_rate = e2e::num_of(ctx.manifest, "read_rate");
  constexpr std::size_t kFrameEvents = 256;
  const std::size_t events = ctx.feed.size();

  const auto before = poll_status(ctl);
  const std::int64_t base_checkins = before ? before->checkins : -1;
  ctx.check("status served before the feed", base_checkins >= 0);

  std::vector<std::size_t> owner(events);
  std::vector<std::size_t> rank(events);  // position within its shard's stream
  std::vector<std::size_t> shard_events(shards, 0);
  std::uint64_t stream_digest = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < events; ++i) {
    owner[i] = shard::shard_of_user(ctx.feed[i].user, shards);
    rank[i] = shard_events[owner[i]]++;
    stream_digest = e2e::fnv1a(std::to_string(owner[i]), stream_digest);
  }
  ctx.raw.set("stream_digest", e2e::hex64(stream_digest));

  const std::int64_t start = now_ns() + 100'000'000;
  const std::int64_t deadline = start + static_cast<std::int64_t>(ctx.seconds * 1e9) +
                                60'000'000'000;
  const auto due_of = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate);
  };
  FrameLog frames;
  std::atomic<bool> done{false};
  std::thread producer([&] {
    transport::FrameClient client;
    if (!client.connect_tcp("127.0.0.1", ctx.frame_port).is_ok()) {
      ++frames.send_errors;
      return;
    }
    std::vector<std::deque<std::size_t>> pending(shards);
    std::vector<std::int64_t> retry_at(shards, 0);
    std::vector<ingest::IngestEvent> batch;
    std::size_t next = 0;
    std::size_t left = events;
    while (left > 0 && !done.load()) {
      std::int64_t now = now_ns();
      if (next < events && due_of(next) <= now) {
        ctx.late_ms.push_back(static_cast<double>(now - due_of(next)) / 1e6);
        for (; next < events && due_of(next) <= now; ++next) pending[owner[next]].push_back(next);
      }
      std::int64_t wake = next < events ? due_of(next) : std::numeric_limits<std::int64_t>::max();
      for (std::size_t k = 0; k < shards; ++k) {
        if (pending[k].empty()) continue;
        if (retry_at[k] > now) {
          wake = std::min(wake, retry_at[k]);
          continue;
        }
        batch.clear();
        for (std::size_t j = 0; j < pending[k].size() && batch.size() < kFrameEvents; ++j)
          batch.push_back(ctx.feed[pending[k][j]]);
        const std::int64_t sent = now_ns();
        auto ack = client.send(batch);
        now = now_ns();
        ++frames.frames;
        if (!ack.is_ok()) {
          ++frames.send_errors;
          return;
        }
        frames.ack_us.push_back(static_cast<double>(now - sent) / 1e3);
        pending[k].erase(pending[k].begin(), pending[k].begin() + ack->accepted);
        left -= ack->accepted;
        if (ack->rejected > 0) {
          frames.rejected_retried += ack->rejected;
          retry_at[k] = now + 20'000'000;
          wake = std::min(wake, retry_at[k]);
        } else if (!pending[k].empty()) {
          wake = now;
        }
      }
      if (wake > now_ns() && wake != std::numeric_limits<std::int64_t>::max())
        e2e::sleep_until_ns(wake);
    }
  });

  Reader reader;
  reader.port = ctx.http_port;
  reader.seed = ctx.seed * 31;
  reader.start_ns = start;
  reader.period_ns = static_cast<std::int64_t>(1e9 / read_rate);
  reader.stop_ns = std::numeric_limits<std::int64_t>::max();
  reader.stop = &done;
  reader.mix = &mix;
  std::thread reader_thread([&reader] { reader.run(); });

  // Poller: the merged view's corpus size and per-shard live counts.
  const std::int64_t target = base_checkins + static_cast<std::int64_t>(events);
  std::vector<StatusPoll> polls;
  std::int64_t drained_ns = 0;
  std::int64_t next_sample = start;
  HttpConn poller(ctx.http_port);
  MeasuredCpu cpu(ctx.sut_pid, start, ctx.seconds);
  e2e::sleep_until_ns(start);
  while (now_ns() < deadline) {
    cpu.sample(now_ns());
    e2e::sleep_until_ns(now_ns() + 10'000'000);
    auto poll = poll_status(poller);
    if (!poll) continue;
    if (ctx.trace && poll->recv_ns >= next_sample) {
      ctx.sample_gauges(ctl);
      next_sample = poll->recv_ns + 1'000'000'000;
    }
    polls.push_back(std::move(*poll));
    if (polls.back().checkins >= target) {
      drained_ns = polls.back().recv_ns;
      break;
    }
  }
  done = true;
  producer.join();
  reader_thread.join();
  const std::int64_t finished = now_ns();

  // Event -> visible: the first poll whose count for the event's shard
  // covers it, from the event's due time.
  const bool complete = drained_ns != 0;
  Timings visible_ms(start, ctx.seconds);
  std::vector<std::size_t> cursor(shards, 0);
  for (std::size_t i = 0; i < measured_events(ctx, rate) && complete; ++i) {
    std::size_t& p = cursor[owner[i]];
    while (p < polls.size() && (polls[p].shard_live.size() <= owner[i] ||
                                static_cast<std::size_t>(polls[p].shard_live[owner[i]]) < rank[i] + 1))
      ++p;
    if (p == polls.size()) continue;
    visible_ms.add(due_of(i), static_cast<double>(polls[p].recv_ns - due_of(i)) / 1e6);
  }
  const double drain_s = static_cast<double>((complete ? drained_ns : finished) - start) / 1e9;
  account_reads(ctx, reader.samples, start);
  ctx.e2e.set("visible_p50_ms", visible_ms.percentile(0.50));
  ctx.e2e.set("visible_p99_ms", visible_ms.percentile(0.99));
  const std::size_t visible = complete ? events : 0;
  std::vector<std::int64_t> op_due;
  for (std::size_t i = 0; i < visible; ++i) op_due.push_back(due_of(i));
  for (const ReadSample& read : reader.samples)
    if (read.ok) op_due.push_back(read.due_ns);
  ctx.e2e.set("cpu_us_per_op", cpu.us_per_op(op_due));
  ctx.e2e.set("events", static_cast<std::int64_t>(visible));
  ctx.layer.set("drain_eps", static_cast<double>(visible) / drain_s);
  ctx.attempted += events;
  ctx.failed += events - visible;
  ctx.check("merged view holds every event", complete && frames.send_errors == 0,
            format("drained in {:.2f} s", drain_s));
  ctx.raw.set("start_ns", start);
  ctx.raw.set("end_ns", finished);
  ctx.layer.set("transport.frame_ack_us.p50", e2e::percentile(frames.ack_us, 0.50));
  ctx.layer.set("transport.frame_ack_us.p99", e2e::percentile(frames.ack_us, 0.99));
  ctx.layer.set("transport.frames", static_cast<std::int64_t>(frames.frames));
  ctx.layer.set("transport.rejected_retried", static_cast<std::int64_t>(frames.rejected_retried));
}

/// The 4-shard crowd bodies equal the single-worker reference's.
void check_against_reference(Context& ctx, HttpConn& ctl, int windows) {
  Reference ref;
  const std::int64_t t0 = now_ns();
  const Status built = build_reference(ctx, &ref);
  ctx.check("reference replay built", built.is_ok(), built.to_string());
  if (!built.is_ok()) return;
  int equal = 0;
  int stale = 0;
  for (int w = 0; w < windows; ++w) {
    http::Request request;
    request.method = "GET";
    request.path = "/api/crowd/" + std::to_string(w);
    const http::Response expected = ref.api->dispatch(request);
    // The query string is part of the response-cache key, so this read
    // always runs the merge. A plain read may be served from the cache,
    // and can be stale: concurrent shard publishes race to re-key it
    // (ShardRouter's publish hooks each store their own view of the
    // epoch vector), which is counted, not checked, here.
    auto merged = ctl.get(request.path + "?uncached=1");
    auto served = ctl.get(request.path);
    if (merged && merged->status == 200 && expected.status == 200 &&
        merged->body == expected.body)
      ++equal;
    if (merged && served && served->body != merged->body) ++stale;
  }
  ctx.check("4-shard /api/crowd bodies equal a 1-shard IngestWorker's", equal == windows,
            format("{} of {} windows equal; {} served stale from the response cache", equal,
                   windows, stale));
  ctx.layer.set("http.stale_cache_windows", static_cast<std::int64_t>(stale));
  ctx.raw.set("reference_s", static_cast<double>(now_ns() - t0) / 1e9);
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kError);
  Context ctx;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    const auto number = parse_int(value);
    if (flag == "--inputs") ctx.inputs = value;
    else if (flag == "--out") out = value;
    else if (flag == "--http-port" && number) ctx.http_port = static_cast<std::uint16_t>(*number);
    else if (flag == "--frame-port" && number) ctx.frame_port = static_cast<std::uint16_t>(*number);
    else if (flag == "--sut-pid" && number) ctx.sut_pid = static_cast<int>(*number);
    else if (flag == "--seed" && number) ctx.seed = static_cast<std::uint64_t>(*number);
    else if (flag == "--trace") ctx.trace = value == "1";
    else if (flag == "--seconds" && parse_double(value)) ctx.seconds = *parse_double(value);
    else {
      std::fprintf(stderr, "bad flag %s %s\n", argv[i], argv[i + 1]);
      return 2;
    }
  }
  auto manifest = e2e::read_json(ctx.inputs + "/manifest.json");
  auto feed = e2e::read_events(ctx.inputs + "/feed.bin");
  if (out.empty() || !manifest || !feed || ctx.http_port == 0 || ctx.sut_pid == 0) {
    std::fprintf(stderr,
                 "usage: %s --inputs DIR --http-port P --frame-port P --sut-pid PID "
                 "--seconds S --seed N --trace 0|1 --out FILE\n",
                 argv[0]);
    return 2;
  }
  ctx.manifest = std::move(manifest).value();
  ctx.feed = std::move(feed).value();
  ctx.workload = e2e::str_of(ctx.manifest, "workload");

  HttpConn ctl(ctx.http_port);
  const int windows = status_windows(ctl);
  ctx.check("status reports crowd windows", windows > 0);
  if (windows <= 0) return 1;
  const ReadMix mix = read_mix(ctx, ctl, windows);

  auto before = ctl.get("/metrics");
  if (ctx.workload == "live_city") {
    run_live_city(ctx, ctl, mix, windows);
  } else {
    run_dense_backfill(ctx, ctl, mix);
  }
  auto after = ctl.get("/metrics");
  ctx.check("metrics scraped", before.is_ok() && after.is_ok());

  ctx.e2e.set("rss_peak_mb", rss_peak_mb(ctx.sut_pid));
  ctx.layer.set("loadgen.late_ms.p99", e2e::percentile(ctx.late_ms, 0.99));
  ctx.layer.set("ingest.queue_depth.max", ctx.gauge_queue_max);
  ctx.layer.set("http.worker_queue_depth.max", ctx.gauge_http_queue_max);
  ctx.layer.set("shard.epoch_lag.max", ctx.gauge_shard_lag_max);
  ctx.layer.set("http.stale_cache_windows", 0);  // dense_backfill counts them
  if (auto status = ctl.get("/api/status"); status && status->status == 200) {
    if (auto parsed = json::parse(status->body)) {
      const json::Value* mining = parsed->find("mining");
      const json::Value* set = mining != nullptr ? mining->find("pattern_set") : nullptr;
      ctx.layer.set("patterns.pattern_set_bytes", set != nullptr ? e2e::int_of(*set, "bytes") : 0);
    }
  }
  if (ctx.workload == "dense_backfill") check_against_reference(ctx, ctl, windows);

  json::Value checks = json::Value(json::Array{});
  bool correct = true;
  for (const Check& check : ctx.checks) {
    correct = correct && check.ok;
    checks.push_back(json::object({{"name", check.name}, {"ok", check.ok}, {"detail", check.detail}}));
  }
  ctx.raw.set("metrics_before", before.is_ok() ? before->body : std::string());
  ctx.raw.set("metrics_after", after.is_ok() ? after->body : std::string());
  json::Value routes = json::Value(json::Object{});
  for (const RouteKind& route : kRoutes) routes.set(route.name, route.pattern);
  ctx.raw.set("routes", std::move(routes));
  const json::Value report = json::object({{"workload", ctx.workload},
                                           {"correct", correct},
                                           {"attempted", ctx.attempted},
                                           {"failed", ctx.failed},
                                           {"checks", std::move(checks)},
                                           {"e2e", std::move(ctx.e2e)},
                                           {"layer", std::move(ctx.layer)},
                                           {"raw", std::move(ctx.raw)}});
  const Status written = data::write_file(out, json::dump(report));
  if (!written.is_ok()) {
    std::fprintf(stderr, "writing %s failed: %s\n", out.c_str(), written.to_string().c_str());
    return 1;
  }
  return correct ? 0 : 3;
}
