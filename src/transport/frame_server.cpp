#include "transport/frame_server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/log.hpp"
#include "util/socket.hpp"
#include "util/thread_name.hpp"

namespace crowdweb::transport {

namespace {

constexpr std::size_t kReadChunkBytes = 64 * 1024;
/// A data frame of at least this many events is "full": its ack, and
/// every ack held before it, goes out at once.
constexpr std::size_t kFullFrameEvents = 64;
/// How long a small frame's ack waits for company (Nagle's rule): a
/// stop-and-wait producer's next frame then carries every event that
/// came due meanwhile. The ack leaves on the listener's first wake
/// after this deadline. Submission is never delayed, only the ack.
constexpr std::chrono::microseconds kAckHold{1'000};
/// The listener's label on the crowdweb_transport_* families.
constexpr const char* kSourceName = "tcp";

}  // namespace

struct FrameServer::Impl {
  IngestPipeline& pipeline;
  FrameServerConfig config;

  net::Fd listener;
  net::Poller poller;
  std::uint16_t bound_port = 0;
  std::thread loop_thread;
  std::atomic<bool> running{false};
  std::atomic<bool> stop_requested{false};

  struct Connection {
    net::Fd fd;
    std::string inbox;
    std::string outbox;
    std::size_t outbox_offset = 0;
    std::chrono::steady_clock::time_point last_activity;
    /// When the acks held in the outbox are due; nullopt = none held.
    std::optional<std::chrono::steady_clock::time_point> ack_due;
    bool want_write = false;
    bool peer_closed = false;  ///< EOF read; stays only to flush acks
  };
  std::unordered_map<int, Connection> connections;  // loop thread only

  struct Counters {
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> decode_errors{0};
    std::atomic<std::uint64_t> acks_held{0};
  } counters;
  std::atomic<std::size_t> connection_count{0};
  std::atomic<std::uint64_t> idle_closed{0};
  telemetry::Gauge* connections_gauge = nullptr;
  telemetry::Counter* acks_held_counter = nullptr;

  explicit Impl(IngestPipeline& pipeline_ref) : pipeline(pipeline_ref) {}

  void init_metrics() {
    if (config.metrics == nullptr) return;
    connections_gauge =
        &config.metrics
             ->gauge_family("crowdweb_transport_connections",
                            "Open producer sockets on a frame listener.", {"source"})
             .with_labels({kSourceName});
    acks_held_counter =
        &config.metrics
             ->counter_family("crowdweb_transport_acks_held_total",
                              "Frame acks held back to coalesce a producer's next frame.",
                              {"source"})
             .with_labels({kSourceName});
  }

  void set_connection_count(std::size_t n) {
    connection_count.store(n, std::memory_order_relaxed);
    if (connections_gauge != nullptr) connections_gauge->set(static_cast<double>(n));
  }

  bool update_epoll(int fd, Connection& conn) {
    return poller.modify(
        fd, (conn.peer_closed ? 0u : EPOLLIN) | (conn.want_write ? EPOLLOUT : 0u));
  }

  /// One last non-blocking try at the unsent acks before the connection
  /// closes: their frames were submitted, held or not.
  static void send_remaining_acks(const Connection& conn) {
    if (conn.outbox_offset >= conn.outbox.size()) return;
    net::send_bytes(conn.fd.get(), std::string_view(conn.outbox).substr(conn.outbox_offset));
  }

  void close_connection(int fd) {
    const auto it = connections.find(fd);
    if (it == connections.end()) return;
    send_remaining_acks(it->second);
    poller.remove(fd);
    connections.erase(it);  // closes the socket
    set_connection_count(connections.size());
  }

  void accept_ready() {
    net::accept_all(listener.get(), [this](net::Fd fd) {
      const int raw = fd.get();
      if (!poller.add(raw, EPOLLIN)) return;  // fd closes here
      Connection& conn = connections[raw];
      conn.fd = std::move(fd);
      conn.last_activity = std::chrono::steady_clock::now();
      set_connection_count(connections.size());
    });
  }

  /// Writes as much pending ack bytes as the socket takes, held ones
  /// included. False when the connection died.
  bool flush_outbox(int fd, Connection& conn) {
    conn.ack_due.reset();
    const net::SendResult sent =
        net::send_bytes(fd, std::string_view(conn.outbox).substr(conn.outbox_offset));
    conn.outbox_offset += sent.sent;
    if (sent.error != 0) return false;
    if (conn.outbox_offset >= conn.outbox.size()) {
      conn.outbox.clear();
      conn.outbox_offset = 0;
    }
    const bool want_write = !conn.outbox.empty();
    if (want_write != conn.want_write) {
      conn.want_write = want_write;
      if (!update_epoll(fd, conn)) return false;
    }
    return true;
  }

  /// Decodes and submits every complete frame in the inbox. Their acks
  /// are held when every one was small and the producer is still
  /// sending; a full frame or the FIN flushes them, held ones included.
  /// False when the connection must close (EOF-worthy protocol damage).
  bool drain_inbox(int fd, Connection& conn) {
    std::size_t offset = 0;
    std::uint64_t small_acks = 0;
    bool full_frame = false;
    while (true) {
      const FrameDecodeResult decoded =
          decode_frame(std::string_view(conn.inbox).substr(offset));
      if (decoded.state == FrameState::kNeedMore) break;
      if (decoded.state == FrameState::kError) {
        counters.decode_errors.fetch_add(1, std::memory_order_relaxed);
        pipeline.note_decode_error(kSourceName);
        log_warn("{} producer sent a bad frame, closing: {}", kSourceName,
                 decoded.error);
        return false;
      }
      offset += decoded.consumed;
      if (decoded.frame.type != FrameType::kData) continue;  // acks are ignored
      counters.frames.fetch_add(1, std::memory_order_relaxed);
      counters.events.fetch_add(decoded.frame.events.size(), std::memory_order_relaxed);
      const ingest::SubmitResult outcome = pipeline.submit(decoded.frame.events, kSourceName);
      counters.accepted.fetch_add(outcome.accepted, std::memory_order_relaxed);
      counters.rejected.fetch_add(outcome.rejected, std::memory_order_relaxed);
      FrameAck ack;
      ack.accepted = static_cast<std::uint32_t>(outcome.accepted);
      ack.rejected = static_cast<std::uint32_t>(outcome.rejected);
      conn.outbox += encode_ack_frame(decoded.frame.seq, ack);
      if (decoded.frame.events.size() >= kFullFrameEvents)
        full_frame = true;
      else
        ++small_acks;
    }
    conn.inbox.erase(0, offset);
    if (full_frame || conn.peer_closed) return flush_outbox(fd, conn);
    if (small_acks > 0) {
      counters.acks_held.fetch_add(small_acks, std::memory_order_relaxed);
      if (acks_held_counter != nullptr) acks_held_counter->increment(small_acks);
      if (!conn.ack_due) conn.ack_due = conn.last_activity + kAckHold;
    }
    return true;
  }

  /// Flushes every connection whose held acks are due and returns the
  /// earliest deadline still pending.
  std::optional<std::chrono::steady_clock::time_point> flush_due_acks() {
    const auto now = std::chrono::steady_clock::now();
    std::optional<std::chrono::steady_clock::time_point> next;
    std::vector<int> dead;
    for (auto& [fd, conn] : connections) {
      if (!conn.ack_due) continue;
      if (*conn.ack_due > now) {
        next = next ? std::min(*next, *conn.ack_due) : *conn.ack_due;
      } else if (!flush_outbox(fd, conn)) {
        dead.push_back(fd);
      }
    }
    for (const int fd : dead) close_connection(fd);
    return next;
  }

  bool read_ready(int fd, Connection& conn) {
    char chunk[kReadChunkBytes];
    const net::ReadResult read = net::read_available(fd, chunk, conn.inbox);
    if (read.end == net::ReadEnd::kError) return false;
    // The producer closed its write side: answer what we have.
    if (read.end == net::ReadEnd::kEof) conn.peer_closed = true;
    conn.last_activity = std::chrono::steady_clock::now();
    if (!drain_inbox(fd, conn)) return false;
    // Past EOF, stop polling for input and stay only for unsent acks.
    return !conn.peer_closed || (!conn.outbox.empty() && update_epoll(fd, conn));
  }

  void sweep_idle() {
    if (config.idle_timeout.count() <= 0) return;
    const auto now = std::chrono::steady_clock::now();
    std::vector<int> stale;
    for (const auto& [fd, conn] : connections)
      if (now - conn.last_activity > config.idle_timeout) stale.push_back(fd);
    for (const int fd : stale) {
      idle_closed.fetch_add(1, std::memory_order_relaxed);
      close_connection(fd);
    }
  }

  void loop() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    int sweep_ms = 500;
    if (config.idle_timeout.count() > 0)
      sweep_ms = static_cast<int>(
          std::min<std::int64_t>(250, config.idle_timeout.count() / 2 + 1));
    int timeout_ms = sweep_ms;
    while (!stop_requested.load(std::memory_order_acquire)) {
      const int ready = poller.wait(events, timeout_ms);
      if (ready < 0) {
        log_error("{} listener epoll_wait failed: {}", kSourceName,
                  std::strerror(errno));
        break;
      }
      for (int i = 0; i < ready; ++i) {
        const int fd = events[i].data.fd;
        if (poller.is_wake(events[i])) {
          poller.drain();
          continue;
        }
        if (fd == listener.get()) {
          accept_ready();
          continue;
        }
        const auto it = connections.find(fd);
        if (it == connections.end()) continue;
        Connection& conn = it->second;
        bool alive = true;
        // Read before honoring a hangup: frames that arrived with it
        // are still submitted and acked.
        if ((events[i].events & EPOLLIN) != 0) alive = read_ready(fd, conn);
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) alive = false;
        if (alive && (events[i].events & EPOLLOUT) != 0) alive = flush_outbox(fd, conn);
        if (alive && conn.peer_closed && conn.outbox.empty()) alive = false;
        if (!alive) close_connection(fd);
      }
      // Wake again when the earliest held ack is due, rounded up to
      // epoll's millisecond so the wake never comes early.
      timeout_ms = sweep_ms;
      if (const auto due = flush_due_acks()) {
        const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
            *due - std::chrono::steady_clock::now());
        timeout_ms = static_cast<int>(
            std::clamp<std::int64_t>(wait.count(), 0, sweep_ms));
      }
      sweep_idle();
    }
  }

  Status start() {
    if (running.load()) return Status::ok();
    Result<net::Listener> bound = net::listen_tcp(config.address, config.port, 128);
    if (!bound.is_ok()) return bound.status();
    if (Status status = poller.open(); !status.is_ok()) return status;
    if (!poller.add(bound->fd.get(), EPOLLIN)) return io_error("cannot watch the frame listener");
    listener = std::move(bound->fd);
    bound_port = bound->port;
    stop_requested.store(false);
    loop_thread = std::thread([this] {
      util::name_this_thread("cw-frames");
      loop();
    });
    running.store(true);
    log_info("frame listener on {}:{}", config.address, bound_port);
    return Status::ok();
  }

  void stop() {
    if (!running.load()) return;
    stop_requested.store(true, std::memory_order_release);
    poller.wake();
    if (loop_thread.joinable()) loop_thread.join();
    for (const auto& [fd, conn] : connections) send_remaining_acks(conn);
    connections.clear();  // closes every socket
    set_connection_count(0);
    listener.reset();
    poller.close();
    running.store(false);
  }
};

FrameServer::FrameServer(IngestPipeline& pipeline, FrameServerConfig config)
    : impl_(std::make_unique<Impl>(pipeline)) {
  impl_->config = std::move(config);
  impl_->init_metrics();
}

FrameServer::~FrameServer() { stop(); }

Status FrameServer::start() { return impl_->start(); }

void FrameServer::stop() { impl_->stop(); }

bool FrameServer::running() const noexcept { return impl_->running.load(); }

FrameServerStats FrameServer::stats() const noexcept {
  FrameServerStats stats;
  stats.frames = impl_->counters.frames.load(std::memory_order_relaxed);
  stats.events = impl_->counters.events.load(std::memory_order_relaxed);
  stats.accepted = impl_->counters.accepted.load(std::memory_order_relaxed);
  stats.rejected = impl_->counters.rejected.load(std::memory_order_relaxed);
  stats.decode_errors = impl_->counters.decode_errors.load(std::memory_order_relaxed);
  stats.acks_held = impl_->counters.acks_held.load(std::memory_order_relaxed);
  return stats;
}

std::uint16_t FrameServer::port() const noexcept { return impl_->bound_port; }

std::size_t FrameServer::connections() const noexcept {
  return impl_->connection_count.load(std::memory_order_relaxed);
}

std::uint64_t FrameServer::idle_closed() const noexcept {
  return impl_->idle_closed.load(std::memory_order_relaxed);
}

}  // namespace crowdweb::transport
