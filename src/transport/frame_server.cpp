#include "transport/frame_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/format.hpp"
#include "util/log.hpp"
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

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

struct FrameServer::Impl {
  IngestPipeline& pipeline;
  FrameServerConfig config;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::uint16_t bound_port = 0;
  std::thread loop_thread;
  std::atomic<bool> running{false};
  std::atomic<bool> stop_requested{false};

  struct Connection {
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

  Status bind_listener() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) return io_error("cannot create tcp socket");
    const int enable = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    if (::inet_pton(AF_INET, config.address.c_str(), &addr.sin_addr) != 1) {
      close_fd(listen_fd);
      return invalid_argument(crowdweb::format("bad listen address {}", config.address));
    }
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      close_fd(listen_fd);
      return io_error(crowdweb::format("cannot bind {}:{}: {}", config.address,
                                       config.port, std::strerror(errno)));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
      bound_port = ntohs(bound.sin_port);
    if (::listen(listen_fd, 128) != 0) {
      close_fd(listen_fd);
      return io_error(crowdweb::format("cannot listen: {}", std::strerror(errno)));
    }
    return Status::ok();
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  bool update_epoll(int fd, Connection& conn) {
    epoll_event event{};
    event.events = (conn.peer_closed ? 0u : EPOLLIN) | (conn.want_write ? EPOLLOUT : 0u);
    event.data.fd = fd;
    return ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &event) == 0;
  }

  /// One last non-blocking try at the unsent acks before `fd` closes:
  /// their frames were submitted, held or not.
  static void send_remaining_acks(int fd, const Connection& conn) {
    if (conn.outbox_offset >= conn.outbox.size()) return;
    [[maybe_unused]] const ssize_t n =
        ::send(fd, conn.outbox.data() + conn.outbox_offset,
               conn.outbox.size() - conn.outbox_offset, MSG_NOSIGNAL | MSG_DONTWAIT);
  }

  void close_connection(int fd) {
    if (const auto it = connections.find(fd); it != connections.end())
      send_remaining_acks(fd, it->second);
    connections.erase(fd);
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    set_connection_count(connections.size());
  }

  void accept_ready() {
    while (true) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient accept failure
      }
      const int enable = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.fd = fd;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
        ::close(fd);
        continue;
      }
      Connection& conn = connections[fd];
      conn.last_activity = std::chrono::steady_clock::now();
      set_connection_count(connections.size());
    }
  }

  /// Writes as much pending ack bytes as the socket takes, held ones
  /// included. False when the connection died.
  bool flush_outbox(int fd, Connection& conn) {
    conn.ack_due.reset();
    while (conn.outbox_offset < conn.outbox.size()) {
      const ssize_t n = ::send(fd, conn.outbox.data() + conn.outbox_offset,
                               conn.outbox.size() - conn.outbox_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      conn.outbox_offset += static_cast<std::size_t>(n);
    }
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
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn.inbox.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {  // producer closed its write side; answer what we have
        conn.peer_closed = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
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
      const int ready = ::epoll_wait(epoll_fd, events, kMaxEvents, timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        log_error("{} listener epoll_wait failed: {}", kSourceName,
                  std::strerror(errno));
        break;
      }
      for (int i = 0; i < ready; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd) {
          std::uint64_t drained = 0;
          [[maybe_unused]] const ssize_t n = ::read(wake_fd, &drained, sizeof(drained));
          continue;
        }
        if (fd == listen_fd) {
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
    if (Status status = bind_listener(); !status.is_ok()) return status;
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (epoll_fd < 0 || wake_fd < 0) {
      close_fd(listen_fd);
      close_fd(epoll_fd);
      close_fd(wake_fd);
      return io_error("cannot create epoll/eventfd for frame listener");
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = listen_fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd, &event);
    event.data.fd = wake_fd;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &event);
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
    wake();
    if (loop_thread.joinable()) loop_thread.join();
    for (const auto& [fd, conn] : connections) {
      send_remaining_acks(fd, conn);
      ::close(fd);
    }
    connections.clear();
    set_connection_count(0);
    close_fd(listen_fd);
    close_fd(epoll_fd);
    close_fd(wake_fd);
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
