// The one socket layer under CrowdWeb's two epoll listeners
// (http::Server, transport::FrameServer) and its three blocking clients
// (http::fetch, transport::FrameClient, transport::SseClient): an owning
// fd, TCP listen, connect and accept, an epoll set with an eventfd wake,
// and the read and send loops.
//
// Every socket write goes through send_bytes(), which passes
// MSG_NOSIGNAL: a peer that hung up shows as EPIPE on the write, never
// as a SIGPIPE that would kill the process.
#pragma once

#include <sys/epoll.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.hpp"

namespace crowdweb::net {

/// Owning file descriptor: closes on destruction and on reset().
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void reset() noexcept;

 private:
  int fd_ = -1;
};

struct Listener {
  Fd fd;
  std::uint16_t port = 0;  ///< the bound port (the real one when asked for 0)
};

/// A non-blocking, close-on-exec TCP listener with SO_REUSEADDR on an
/// IPv4 `address`; port 0 binds an ephemeral port. kInvalidArgument for
/// an address that does not parse, kIoError when bind or listen fails.
[[nodiscard]] Result<Listener> listen_tcp(const std::string& address, std::uint16_t port,
                                          int backlog);

/// A blocking, close-on-exec TCP connection to an IPv4 `host`, with
/// TCP_NODELAY. kInvalidArgument for a host that does not parse,
/// kIoError when the connect fails.
[[nodiscard]] Result<Fd> connect_tcp(const std::string& host, std::uint16_t port);

/// Accepts every connection pending on the non-blocking `listener`
/// until it would block. Each one comes non-blocking, close-on-exec and
/// with TCP_NODELAY; a callback that keeps no hold of it closes it.
void accept_all(int listener, const std::function<void(Fd)>& on_accept);

/// An epoll set plus an eventfd that any thread can use to interrupt a
/// wait. The wake fd is registered for EPOLLIN; its events show up in
/// wait() like any other and are told apart with is_wake().
class Poller {
 public:
  [[nodiscard]] Status open();
  void close() noexcept;

  [[nodiscard]] bool add(int fd, std::uint32_t events);
  bool modify(int fd, std::uint32_t events);
  void remove(int fd);

  /// Ready events, up to `events.size()`, after at most `timeout_ms`.
  /// 0 on a timeout or a signal, -1 (errno set) when the wait fails.
  int wait(std::span<epoll_event> events, int timeout_ms);

  /// Interrupts a wait, from any thread. A no-op while closed.
  void wake() noexcept;
  [[nodiscard]] bool is_wake(const epoll_event& event) const noexcept;
  /// Consumes the pending wakes, so the wake fd stops reporting ready.
  void drain() noexcept;

 private:
  Fd epoll_;
  Fd wake_;
};

enum class ReadEnd {
  kWouldBlock,  ///< read everything the socket had (EAGAIN)
  kEof,         ///< the peer closed its write side
  kError,       ///< a read failed
};

struct ReadResult {
  std::size_t bytes = 0;  ///< appended to the caller's buffer
  ReadEnd end = ReadEnd::kWouldBlock;
};

/// Reads the non-blocking socket `fd` into `into` until it would block,
/// hits EOF or fails, at most `chunk.size()` bytes a call.
ReadResult read_available(int fd, std::span<char> chunk, std::string& into);

/// Waits until the socket `fd` is readable or `deadline` passes, then
/// reads once, at most `chunk.size()` bytes, into `into`. Returns the
/// bytes read, 0 when the peer closed. kUnavailable when the deadline
/// passes first, kIoError when the wait or the read fails.
[[nodiscard]] Result<std::size_t> read_before(int fd, std::span<char> chunk, std::string& into,
                                              std::chrono::steady_clock::time_point deadline);

struct SendResult {
  std::size_t sent = 0;  ///< bytes the socket took
  int error = 0;         ///< errno of a failed send; 0 when all sent or it would block
};

/// Sends `bytes` on `fd` until all are written, the socket would block
/// or a send fails, with MSG_NOSIGNAL.
SendResult send_bytes(int fd, std::string_view bytes);

/// send_bytes() on a blocking socket: kIoError unless every byte went.
[[nodiscard]] Status send_all(int fd, std::string_view bytes);

}  // namespace crowdweb::net
