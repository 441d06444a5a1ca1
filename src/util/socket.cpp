#include "util/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "util/format.hpp"

namespace crowdweb::net {

namespace {

Result<sockaddr_in> ipv4_address(const std::string& host, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1)
    return invalid_argument(crowdweb::format("bad IPv4 address '{}'", host));
  return address;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

void Fd::reset() noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Result<Listener> listen_tcp(const std::string& address, std::uint16_t port, int backlog) {
  const Result<sockaddr_in> bind_to = ipv4_address(address, port);
  if (!bind_to.is_ok()) return bind_to.status();
  Listener listener;
  listener.fd = Fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!listener.fd.valid())
    return io_error(crowdweb::format("socket() failed: {}", std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listener.fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(listener.fd.get(), reinterpret_cast<const sockaddr*>(&*bind_to),
             sizeof *bind_to) != 0)
    return io_error(crowdweb::format("bind({}:{}) failed: {}", address, port,
                                     std::strerror(errno)));
  if (::listen(listener.fd.get(), backlog) != 0)
    return io_error(crowdweb::format("listen() failed: {}", std::strerror(errno)));
  sockaddr_in bound{};
  socklen_t length = sizeof bound;
  if (::getsockname(listener.fd.get(), reinterpret_cast<sockaddr*>(&bound), &length) == 0)
    listener.port = ntohs(bound.sin_port);
  return listener;
}

Result<Fd> connect_tcp(const std::string& host, std::uint16_t port) {
  const Result<sockaddr_in> peer = ipv4_address(host, port);
  if (!peer.is_ok()) return peer.status();
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return io_error(crowdweb::format("socket() failed: {}", std::strerror(errno)));
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&*peer), sizeof *peer) != 0)
    return io_error(crowdweb::format("connect({}:{}) failed: {}", host, port,
                                     std::strerror(errno)));
  set_nodelay(fd.get());
  return fd;
}

void accept_all(int listener, const std::function<void(Fd)>& on_accept) {
  while (true) {
    const int fd = ::accept4(listener, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient failure: the next wake tries again
    }
    // Small responses and acks must not wait for delayed ACKs.
    set_nodelay(fd);
    on_accept(Fd(fd));
  }
}

Status Poller::open() {
  epoll_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid())
    return io_error(crowdweb::format("epoll_create1() failed: {}", std::strerror(errno)));
  wake_ = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_.valid())
    return io_error(crowdweb::format("eventfd() failed: {}", std::strerror(errno)));
  if (!add(wake_.get(), EPOLLIN))
    return io_error(crowdweb::format("epoll_ctl(ADD) failed: {}", std::strerror(errno)));
  return Status::ok();
}

void Poller::close() noexcept {
  epoll_.reset();
  wake_.reset();
}

bool Poller::add(int fd, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &event) == 0;
}

bool Poller::modify(int fd, std::uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &event) == 0;
}

void Poller::remove(int fd) { ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr); }

int Poller::wait(std::span<epoll_event> events, int timeout_ms) {
  const int ready =
      ::epoll_wait(epoll_.get(), events.data(), static_cast<int>(events.size()), timeout_ms);
  return ready < 0 && errno == EINTR ? 0 : ready;
}

void Poller::wake() noexcept {
  if (!wake_.valid()) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_.get(), &one, sizeof one);
}

bool Poller::is_wake(const epoll_event& event) const noexcept {
  return event.data.fd == wake_.get();
}

void Poller::drain() noexcept {
  std::uint64_t wakes = 0;
  [[maybe_unused]] const ssize_t n = ::read(wake_.get(), &wakes, sizeof wakes);
}

ReadResult read_available(int fd, std::span<char> chunk, std::string& into) {
  ReadResult result;
  while (true) {
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    if (n > 0) {
      into.append(chunk.data(), static_cast<std::size_t>(n));
      result.bytes += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      result.end = ReadEnd::kEof;
    } else if (errno == EINTR) {
      continue;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      result.end = ReadEnd::kError;
    }
    return result;
  }
}

Result<std::size_t> read_before(int fd, std::span<char> chunk, std::string& into,
                                std::chrono::steady_clock::time_point deadline) {
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return unavailable("timed out waiting for the peer");
    // Rounded up, so the wait never ends before the deadline.
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(deadline - now);
    pollfd ready_fd{fd, POLLIN, 0};
    const int ready = ::poll(&ready_fd, 1,
                             static_cast<int>(std::min<std::int64_t>(left.count(), INT_MAX)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return io_error(crowdweb::format("poll failed: {}", std::strerror(errno)));
    }
    if (ready == 0) continue;  // the deadline is checked above
    const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return io_error(crowdweb::format("recv failed: {}", std::strerror(errno)));
    }
    into.append(chunk.data(), static_cast<std::size_t>(n));
    return static_cast<std::size_t>(n);
  }
}

SendResult send_bytes(int fd, std::string_view bytes) {
  SendResult result;
  while (result.sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + result.sent, bytes.size() - result.sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      result.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    result.error = n < 0 ? errno : EPIPE;
    break;
  }
  return result;
}

Status send_all(int fd, std::string_view bytes) {
  const SendResult result = send_bytes(fd, bytes);
  if (result.sent == bytes.size()) return Status::ok();
  return io_error(crowdweb::format("send failed: {}",
                                   std::strerror(result.error != 0 ? result.error : EAGAIN)));
}

}  // namespace crowdweb::net
