#include "transport/frame_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/format.hpp"

namespace crowdweb::transport {

struct FrameClient::Impl {
  int fd = -1;
  std::uint64_t next_seq = 1;
  std::string inbox;
  std::chrono::milliseconds timeout{5'000};

  ~Impl() { close(); }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    inbox.clear();
  }

  Status write_all(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        close();
        return io_error(crowdweb::format("frame send failed: {}",
                                         n < 0 ? std::strerror(errno) : "closed"));
      }
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return Status::ok();
  }

  Result<Frame> read_frame() {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      const FrameDecodeResult decoded = decode_frame(inbox);
      if (decoded.state == FrameState::kComplete) {
        Frame frame = decoded.frame;
        inbox.erase(0, decoded.consumed);
        return frame;
      }
      if (decoded.state == FrameState::kError) {
        close();
        return io_error(crowdweb::format("bad frame from listener: {}", decoded.error));
      }
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        close();
        return unavailable("timed out waiting for frame ack");
      }
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        close();
        return io_error(crowdweb::format("poll failed: {}", std::strerror(errno)));
      }
      if (ready == 0) continue;  // deadline re-checked above
      char chunk[16 * 1024];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        close();
        return io_error("listener closed the connection");
      }
      inbox.append(chunk, static_cast<std::size_t>(n));
    }
  }
};

FrameClient::FrameClient() : impl_(std::make_unique<Impl>()) {}

FrameClient::~FrameClient() = default;

Status FrameClient::connect_tcp(const std::string& host, std::uint16_t port) {
  close();
  impl_->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (impl_->fd < 0) return io_error("cannot create tcp socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    impl_->close();
    return invalid_argument(crowdweb::format("bad host address {}", host));
  }
  if (::connect(impl_->fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = io_error(
        crowdweb::format("cannot connect to {}:{}: {}", host, port, std::strerror(errno)));
    impl_->close();
    return status;
  }
  const int enable = 1;
  ::setsockopt(impl_->fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return Status::ok();
}

void FrameClient::close() { impl_->close(); }

bool FrameClient::connected() const noexcept { return impl_->fd >= 0; }

Result<FrameAck> FrameClient::send(std::span<const ingest::IngestEvent> events) {
  if (impl_->fd < 0) return unavailable("frame client is not connected");
  const std::uint64_t seq = impl_->next_seq++;
  if (Status status = impl_->write_all(encode_data_frame(seq, events)); !status.is_ok())
    return status;
  while (true) {
    Result<Frame> frame = impl_->read_frame();
    if (!frame.is_ok()) return frame.status();
    if (frame->type != FrameType::kAck) continue;  // tolerate non-ack noise
    if (frame->seq != seq) {
      impl_->close();
      return io_error(crowdweb::format("ack sequence mismatch (sent {}, got {})", seq,
                                       frame->seq));
    }
    return frame->ack;
  }
}

ingest::ReplaySink frame_sink(std::shared_ptr<FrameClient> client) {
  return [client = std::move(client)](std::span<const ingest::IngestEvent> events)
             -> Result<ingest::SinkReport> {
    Result<FrameAck> ack = client->send(events);
    if (!ack.is_ok()) return ack.status();
    ingest::SinkReport report;
    report.accepted = ack->accepted;
    report.rejected = ack->rejected;
    return report;
  };
}

}  // namespace crowdweb::transport
