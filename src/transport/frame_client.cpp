#include "transport/frame_client.hpp"

#include <chrono>

#include "util/format.hpp"
#include "util/socket.hpp"

namespace crowdweb::transport {

struct FrameClient::Impl {
  net::Fd fd;
  std::uint64_t next_seq = 1;
  std::string inbox;
  std::chrono::milliseconds timeout{5'000};

  void close() {
    fd.reset();
    inbox.clear();
  }

  Status write_all(std::string_view bytes) {
    Status status = net::send_all(fd.get(), bytes);
    if (!status.is_ok()) close();
    return status;
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
      char chunk[16 * 1024];
      const Result<std::size_t> read = net::read_before(fd.get(), chunk, inbox, deadline);
      if (!read.is_ok()) {
        close();
        return read.status();
      }
      if (*read == 0) {
        close();
        return io_error("listener closed the connection");
      }
    }
  }
};

FrameClient::FrameClient() : impl_(std::make_unique<Impl>()) {}

FrameClient::~FrameClient() = default;

Status FrameClient::connect_tcp(const std::string& host, std::uint16_t port) {
  close();
  Result<net::Fd> fd = net::connect_tcp(host, port);
  if (!fd.is_ok()) return fd.status();
  impl_->fd = std::move(*fd);
  return Status::ok();
}

void FrameClient::close() { impl_->close(); }

bool FrameClient::connected() const noexcept { return impl_->fd.valid(); }

Result<FrameAck> FrameClient::send(std::span<const ingest::IngestEvent> events) {
  if (!impl_->fd.valid()) return unavailable("frame client is not connected");
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
