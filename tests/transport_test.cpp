// Transport subsystem tests: frame wire format round-trips and
// adversarial damage (truncation at every length, bit flips at every
// byte offset), the pipeline's outcome split, the framed TCP listener
// end to end over a real socket (including frames that arrive together
// with the producer's FIN), ack coalescing (a small frame's ack is held,
// a full frame's is not), SSE framing + subscribe→publish→delivery
// without polling, idle-connection reaping, the 429 body contract, and
// the corpus-equivalence guarantee across the CSV and binary transports.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/categories.hpp"
#include "http/message.hpp"
#include "json/json.hpp"
#include "http/router.hpp"
#include "http/server.hpp"
#include "ingest/event.hpp"
#include "ingest/replay.hpp"
#include "telemetry/metrics.hpp"
#include "transport/csv_source.hpp"
#include "transport/frame.hpp"
#include "transport/frame_client.hpp"
#include "transport/frame_server.hpp"
#include "transport/pipeline.hpp"
#include "transport/sse.hpp"
#include "util/civil_time.hpp"
#include "util/log.hpp"

namespace crowdweb {
namespace {

using namespace std::chrono_literals;

class QuietLogs : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kError); }
};
const auto* const kQuietLogs =
    ::testing::AddGlobalTestEnvironment(new QuietLogs);  // NOLINT(cert-err58-cpp)

/// Fixes a coordinate at exactly what the CSV transport's 6-decimal
/// rendering preserves, so a CSV round-trip is the identity.
double quantized(double value) { return std::stod(std::to_string(value)); }

/// Events whose lat/lon survive the CSV path's 6-decimal rendering and
/// whose timestamps round-trip through format_timestamp — the same
/// values must come back from every transport.
std::vector<ingest::IngestEvent> make_events(std::size_t count,
                                             std::uint32_t first_user = 1) {
  const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
  std::vector<ingest::IngestEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ingest::IngestEvent event;
    event.user = first_user + static_cast<std::uint32_t>(i % 7);
    event.category = taxonomy.roots()[i % taxonomy.roots().size()];
    event.position.lat = quantized(40.70 + 0.000001 * static_cast<double>(i % 10'000));
    event.position.lon =
        quantized(-74.01 + 0.000001 * static_cast<double>((i * 37) % 10'000));
    event.timestamp = 1'300'000'000 + static_cast<std::int64_t>(i) * 60;
    events.push_back(event);
  }
  return events;
}

void expect_events_equal(const std::vector<ingest::IngestEvent>& a,
                         const std::vector<ingest::IngestEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user) << "event " << i;
    EXPECT_EQ(a[i].category, b[i].category) << "event " << i;
    EXPECT_DOUBLE_EQ(a[i].position.lat, b[i].position.lat) << "event " << i;
    EXPECT_DOUBLE_EQ(a[i].position.lon, b[i].position.lon) << "event " << i;
    EXPECT_EQ(a[i].timestamp, b[i].timestamp) << "event " << i;
  }
}

// ---------------------------------------------------------------------------
// Frame wire format

TEST(Frame, DataRoundTrip) {
  const auto events = make_events(13);
  const std::string wire = transport::encode_data_frame(42, events);
  EXPECT_EQ(wire.size(),
            transport::kFrameHeaderBytes + 4 + events.size() * transport::kFrameEventBytes);
  const transport::FrameDecodeResult decoded = transport::decode_frame(wire);
  ASSERT_EQ(decoded.state, transport::FrameState::kComplete) << decoded.error;
  EXPECT_EQ(decoded.consumed, wire.size());
  EXPECT_EQ(decoded.frame.type, transport::FrameType::kData);
  EXPECT_EQ(decoded.frame.seq, 42u);
  expect_events_equal(events, decoded.frame.events);
}

TEST(Frame, EmptyDataFrame) {
  const std::string wire = transport::encode_data_frame(7, {});
  const transport::FrameDecodeResult decoded = transport::decode_frame(wire);
  ASSERT_EQ(decoded.state, transport::FrameState::kComplete) << decoded.error;
  EXPECT_TRUE(decoded.frame.events.empty());
}

TEST(Frame, AckRoundTrip) {
  const transport::FrameAck ack{10, 2, 3, 1};
  const std::string wire = transport::encode_ack_frame(99, ack);
  const transport::FrameDecodeResult decoded = transport::decode_frame(wire);
  ASSERT_EQ(decoded.state, transport::FrameState::kComplete) << decoded.error;
  EXPECT_EQ(decoded.frame.type, transport::FrameType::kAck);
  EXPECT_EQ(decoded.frame.seq, 99u);
  EXPECT_EQ(decoded.frame.ack, ack);
}

TEST(Frame, TwoFramesBackToBack) {
  const auto events = make_events(3);
  std::string wire = transport::encode_data_frame(1, events);
  const std::size_t first = wire.size();
  wire += transport::encode_ack_frame(1, {3, 0, 0, 0});
  const transport::FrameDecodeResult a = transport::decode_frame(wire);
  ASSERT_EQ(a.state, transport::FrameState::kComplete);
  EXPECT_EQ(a.consumed, first);
  const transport::FrameDecodeResult b =
      transport::decode_frame(std::string_view(wire).substr(a.consumed));
  ASSERT_EQ(b.state, transport::FrameState::kComplete);
  EXPECT_EQ(b.frame.type, transport::FrameType::kAck);
}

TEST(Frame, TruncationRefusedAtEveryLength) {
  const auto events = make_events(5);
  const std::string wire = transport::encode_data_frame(3, events);
  for (std::size_t length = 0; length < wire.size(); ++length) {
    const transport::FrameDecodeResult decoded =
        transport::decode_frame(std::string_view(wire).substr(0, length));
    // A shorter buffer must never produce a frame; anything the header
    // prefix already contradicts (bad magic needs only 4 bytes) may
    // error, everything else reports kNeedMore.
    EXPECT_NE(decoded.state, transport::FrameState::kComplete)
        << "truncated to " << length << " of " << wire.size();
  }
}

TEST(Frame, BitFlipRefusedAtEveryByteOffset) {
  const auto events = make_events(4);
  const std::string wire = transport::encode_data_frame(11, events);
  for (std::size_t offset = 0; offset < wire.size(); ++offset) {
    for (const unsigned bit : {0u, 3u, 7u}) {
      std::string damaged = wire;
      damaged[offset] = static_cast<char>(damaged[offset] ^ (1u << bit));
      const transport::FrameDecodeResult decoded = transport::decode_frame(damaged);
      // The flip may grow the claimed length (kNeedMore) or break the
      // magic/CRC (kError); it must never decode as a complete frame —
      // the checksum covers the header and the payload.
      EXPECT_NE(decoded.state, transport::FrameState::kComplete)
          << "flip at byte " << offset << " bit " << bit;
    }
  }
}

TEST(Frame, OversizedPayloadRefused) {
  const std::string wire = transport::encode_data_frame(1, make_events(100));
  const transport::FrameDecodeResult decoded =
      transport::decode_frame(wire, /*max_payload_bytes=*/64);
  EXPECT_EQ(decoded.state, transport::FrameState::kError);
}

// ---------------------------------------------------------------------------
// Pipeline

TEST(Pipeline, WithoutSpoolRejectionsSurface) {
  transport::IngestPipeline pipeline(
      [](std::span<const ingest::IngestEvent> events) -> ingest::SubmitResult {
        return {events.size() / 2, events.size() - events.size() / 2};
      });
  const auto events = make_events(10);
  const ingest::SubmitResult outcome = pipeline.submit(events, "http_csv");
  EXPECT_EQ(outcome.accepted, 5u);
  EXPECT_EQ(outcome.rejected, 5u);
}

// ---------------------------------------------------------------------------
// Frame server end to end

struct Collector {
  std::mutex mutex;
  std::vector<ingest::IngestEvent> events;

  transport::SubmitFn submit_fn() {
    return [this](std::span<const ingest::IngestEvent> batch) -> ingest::SubmitResult {
      std::lock_guard<std::mutex> lock(mutex);
      events.insert(events.end(), batch.begin(), batch.end());
      return {batch.size(), 0};
    };
  }

  std::vector<ingest::IngestEvent> snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return events;
  }
};

TEST(FrameServer, BinaryIngestOverRealSocket) {
  Collector collector;
  transport::IngestPipeline pipeline(collector.submit_fn());
  transport::FrameServer server(pipeline, {});
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_NE(server.port(), 0);

  transport::FrameClient client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port()).is_ok());
  const auto first = make_events(8, 1);
  const auto second = make_events(5, 300);
  const auto ack1 = client.send(first);
  ASSERT_TRUE(ack1.is_ok()) << ack1.status().to_string();
  EXPECT_EQ(ack1->accepted, first.size());
  EXPECT_EQ(ack1->rejected, 0u);
  EXPECT_EQ(ack1->spooled, 0u);  // reserved wire field
  const auto ack2 = client.send(second);
  ASSERT_TRUE(ack2.is_ok());
  EXPECT_EQ(ack2->accepted, second.size());
  EXPECT_EQ(ack2->spooled, 0u);

  auto expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  expect_events_equal(expected, collector.snapshot());
  const transport::FrameServerStats stats = server.stats();
  EXPECT_EQ(stats.frames, 2u);
  EXPECT_EQ(stats.events, expected.size());
  EXPECT_EQ(stats.accepted, expected.size());
  client.close();
  server.stop();
}

TEST(FrameServer, CorruptFrameClosesConnection) {
  Collector collector;
  transport::IngestPipeline pipeline(collector.submit_fn());
  transport::FrameServer server(pipeline, {});
  ASSERT_TRUE(server.start().is_ok());

  std::string wire = transport::encode_data_frame(1, make_events(3));
  const std::size_t flip = transport::kFrameHeaderBytes + 2;  // payload bit flip
  wire[flip] = static_cast<char>(wire[flip] ^ 0x40);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  char byte = 0;
  // The listener refuses the frame and closes; the read drains to EOF.
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  EXPECT_TRUE(collector.snapshot().empty());
  EXPECT_GE(server.stats().decode_errors, 1u);
  server.stop();
}

TEST(FrameServer, FramesSentWithTheProducersFinAreSubmittedAndAcked) {
  // Three frames and the FIN can land in one read pass; the listener
  // must still submit and ack every frame before it closes.
  Collector collector;
  transport::IngestPipeline pipeline(collector.submit_fn());
  transport::FrameServer server(pipeline, {});
  ASSERT_TRUE(server.start().is_ok());

  std::string wire;
  std::vector<ingest::IngestEvent> expected;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const auto events = make_events(1, static_cast<std::uint32_t>(seq * 100));
    wire += transport::encode_data_frame(seq, events);
    expected.insert(expected.end(), events.begin(), events.end());
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  std::string received;
  char chunk[4096];
  while (true) {  // the listener closes once its acks are out
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  std::vector<std::uint64_t> acked;
  std::string_view rest = received;
  while (!rest.empty()) {
    const transport::FrameDecodeResult decoded = transport::decode_frame(rest);
    ASSERT_EQ(decoded.state, transport::FrameState::kComplete);
    ASSERT_EQ(decoded.frame.type, transport::FrameType::kAck);
    EXPECT_EQ(decoded.frame.ack.accepted, 1u);
    acked.push_back(decoded.frame.seq);
    rest.remove_prefix(decoded.consumed);
  }
  EXPECT_EQ(acked, (std::vector<std::uint64_t>{1, 2, 3}));
  expect_events_equal(expected, collector.snapshot());
  EXPECT_EQ(server.stats().frames, 3u);
  server.stop();
}

TEST(FrameServer, IdleProducersAreReaped) {
  Collector collector;
  transport::IngestPipeline pipeline(collector.submit_fn());
  transport::FrameServerConfig config;
  config.idle_timeout = 100ms;
  transport::FrameServer server(pipeline, config);
  ASSERT_TRUE(server.start().is_ok());
  transport::FrameClient client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port()).is_ok());
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.idle_closed() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(10ms);
  EXPECT_GE(server.idle_closed(), 1u);
  EXPECT_EQ(server.connections(), 0u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Ack coalescing: a small frame's ack is held up to 1 ms, a full one is not

/// A blocking raw socket to the listener, so a test controls exactly
/// which bytes arrive in one read.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads acks off `fd` until `count` have arrived (or the socket
/// closes) and returns them in arrival order.
std::vector<transport::Frame> read_acks(int fd, std::size_t count) {
  std::vector<transport::Frame> acks;
  std::string buffer;
  char chunk[4096];
  while (acks.size() < count) {
    const transport::FrameDecodeResult decoded = transport::decode_frame(buffer);
    if (decoded.state == transport::FrameState::kComplete) {
      acks.push_back(decoded.frame);
      buffer.erase(0, decoded.consumed);
      continue;
    }
    if (decoded.state == transport::FrameState::kError) break;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return acks;
}

TEST(FrameServer, SmallFrameAckIsHeldAndArrivesWithoutFurtherTraffic) {
  // No later frame and no FIN: only the listener's own timer can send
  // the held ack.
  Collector collector;
  transport::IngestPipeline pipeline(collector.submit_fn());
  telemetry::Registry registry;
  transport::FrameServerConfig config;
  config.metrics = &registry;
  transport::FrameServer server(pipeline, config);
  ASSERT_TRUE(server.start().is_ok());
  transport::FrameClient client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port()).is_ok());
  const auto events = make_events(1);
  const auto ack = client.send(events);
  ASSERT_TRUE(ack.is_ok()) << ack.status().to_string();
  EXPECT_EQ(ack->accepted, 1u);
  expect_events_equal(events, collector.snapshot());
  EXPECT_EQ(server.stats().acks_held, 1u);
  EXPECT_EQ(registry
                .counter_family("crowdweb_transport_acks_held_total", "", {"source"})
                .with_labels({"tcp"})
                .value(),
            1u);
  client.close();
  server.stop();
}

TEST(FrameServer, FullFrameIsAckedWithoutAHold) {
  Collector collector;
  transport::IngestPipeline pipeline(collector.submit_fn());
  transport::FrameServer server(pipeline, {});
  ASSERT_TRUE(server.start().is_ok());
  transport::FrameClient client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port()).is_ok());
  const auto events = make_events(64);
  const auto ack = client.send(events);
  ASSERT_TRUE(ack.is_ok()) << ack.status().to_string();
  EXPECT_EQ(ack->accepted, events.size());
  EXPECT_EQ(server.stats().acks_held, 0u);
  client.close();
  server.stop();
}

TEST(FrameServer, SmallThenFullFrameInOneReadAreBothAckedInOrder) {
  Collector collector;
  transport::IngestPipeline pipeline(collector.submit_fn());
  transport::FrameServer server(pipeline, {});
  ASSERT_TRUE(server.start().is_ok());
  const auto small = make_events(1, 100);
  const auto full = make_events(64, 200);
  // One send of both frames. Whether they land in one read or two, the
  // full frame flushes the small one's ack ahead of its own.
  const std::string wire =
      transport::encode_data_frame(1, small) + transport::encode_data_frame(2, full);
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0), static_cast<ssize_t>(wire.size()));
  const std::vector<transport::Frame> acks = read_acks(fd, 2);
  ::close(fd);
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0].seq, 1u);
  EXPECT_EQ(acks[0].ack.accepted, small.size());
  EXPECT_EQ(acks[1].seq, 2u);
  EXPECT_EQ(acks[1].ack.accepted, full.size());
  auto expected = small;
  expected.insert(expected.end(), full.begin(), full.end());
  expect_events_equal(expected, collector.snapshot());
  server.stop();
}

TEST(FrameServer, PacedStopAndWaitProducerSendsFewerFramesThanEvents) {
  // One event due every 100 us, sent open loop by a stop-and-wait
  // client: every frame carries the events that came due while the
  // previous ack was held, so frames fall well below events.
  Collector collector;
  transport::IngestPipeline pipeline(collector.submit_fn());
  transport::FrameServer server(pipeline, {});
  ASSERT_TRUE(server.start().is_ok());
  transport::FrameClient client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port()).is_ok());
  const auto events = make_events(2'000);
  const auto start = std::chrono::steady_clock::now();
  const auto due_of = [&](std::size_t i) { return start + i * 100us; };
  std::size_t next = 0;
  std::size_t frames = 0;
  while (next < events.size()) {
    std::this_thread::sleep_until(due_of(next));
    const auto now = std::chrono::steady_clock::now();
    std::size_t last = next + 1;
    while (last < events.size() && due_of(last) <= now) ++last;
    const auto ack = client.send(std::span(events).subspan(next, last - next));
    ASSERT_TRUE(ack.is_ok()) << ack.status().to_string();
    ASSERT_EQ(ack->accepted, last - next);
    ++frames;
    next = last;
  }
  client.close();
  expect_events_equal(events, collector.snapshot());
  EXPECT_EQ(server.stats().frames, frames);
  EXPECT_LT(frames, events.size() / 2);
  server.stop();
}

// ---------------------------------------------------------------------------
// Corpus equivalence across transports

TEST(Transports, CsvAndBinaryDeliverTheSameCorpus) {
  const data::Taxonomy& taxonomy = data::Taxonomy::foursquare();
  const auto events = make_events(200);

  // CSV path: render the replay driver's wire body, parse it back the
  // way POST /api/ingest does.
  http::Request request;
  request.method = "POST";
  request.path = "/api/ingest";
  request.body = ingest::events_csv(events, taxonomy);
  const auto parsed = transport::parse_ingest_csv(request, taxonomy, [] {
    ADD_FAILURE() << "guest allocation must not run for the user column form";
    return data::UserId{0};
  });
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->invalid, 0u);

  // Binary path: through a real listener socket.
  Collector collector;
  transport::IngestPipeline pipeline(collector.submit_fn());
  transport::FrameServer server(pipeline, {});
  ASSERT_TRUE(server.start().is_ok());
  transport::FrameClient client;
  ASSERT_TRUE(client.connect_tcp("127.0.0.1", server.port()).is_ok());
  const auto ack = client.send(events);
  ASSERT_TRUE(ack.is_ok());
  ASSERT_EQ(ack->accepted, events.size());
  client.close();
  server.stop();

  // Identical event streams — same users, categories, positions,
  // timestamps — regardless of which transport carried them.
  expect_events_equal(parsed->events, collector.snapshot());
}

// ---------------------------------------------------------------------------
// Ingest response contract (429 body carries depth + capacity)

TEST(IngestResponse, BackpressureBodyNamesDepthAndCapacity) {
  transport::ParsedIngest parsed;
  parsed.events = make_events(4);
  parsed.received = 4;
  ingest::IngestStats stats;
  stats.queue_depth = 1024;
  stats.queue_capacity = 1024;
  stats.current_epoch = 9;
  const http::Response response =
      transport::ingest_response(parsed, {0, 4}, stats, 2s);
  EXPECT_EQ(response.status, 429);
  const auto body = json::parse(response.body);
  ASSERT_TRUE(body.is_ok()) << response.body;
  ASSERT_NE(body->find("queue_depth"), nullptr) << response.body;
  EXPECT_EQ(body->find("queue_depth")->as_int(), 1024);
  ASSERT_NE(body->find("queue_capacity"), nullptr) << response.body;
  EXPECT_EQ(body->find("queue_capacity")->as_int(), 1024);
  EXPECT_EQ(body->find("rejected")->as_int(), 4);
  ASSERT_NE(body->find("spooled"), nullptr) << response.body;
  EXPECT_EQ(body->find("spooled")->as_int(), 0);  // reserved body field
  EXPECT_EQ(body->find("epoch")->as_int(), 9);
  ASSERT_TRUE(response.headers.contains("Retry-After"));
  EXPECT_EQ(response.headers.at("Retry-After"), "2");
}

// ---------------------------------------------------------------------------
// SSE framing + delivery

TEST(Sse, EventFraming) {
  EXPECT_EQ(transport::sse_event("epoch", "{\"a\":1}"),
            "event: epoch\ndata: {\"a\":1}\n\n");
  EXPECT_EQ(transport::sse_event("x", "line1\nline2"),
            "event: x\ndata: line1\ndata: line2\n\n");
  EXPECT_EQ(transport::sse_comment("ping"), ": ping\n\n");
}

TEST(Sse, CrowdChannelNames) {
  EXPECT_EQ(transport::crowd_channel(3), "crowd/3");
  EXPECT_EQ(transport::crowd_channel_window("crowd/3"), 3);
  EXPECT_EQ(transport::crowd_channel_window("crowd/"), std::nullopt);
  EXPECT_EQ(transport::crowd_channel_window("crowd/x"), std::nullopt);
  EXPECT_EQ(transport::crowd_channel_window("epochs"), std::nullopt);
}

TEST(Sse, SubscribePublishDeliver) {
  http::Router router;
  router.get("/api/stream/test", [](const http::Request&, const http::PathParams&) {
    return transport::sse_response("test", transport::sse_comment("subscribed"));
  });
  http::Server server(std::move(router), {});
  ASSERT_TRUE(server.start().is_ok());

  transport::SseClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), "/api/stream/test").is_ok());
  // The subscription registers when the server flushes the response;
  // publish() is a no-op until then, so wait for the subscriber count.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.stream_subscribers("test") == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  ASSERT_EQ(server.stream_subscribers("test"), 1u);
  EXPECT_EQ(server.stream_channels(), std::vector<std::string>{"test"});

  // Delivery is push: the event arrives with no further request.
  server.publish_stream("test", transport::sse_event("tick", "{\"n\":1}"));
  const auto event = client.next_event(5s);
  ASSERT_TRUE(event.is_ok()) << event.status().to_string();
  EXPECT_EQ(event->event, "tick");
  EXPECT_EQ(event->data, "{\"n\":1}");

  // Graceful shutdown says goodbye before closing.
  std::thread stopper([&server] { server.stop(); });
  const auto bye = client.next_event(5s);
  stopper.join();
  ASSERT_TRUE(bye.is_ok()) << bye.status().to_string();
  EXPECT_EQ(bye->event, "bye");
}

TEST(Sse, SlowConsumerIsEvicted) {
  http::Router router;
  router.get("/api/stream/test", [](const http::Request&, const http::PathParams&) {
    return transport::sse_response("test", transport::sse_comment("subscribed"));
  });
  http::ServerConfig config;
  config.stream_buffer_bytes = 2048;  // tiny send budget
  http::Server server(std::move(router), config);
  ASSERT_TRUE(server.start().is_ok());

  // A subscriber that never reads: the kernel buffers fill, unsent
  // bytes pile up server-side past the budget, and the server evicts.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const std::string subscribe =
      "GET /api/stream/test HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, subscribe.data(), subscribe.size(), 0),
            static_cast<ssize_t>(subscribe.size()));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.stream_subscribers("test") == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  ASSERT_EQ(server.stream_subscribers("test"), 1u);

  const std::string big(64 * 1024, 'x');
  while (server.stream_evictions() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    server.publish_stream("test", transport::sse_event("blob", big));
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_GE(server.stream_evictions(), 1u);
  EXPECT_EQ(server.stream_subscribers("test"), 0u);
  ::close(fd);
  server.stop();
}

TEST(HttpServer, IdleKeepAliveConnectionsAreReaped) {
  http::Router router;
  router.get("/ping", [](const http::Request&, const http::PathParams&) {
    return http::Response::text(200, "pong");
  });
  http::ServerConfig config;
  config.idle_timeout = 100ms;
  http::Server server(std::move(router), config);
  ASSERT_TRUE(server.start().is_ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  const std::string request = "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  // Keep-alive response arrives, then the connection idles out: recv
  // eventually reports EOF and the server counts the reap.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  bool closed = false;
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    char buffer[1024];
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n == 0) closed = true;
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(server.idle_closed(), 1u);
  ::close(fd);
  server.stop();
}

}  // namespace
}  // namespace crowdweb
