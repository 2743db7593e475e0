/// Event-loop serving stack, bottom-up: the `EventLoop` primitive
/// (posting, fd dispatch, stop-drain), the transport-agnostic `Connection`
/// state machine (ordered release, in-flight shedding, corrupt framing,
/// write watermarks, wake discipline), and the epoll `ServerTransport` over
/// real sockets (round trips, shard fan-out, idle timeouts, the
/// open-connection gauge the leak probes rely on, and the write path:
/// EAGAIN to EPOLLOUT, watermark pause and resume, hangups mid-reply).
#include "serve/event_loop.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/connection.h"
#include "serve/fault_transport.h"
#include "serve/server.h"
#include "serve/server_transport.h"
#include "serve/tcp_transport.h"

namespace abp::serve {
namespace {

BeaconField make_field() {
  BeaconField field(AABB({0, 0}, {60, 60}));
  field.add({10, 10});
  field.add({30, 10});
  field.add({10, 30});
  return field;
}

ServiceConfig test_config() {
  ServiceConfig config;
  config.lattice_step = 2.0;
  return config;
}

Request localize_request(std::uint64_t seq) {
  Request request;
  request.seq = seq;
  request.endpoint = Endpoint::kLocalize;
  request.points = {{12, 12}};
  return request;
}

std::string request_frame(std::uint64_t seq) {
  return encode_frame(format_request(localize_request(seq)));
}

// ---- EventLoop primitive -----------------------------------------------

TEST(EventLoop, PostedTasksRunOnTheLoopThreadInOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::thread::id task_thread;
  std::thread runner([&loop] { loop.run({}, 50); });
  loop.post([&order, &task_thread] {
    order.push_back(1);
    task_thread = std::this_thread::get_id();
  });
  loop.post([&order] { order.push_back(2); });
  loop.post([&order, &loop] {
    order.push_back(3);
    loop.stop();
  });
  const std::thread::id loop_thread = runner.get_id();
  runner.join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(task_thread, loop_thread);
}

TEST(EventLoop, FdReadinessDispatchesTheRegisteredHandler) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC), 0);
  EventLoop loop;
  std::string received;
  loop.add_fd(pipe_fds[0], EPOLLIN, [&](std::uint32_t) {
    char buf[64];
    const ssize_t n = ::read(pipe_fds[0], buf, sizeof buf);
    if (n > 0) received.assign(buf, static_cast<std::size_t>(n));
    loop.stop();
  });
  std::thread runner([&loop] { loop.run({}, 50); });
  ASSERT_EQ(::write(pipe_fds[1], "ping", 4), 4);
  runner.join();
  EXPECT_EQ(received, "ping");
  loop.remove_fd(pipe_fds[0]);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(EventLoop, TasksPostedWhileStoppingAreDrainedNotDropped) {
  // A task posted from within the final dispatch round (after stop() is
  // already in flight) must still run — the epoll transport relies on this
  // to avoid leaking connection hand-offs that race shutdown.
  EventLoop loop;
  std::atomic<bool> late_task_ran{false};
  std::thread runner([&loop] { loop.run({}, 50); });
  loop.post([&loop, &late_task_ran] {
    loop.post([&late_task_ran] { late_task_ran = true; });
    loop.stop();
  });
  runner.join();
  EXPECT_TRUE(late_task_ran.load());
}

TEST(EventLoop, TickRunsWithoutFdActivity) {
  EventLoop loop;
  int ticks = 0;
  loop.run(
      [&] {
        if (++ticks >= 3) loop.stop();
      },
      5);
  EXPECT_GE(ticks, 3);
}

// ---- Connection state machine ------------------------------------------

/// Manual-mode server on a manual clock so every completion is explicit.
struct ConnectionRig {
  ManualClock clock;
  LocalizationService service{test_config()};
  Server server;

  ConnectionRig() : server(service, options(clock)) {
    service.add_field("default", make_field());
  }

  static Server::Options options(ManualClock& clock) {
    Server::Options options;
    options.workers = 0;
    options.max_batch = 8;
    options.clock_ms = clock.fn();
    return options;
  }

  std::shared_ptr<Connection> connect(Connection::Limits limits,
                                      std::function<void()> wake = {}) {
    return std::make_shared<Connection>(1, server, limits, std::move(wake));
  }
};

std::vector<Response> decode_responses(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  std::vector<Response> responses;
  while (const auto payload = decoder.next()) {
    const auto response = parse_response(*payload);
    EXPECT_TRUE(response.has_value());
    if (response) responses.push_back(*response);
  }
  return responses;
}

TEST(Connection, ReleasesRepliesInTicketOrderAcrossOutOfOrderCompletion) {
  ConnectionRig rig;
  Connection::Limits limits;
  limits.max_inflight = 1;
  const auto conn = rig.connect(limits);

  // Two frames in one chunk: the first takes ticket 0 and parks in the
  // manual server's queue; the second exceeds the cap and is shed — its
  // `overloaded` reply completes ticket 1 *immediately*, out of order.
  conn->on_bytes(request_frame(1) + request_frame(2));
  EXPECT_EQ(conn->in_flight(), 1u);
  // Ticket 1 is done but ticket 0 is not: nothing may be released yet.
  EXPECT_FALSE(conn->has_writable());
  EXPECT_FALSE(conn->drained());

  rig.server.pump();  // completes ticket 0
  ASSERT_TRUE(conn->has_writable());
  std::string out;
  conn->fetch_writable(out);
  const std::vector<Response> responses = decode_responses(out);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].seq, 1u);
  EXPECT_EQ(responses[0].status, Status::kOk);
  EXPECT_EQ(responses[1].seq, 2u);
  EXPECT_EQ(responses[1].status, Status::kOverloaded);

  // Shedding went through the server: the accounting identity holds.
  EXPECT_EQ(rig.service.metrics().shed(Status::kOverloaded), 1u);
  EXPECT_EQ(rig.service.metrics().submitted(),
            rig.service.metrics().completed() +
                rig.service.metrics().shed_total());

  EXPECT_FALSE(conn->drained());  // bytes fetched but not yet acknowledged
  conn->wrote(out.size());
  EXPECT_TRUE(conn->drained());
}

TEST(Connection, CorruptFramingAnswersBadRequestAfterPendingReplies) {
  ConnectionRig rig;
  const auto conn = rig.connect({});

  conn->on_bytes(request_frame(1));
  conn->on_bytes("this is not a frame\n");
  EXPECT_TRUE(conn->corrupt());
  EXPECT_FALSE(conn->want_read());  // unsyncable: stop reading immediately

  rig.server.pump();
  std::string out;
  conn->fetch_writable(out);
  const std::vector<Response> responses = decode_responses(out);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, Status::kOk);  // ordered before the error
  EXPECT_EQ(responses[1].status, Status::kBadRequest);
  conn->wrote(out.size());
  EXPECT_TRUE(conn->drained());
}

TEST(Connection, WriteWatermarksPauseAndResumeReading) {
  ConnectionRig rig;
  Connection::Limits limits;
  limits.write_high_watermark = 1;  // any backlog pauses reading
  limits.write_low_watermark = 0;   // resume only when fully acknowledged
  const auto conn = rig.connect(limits);

  conn->on_bytes(request_frame(1));
  EXPECT_TRUE(conn->want_read());  // nothing written yet
  rig.server.pump();
  EXPECT_GT(conn->outstanding_write_bytes(), 1u);
  EXPECT_FALSE(conn->want_read());  // above the high watermark

  std::string out;
  conn->fetch_writable(out);
  // Fetching hands bytes to the transport but they still count against the
  // watermark until the socket accepts them.
  EXPECT_FALSE(conn->want_read());
  conn->wrote(out.size() - 1);
  EXPECT_FALSE(conn->want_read());  // one unacknowledged byte > low mark
  conn->wrote(1);
  EXPECT_TRUE(conn->want_read());
  EXPECT_EQ(conn->outstanding_write_bytes(), 0u);
}

TEST(Connection, WakeFiresOnlyOnEmptyToNonEmptyTransition) {
  ConnectionRig rig;
  int wakes = 0;
  const auto conn = rig.connect({}, [&wakes] { ++wakes; });

  conn->on_bytes(request_frame(1) + request_frame(2));
  EXPECT_EQ(wakes, 0);
  rig.server.pump();
  // Two replies landed back-to-back; only the first found the buffer empty.
  EXPECT_EQ(wakes, 1);

  std::string out;
  conn->fetch_writable(out);
  conn->wrote(out.size());
  conn->on_bytes(request_frame(3));
  rig.server.pump();
  EXPECT_EQ(wakes, 2);
}

TEST(Connection, DisarmedWakeMakesLateCompletionsHarmless) {
  ConnectionRig rig;
  int wakes = 0;
  auto conn = rig.connect({}, [&wakes] { ++wakes; });

  conn->on_bytes(request_frame(1));
  // The transport tears the connection down while the request is still
  // queued in the server — exactly what happens when a socket dies first.
  conn->disarm_wake();
  const std::weak_ptr<Connection> probe = conn;
  conn.reset();
  EXPECT_FALSE(probe.expired());  // the queued reply callback keeps it alive

  rig.server.pump();  // completes into the orphan: no wake, no crash
  EXPECT_EQ(wakes, 0);
  EXPECT_TRUE(probe.expired());  // the last reference died with the reply
  EXPECT_EQ(rig.service.metrics().submitted(),
            rig.service.metrics().completed() +
                rig.service.metrics().shed_total());
}

TEST(Connection, TeardownWithReplyParkedBehindUnreleasedTicketIsOrphaned) {
  // The ordered-release orphan path: ticket 1 has already completed into
  // the ready map (parked behind unanswered ticket 0) when the transport
  // tears the connection down. The parked reply must not pin the
  // connection forever, and ticket 0's late completion must release both
  // tickets into the orphan without touching freed transport state.
  ConnectionRig rig;
  int wakes = 0;
  Connection::Limits limits;
  limits.max_inflight = 1;
  auto conn = rig.connect(limits, [&wakes] { ++wakes; });

  // Frame 1 takes ticket 0 and parks in the manual server; frame 2 exceeds
  // the in-flight cap and its `overloaded` reply completes ticket 1
  // immediately — out of order, so it waits in the ready map.
  conn->on_bytes(request_frame(1) + request_frame(2));
  EXPECT_EQ(conn->in_flight(), 1u);
  EXPECT_FALSE(conn->has_writable());

  // Socket dies now: one ticket done-but-unreleased, one still queued.
  conn->disarm_wake();
  const std::weak_ptr<Connection> probe = conn;
  conn.reset();
  EXPECT_FALSE(probe.expired())
      << "ticket 0's queued reply callback must keep the orphan alive";

  rig.server.pump();  // ticket 0 completes, releasing both into the orphan
  EXPECT_EQ(wakes, 0);
  EXPECT_TRUE(probe.expired())
      << "releasing the parked ticket must not leak the connection";
  EXPECT_EQ(rig.service.metrics().submitted(),
            rig.service.metrics().completed() +
                rig.service.metrics().shed_total());
}

// ---- the epoll ServerTransport over real sockets ------------------------

TEST(TransportKindTest, NamesRoundTrip) {
  EXPECT_EQ(transport_kind_from_name("epoll"), TransportKind::kEpoll);
  EXPECT_STREQ(transport_kind_name(TransportKind::kEpoll), "epoll");
  // epoll is the only transport: the removed thread-per-connection name
  // no longer parses.
  EXPECT_FALSE(transport_kind_from_name("threaded").has_value());
  EXPECT_FALSE(transport_kind_from_name("iocp").has_value());
}

struct EpollFixture {
  explicit EpollFixture(TransportOptions options = shard_options())
      : service(test_config()), server(service, server_options()) {
    service.add_field("default", make_field());
    transport = make_server_transport(TransportKind::kEpoll, server, options);
    transport->start();
  }
  ~EpollFixture() {
    transport->stop();
    server.shutdown();
  }

  static Server::Options server_options() {
    Server::Options options;
    options.workers = 2;
    options.max_batch = 8;
    return options;
  }

  static TransportOptions shard_options() {
    TransportOptions options;
    options.event_shards = 2;
    return options;
  }

  LocalizationService service;
  Server server;
  std::unique_ptr<ServerTransport> transport;
};

TEST(EpollTransport, EphemeralPortRoundTrip) {
  EpollFixture fixture;
  ASSERT_NE(fixture.transport->port(), 0);

  TcpClientTransport client("127.0.0.1", fixture.transport->port());
  const Response response = client.roundtrip(localize_request(7));
  EXPECT_EQ(response.seq, 7u);
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  ASSERT_EQ(response.estimates.size(), 1u);
}

TEST(EpollTransport, PipelinedRequestsFlushInOrder) {
  EpollFixture fixture;
  TcpClientTransport client("127.0.0.1", fixture.transport->port());
  std::vector<std::uint64_t> seqs;
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    client.send_async(localize_request(seq), [&seqs](std::string frame) {
      FrameDecoder decoder;
      decoder.feed(frame);
      const auto payload = decoder.next();
      ASSERT_TRUE(payload.has_value());
      const auto response = parse_response(*payload);
      ASSERT_TRUE(response.has_value());
      EXPECT_EQ(response->status, Status::kOk);
      seqs.push_back(response->seq);
    });
  }
  client.flush();
  ASSERT_EQ(seqs.size(), 10u);
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    EXPECT_EQ(seqs[seq - 1], seq);
  }
}

TEST(EpollTransport, ConcurrentConnectionsAcrossShards) {
  EpollFixture fixture;
  constexpr int kClients = 8;  // round-robins across both shards
  constexpr int kPerClient = 5;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&fixture, &ok] {
      TcpClientTransport client("127.0.0.1", fixture.transport->port());
      for (int i = 0; i < kPerClient; ++i) {
        const Response response =
            client.roundtrip(localize_request(static_cast<std::uint64_t>(i)));
        if (response.status == Status::kOk) ++ok;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(fixture.transport->connections_accepted(),
            static_cast<std::uint64_t>(kClients));
}

TEST(EpollTransport, MalformedFrameGetsBadRequestAndClose) {
  // An idle budget far above the wait below, so only the corrupt frame
  // can close the connection in time.
  TransportOptions options = EpollFixture::shard_options();
  options.read_timeout_s = 60.0;
  EpollFixture fixture(options);
  TcpClientTransport client("127.0.0.1", fixture.transport->port());
  client.send_raw("garbage that is not a frame\n");
  const auto response = parse_response(client.read_payload());
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kBadRequest);
  // The close follows the reply on the wire: wait for it instead of
  // sampling the socket once, which can run before the FIN arrives.
  bool closed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    closed = client.closed_by_peer();
    if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(closed);
}

TEST(EpollTransport, IdleConnectionTimesOut) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service, EpollFixture::server_options());
  TransportOptions options;
  options.read_timeout_s = 0.2;
  const auto transport =
      make_server_transport(TransportKind::kEpoll, server, options);
  transport->start();
  {
    TcpClientTransport client("127.0.0.1", transport->port());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool closed = false;
    while (std::chrono::steady_clock::now() < deadline && !closed) {
      closed = client.closed_by_peer();
      if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(closed);
  }
  transport->stop();
  server.shutdown();
}

TEST(EpollTransport, OpenConnectionGaugeFallsToZeroWhenClientsLeave) {
  EpollFixture fixture;
  {
    std::vector<std::unique_ptr<TcpClientTransport>> clients;
    for (int c = 0; c < 3; ++c) {
      clients.push_back(std::make_unique<TcpClientTransport>(
          "127.0.0.1", fixture.transport->port()));
      EXPECT_EQ(clients.back()->roundtrip(localize_request(1)).status,
                Status::kOk);
    }
    EXPECT_EQ(fixture.transport->open_connections(), 3u);
  }
  // All client sockets closed: the gauge must reach zero without stop().
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fixture.transport->open_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.transport->open_connections(), 0u);
  EXPECT_EQ(fixture.transport->connections_accepted(), 3u);
}

// ---- the write path over real sockets ----------------------------------
//
// Replies leave from whichever thread completes them; these pin what that
// moves between threads: a send that hits EAGAIN hands the rest to the
// loop's EPOLLOUT, the 1 MiB high watermark stops reading until the peer
// drains, and a close never races a completer.

/// An `error-at` over `points` lattice nodes of the 60 m test field: about
/// 12 request bytes and 25 reply bytes per point.
Request error_at_lattice(std::uint64_t seq, std::size_t points) {
  Request request;
  request.seq = seq;
  request.endpoint = Endpoint::kErrorAt;
  request.points.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    request.points.push_back({static_cast<double>(i % 60),
                              static_cast<double>(i / 60 % 60)});
  }
  return request;
}

/// 24 replies of 12000 errors, about 7 MB: more than both loopback socket
/// buffers hold (about 4 MB under Linux's default `tcp_wmem`) plus the 1 MiB
/// high watermark. The 3.5 MB of requests fit in the client's send buffer
/// even if the server reads none of them, so a client can send them all
/// before reading.
constexpr std::uint64_t kBigReplies = 24;
constexpr std::size_t kBigReplyPoints = 12000;

std::string big_reply_burst() {
  std::string burst;
  for (std::uint64_t seq = 1; seq <= kBigReplies; ++seq) {
    burst += encode_frame(
        format_request(error_at_lattice(seq, kBigReplyPoints)));
  }
  return burst;
}

void expect_big_replies(TcpClientTransport& client) {
  for (std::uint64_t seq = 1; seq <= kBigReplies; ++seq) {
    const auto response = parse_response(client.read_payload());
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->seq, seq);
    ASSERT_EQ(response->status, Status::kOk) << response->message;
    EXPECT_EQ(response->errors.size(), kBigReplyPoints);
  }
}

/// Wait until the server has answered everything it accepted and accepted
/// nothing new for 300 ms; returns the submitted count then.
std::uint64_t wait_until_settled(LocalizationService& service) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t seen = service.metrics().submitted();
  auto stable_since = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::uint64_t now = service.metrics().submitted();
    const bool answered =
        now == service.metrics().completed() + service.metrics().shed_total();
    if (now != seen || !answered) {
      seen = now;
      stable_since = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - stable_since >=
               std::chrono::milliseconds(300)) {
      break;
    }
  }
  return seen;
}

TEST(EpollTransport, RepliesPastTheSocketBufferArriveWholeAndInOrder) {
  EpollFixture fixture;
  TcpClientTransport client("127.0.0.1", fixture.transport->port(), 10.0);
  client.send_raw(big_reply_burst());  // everything sent before any read
  expect_big_replies(client);
  EXPECT_EQ(client.roundtrip(localize_request(99)).status, Status::kOk);
}

TEST(EpollTransport, UnreadRepliesPastTheHighWatermarkStopReadingUntilDrained) {
  EpollFixture fixture;
  TcpClientTransport client("127.0.0.1", fixture.transport->port(), 10.0);
  client.send_raw(big_reply_burst());
  const std::uint64_t accepted = wait_until_settled(fixture.service);
  ASSERT_GT(accepted, 0u);

  // The backlog stands above the high watermark: later requests stay in
  // the socket, unread and unsubmitted.
  std::string later;
  for (std::uint64_t seq = 101; seq <= 104; ++seq) later += request_frame(seq);
  client.send_raw(later);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(fixture.service.metrics().submitted(), accepted);

  // Draining the backlog resumes reading: everything is served, in order.
  expect_big_replies(client);
  for (std::uint64_t seq = 101; seq <= 104; ++seq) {
    const auto response = parse_response(client.read_payload());
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->seq, seq);
    EXPECT_EQ(response->status, Status::kOk);
  }
  EXPECT_EQ(fixture.service.metrics().submitted(), kBigReplies + 4);
}

TEST(EpollTransport, HangupsWithRepliesInFlightLeaveNoOpenConnections) {
  EpollFixture fixture;
  {
    std::vector<std::unique_ptr<TcpClientTransport>> clients;
    for (std::uint64_t c = 0; c < 4; ++c) {
      clients.push_back(std::make_unique<TcpClientTransport>(
          "127.0.0.1", fixture.transport->port()));
      std::string burst;
      for (std::uint64_t seq = 1; seq <= 4; ++seq) {
        burst += request_frame(seq);
        burst += encode_frame(format_request(error_at_lattice(seq, 4000)));
      }
      clients.back()->send_raw(burst);
    }
  }  // every client hangs up without reading a reply
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fixture.transport->open_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fixture.transport->open_connections(), 0u);
  wait_until_settled(fixture.service);
  EXPECT_EQ(fixture.service.metrics().submitted(),
            fixture.service.metrics().completed() +
                fixture.service.metrics().shed_total());

  TcpClientTransport later("127.0.0.1", fixture.transport->port());
  EXPECT_EQ(later.roundtrip(localize_request(7)).status, Status::kOk);
}

TEST(EpollTransport, StopIsIdempotentAndDisconnectsClients) {
  EpollFixture fixture;
  TcpClientTransport client("127.0.0.1", fixture.transport->port());
  EXPECT_EQ(client.roundtrip(localize_request(1)).status, Status::kOk);
  fixture.transport->stop();
  fixture.transport->stop();
  EXPECT_EQ(fixture.transport->open_connections(), 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool closed = false;
  while (std::chrono::steady_clock::now() < deadline && !closed) {
    closed = client.closed_by_peer();
    if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(closed);
}

}  // namespace
}  // namespace abp::serve
