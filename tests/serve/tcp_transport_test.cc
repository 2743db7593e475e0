#include "serve/tcp_transport.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "serve/server.h"

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

Request localize_request(std::uint64_t seq, Vec2 point) {
  Request request;
  request.seq = seq;
  request.endpoint = Endpoint::kLocalize;
  request.points = {point};
  return request;
}

struct TcpFixture {
  explicit TcpFixture(TcpServerTransport::Options options = {})
      : service(test_config()), server(service, server_options()) {
    service.add_field("default", make_field());
    transport = std::make_unique<TcpServerTransport>(server, options);
    transport->start();
  }
  ~TcpFixture() {
    transport->stop();
    server.shutdown();
  }

  static Server::Options server_options() {
    Server::Options options;
    options.workers = 2;
    options.max_batch = 8;
    return options;
  }

  LocalizationService service;
  Server server;
  std::unique_ptr<TcpServerTransport> transport;
};

TEST(TcpTransport, EphemeralPortRoundTrip) {
  TcpFixture fixture;
  ASSERT_NE(fixture.transport->port(), 0);

  TcpClientTransport client("127.0.0.1", fixture.transport->port());
  const Response response = client.roundtrip(localize_request(7, {12, 12}));
  EXPECT_EQ(response.seq, 7u);
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  ASSERT_EQ(response.estimates.size(), 1u);
  EXPECT_GT(response.estimates[0].connected, 0u);
}

TEST(TcpTransport, PipelinedRequestsOnOneConnection) {
  TcpFixture fixture;
  TcpClientTransport client("127.0.0.1", fixture.transport->port());
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    const Response response =
        client.roundtrip(localize_request(seq, {12, 12}));
    EXPECT_EQ(response.seq, seq);
    EXPECT_EQ(response.status, Status::kOk);
  }
}

TEST(TcpTransport, ConcurrentConnections) {
  TcpFixture fixture;
  constexpr int kClients = 4;
  constexpr int kPerClient = 10;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      TcpClientTransport client("127.0.0.1", fixture.transport->port());
      for (int i = 0; i < kPerClient; ++i) {
        const Response response = client.roundtrip(
            localize_request(static_cast<std::uint64_t>(i), {12, 12}));
        if (response.status == Status::kOk) ++ok;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
}

TEST(TcpTransport, MalformedFrameGetsBadRequestAndClose) {
  // An idle budget far above the wait below, so only the corrupt frame
  // can close the connection in time.
  TcpServerTransport::Options options;
  options.read_timeout_s = 60.0;
  TcpFixture fixture(options);
  TcpClientTransport client("127.0.0.1", fixture.transport->port());
  client.send_raw("garbage that is not a frame\n");
  const std::string payload = client.read_payload();
  const auto response = parse_response(payload);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kBadRequest);
  // The server cannot resynchronize a corrupt byte stream — it must close.
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

TEST(TcpTransport, ReadTimeoutClosesIdleConnection) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service, TcpFixture::server_options());
  TcpServerTransport::Options options;
  options.read_timeout_s = 0.2;
  TcpServerTransport transport(server, options);
  transport.start();
  {
    TcpClientTransport client("127.0.0.1", transport.port());
    // Send nothing; within ~1s the idle budget expires and the server
    // closes the connection.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool closed = false;
    while (std::chrono::steady_clock::now() < deadline) {
      if (client.closed_by_peer()) {
        closed = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(closed);
  }
  transport.stop();
  server.shutdown();
}

TEST(TcpTransport, StopIsIdempotentAndDisconnectsClients) {
  TcpFixture fixture;
  TcpClientTransport client("127.0.0.1", fixture.transport->port());
  const Response response = client.roundtrip(localize_request(1, {12, 12}));
  EXPECT_EQ(response.status, Status::kOk);
  fixture.transport->stop();
  fixture.transport->stop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (client.closed_by_peer()) {
      closed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(closed);
}

}  // namespace
}  // namespace abp::serve
