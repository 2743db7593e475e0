/// `ServeConfig`/`QueryConfig`: the single parse-and-validate path behind
/// `abp serve` and `abp query`. Every test goes through `from_flags` with a
/// synthetic argv, exactly like the CLI, so flag spelling, defaults and
/// rejection diagnostics are all pinned here.
#include "serve/config.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "serve/tcp_transport.h"

namespace abp::serve {
namespace {

Flags make_flags(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"abp"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

ServeConfig serve_from(const std::vector<std::string>& args) {
  const Flags flags = make_flags(args);
  return ServeConfig::from_flags(flags);
}

QueryConfig query_from(const std::vector<std::string>& args) {
  const Flags flags = make_flags(args);
  return QueryConfig::from_flags(flags);
}

TEST(ServeConfig, DefaultsMatchTheLegacyFlagSurface) {
  const ServeConfig config = serve_from({"--field", "field.txt"});
  EXPECT_EQ(config.field_path, "field.txt");
  EXPECT_EQ(config.name, "default");
  EXPECT_EQ(config.workers, 0u);
  EXPECT_EQ(config.batch, 16u);
  EXPECT_EQ(config.max_queue, 0u);
  EXPECT_EQ(config.max_inflight, 0u);
  EXPECT_EQ(config.retry_after_hint_ms, 0u);
  EXPECT_EQ(config.transport, TransportKind::kEpoll);
  EXPECT_EQ(config.port, 0);
  EXPECT_EQ(config.event_shards, 1u);
  EXPECT_FALSE(config.oneshot);
  // The thread-per-connection transport is gone: naming it fails at parse
  // time with a diagnostic that names the one transport left.
  try {
    serve_from({"--field", "field.txt", "--transport", "threaded"});
    ADD_FAILURE() << "--transport threaded must be rejected";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("epoll is the only transport"),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeConfig, ParsesTheTransportRedesignFlags) {
  const ServeConfig config = serve_from(
      {"--field", "field.txt", "--transport", "epoll", "--event-shards", "4",
       "--retry-after-ms", "40", "--read-timeout-s", "12.5",
       "--write-timeout-s", "2.5", "--max-inflight", "8"});
  EXPECT_EQ(config.transport, TransportKind::kEpoll);
  EXPECT_EQ(config.event_shards, 4u);
  EXPECT_EQ(config.retry_after_hint_ms, 40u);
  EXPECT_DOUBLE_EQ(config.read_timeout_s, 12.5);
  EXPECT_DOUBLE_EQ(config.write_timeout_s, 2.5);
  EXPECT_EQ(config.max_inflight, 8u);
}

TEST(ServeConfig, ProjectsOntoEngineAndTransportOptions) {
  const ServeConfig config = serve_from(
      {"--field", "f", "--workers", "3", "--batch", "32", "--max-queue",
       "128", "--retry-after-ms", "25", "--transport", "epoll",
       "--event-shards", "2", "--port", "9000"});
  const Server::Options server = config.server_options();
  EXPECT_EQ(server.workers, 3u);
  EXPECT_EQ(server.max_batch, 32u);
  EXPECT_EQ(server.max_queue, 128u);
  EXPECT_EQ(server.retry_after_hint_ms, 25u);
  const TransportOptions transport = config.transport_options();
  EXPECT_EQ(transport.port, 9000);
  EXPECT_EQ(transport.event_shards, 2u);
}

TEST(ServeConfig, RejectsInvalidCombinations) {
  // No field at all.
  EXPECT_THROW(serve_from({}), CheckFailure);
  // Unknown transport name.
  EXPECT_THROW(serve_from({"--field", "f", "--transport", "iocp"}),
               CheckFailure);
  // One-shot needs an input and cannot also listen.
  EXPECT_THROW(serve_from({"--field", "f", "--oneshot", "true"}),
               CheckFailure);
  EXPECT_THROW(serve_from({"--field", "f", "--oneshot", "true", "--in",
                           "frames.bin", "--port", "9000"}),
               CheckFailure);
  // --in/--out are one-shot-only.
  EXPECT_THROW(serve_from({"--field", "f", "--in", "frames.bin"}),
               CheckFailure);
  // Degenerate engine values.
  EXPECT_THROW(serve_from({"--field", "f", "--batch", "0"}), CheckFailure);
  EXPECT_THROW(serve_from({"--field", "f", "--read-timeout-s", "0"}),
               CheckFailure);
  EXPECT_THROW(serve_from({"--field", "f", "--workers", "-1"}),
               CheckFailure);
}

TEST(ServeConfig, EpollWithMultipleShardsValidates) {
  const ServeConfig config = serve_from(
      {"--field", "f", "--transport", "epoll", "--event-shards", "8"});
  config.validate();  // directly constructed configs re-check the same way
  EXPECT_EQ(config.event_shards, 8u);
  // Sharding needs no --transport: epoll is the default.
  EXPECT_EQ(serve_from({"--field", "f", "--event-shards", "2"}).event_shards,
            2u);
}

TEST(ServeConfig, DefaultTransportServesEveryConnection) {
  // `abp serve --field f` as parsed: a manual-mode server behind the
  // default transport. Every client is served while all of them stay
  // connected, not just as many as some connection pool has slots for.
  const ServeConfig config = serve_from({"--field", "f"});
  LocalizationService service(config.service_config());
  BeaconField field(AABB({0, 0}, {60, 60}));
  field.add({10, 10});
  field.add({30, 10});
  service.add_field(config.name, std::move(field));
  Server server(service, config.server_options());
  const auto transport = make_server_transport(config.transport, server,
                                               config.transport_options());
  transport->start();

  std::vector<std::unique_ptr<TcpClientTransport>> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<TcpClientTransport>(
        "127.0.0.1", transport->port(), 2.0));
  }
  Request request;
  request.endpoint = Endpoint::kLocalize;
  request.points = {{12, 12}};
  // Last-opened first: a transport that served only its earliest
  // connections would leave this one waiting past the timeout.
  for (std::size_t i = clients.size(); i-- > 0;) {
    request.seq = i + 1;
    EXPECT_EQ(clients[i]->roundtrip(request).status, Status::kOk)
        << "connection " << i + 1;
  }
  transport->stop();
  server.shutdown();
}

TEST(ServeConfig, QuotaFlagsProjectOntoServerOptions) {
  const ServeConfig config = serve_from(
      {"--field", "f", "--quota-rps", "5", "--quota-burst", "20"});
  EXPECT_DOUBLE_EQ(config.quota_rps, 5.0);
  EXPECT_DOUBLE_EQ(config.quota_burst, 20.0);
  const Server::Options server = config.server_options();
  EXPECT_TRUE(server.quota.enabled());
  EXPECT_DOUBLE_EQ(server.quota.rps, 5.0);
  EXPECT_DOUBLE_EQ(server.quota.capacity(), 20.0);
  // Quotas default off.
  EXPECT_FALSE(serve_from({"--field", "f"}).server_options().quota.enabled());
}

TEST(ServeConfig, RejectsDegenerateQuotaValues) {
  EXPECT_THROW(serve_from({"--field", "f", "--quota-rps", "-1"}),
               CheckFailure);
  // Burst without a rate is meaningless — there is nothing to refill.
  EXPECT_THROW(serve_from({"--field", "f", "--quota-burst", "10"}),
               CheckFailure);
}

TEST(QueryConfig, PrincipalFlagStampsTheRequest) {
  const QueryConfig config = query_from(
      {"--field", "f", "--points", "1,2", "--principal", "42"});
  EXPECT_EQ(config.request.principal, 42u);
  // Default stays anonymous: the wire record is omitted entirely.
  const QueryConfig anon = query_from({"--field", "f", "--points", "1,2"});
  EXPECT_EQ(anon.request.principal, 0u);
  EXPECT_EQ(format_request(anon.request).find("principal"),
            std::string::npos);
}

TEST(QueryConfig, RequiresExactlyOneDestination) {
  EXPECT_THROW(query_from({}), CheckFailure);
  EXPECT_THROW(query_from({"--field", "f", "--connect", "localhost:9000"}),
               CheckFailure);
}

TEST(QueryConfig, LocalFieldModeCarriesTheRequest) {
  const QueryConfig config = query_from(
      {"--field", "f", "--type", "localize", "--points", "1,2;3,4", "--seq",
       "9"});
  EXPECT_EQ(config.mode, QueryConfig::Mode::kLocalField);
  EXPECT_EQ(config.request.endpoint, Endpoint::kLocalize);
  EXPECT_EQ(config.request.seq, 9u);
  ASSERT_EQ(config.request.points.size(), 2u);
  EXPECT_DOUBLE_EQ(config.request.points[1].x, 3.0);
  EXPECT_DOUBLE_EQ(config.request.points[1].y, 4.0);
}

TEST(QueryConfig, ConnectModeParsesHostPortAndRetryPolicy) {
  const QueryConfig config = query_from(
      {"--connect", "10.0.0.5:8125", "--retries", "6", "--backoff-ms", "50",
       "--budget-ms", "900"});
  EXPECT_EQ(config.mode, QueryConfig::Mode::kConnect);
  EXPECT_EQ(config.host, "10.0.0.5");
  EXPECT_EQ(config.port, 8125);
  EXPECT_EQ(config.retry.max_attempts, 6u);
  EXPECT_DOUBLE_EQ(config.retry.base_backoff_ms, 50.0);
  EXPECT_DOUBLE_EQ(config.retry.deadline_budget_ms, 900.0);
}

TEST(QueryConfig, ConnectModeRejectsMalformedEndpoints) {
  EXPECT_THROW(query_from({"--connect", "no-port-here"}), CheckFailure);
  EXPECT_THROW(query_from({"--connect", "host:notaport"}), CheckFailure);
  EXPECT_THROW(query_from({"--connect", "host:0"}), CheckFailure);
  EXPECT_THROW(query_from({"--connect", "host:9000", "--retries", "0"}),
               CheckFailure);
}

TEST(QueryConfig, DecodeModeIgnoresRequestFlags) {
  const QueryConfig config = query_from({"--decode", "responses.bin"});
  EXPECT_EQ(config.mode, QueryConfig::Mode::kDecode);
  EXPECT_EQ(config.decode_path, "responses.bin");
}

TEST(QueryConfig, EncodeModeSupportsAppendAndCorrupt) {
  const QueryConfig config = query_from(
      {"--encode-to", "frames.bin", "--append", "true", "--corrupt", "true",
       "--points", "5,5"});
  EXPECT_EQ(config.mode, QueryConfig::Mode::kEncode);
  EXPECT_TRUE(config.append);
  EXPECT_TRUE(config.corrupt);
}

}  // namespace
}  // namespace abp::serve
