/// `RouterConfig`: the parse-and-validate path behind `abp route`, and
/// what its default transport options serve.
#include "cluster/config.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/assert.h"
#include "serve/tcp_transport.h"
#include "cluster_harness.h"

namespace abp::cluster {
namespace {

RouterConfig router_from(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"abp"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const Flags flags(static_cast<int>(argv.size()), argv.data());
  return RouterConfig::from_flags(flags);
}

TEST(RouterConfig, DefaultTransportServesEveryConnection) {
  // `abp route --backend H:P --field f` as parsed. The connection ceiling
  // lives in the transport options, not in the sink, so a manual-mode
  // server stands in for the router behind them.
  const RouterConfig config =
      router_from({"--backend", "127.0.0.1:9", "--field", "f"});
  EXPECT_EQ(config.transport, serve::TransportKind::kEpoll);
  serve::LocalizationService service(harness_service_config());
  service.add_field(config.name, harness_field());
  serve::Server server(service);
  const auto transport = serve::make_server_transport(
      config.transport, server, config.transport_options());
  transport->start();

  std::vector<std::unique_ptr<serve::TcpClientTransport>> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<serve::TcpClientTransport>(
        "127.0.0.1", transport->port(), 2.0));
  }
  serve::Request request;
  request.endpoint = serve::Endpoint::kLocalize;
  request.points = {{12, 12}};
  // Last-opened first: a transport that served only its earliest
  // connections would leave this one waiting past the timeout.
  for (std::size_t i = clients.size(); i-- > 0;) {
    request.seq = i + 1;
    EXPECT_EQ(clients[i]->roundtrip(request).status, serve::Status::kOk)
        << "connection " << i + 1;
  }
  transport->stop();
  server.shutdown();
}

TEST(RouterConfig, RejectsTheRemovedThreadedTransport) {
  EXPECT_THROW(router_from({"--backend", "127.0.0.1:9", "--field", "f",
                            "--transport", "threaded"}),
               CheckFailure);
  EXPECT_EQ(router_from({"--backend", "127.0.0.1:9", "--field", "f",
                         "--transport", "epoll", "--event-shards", "2"})
                .event_shards,
            2u);
}

}  // namespace
}  // namespace abp::cluster
