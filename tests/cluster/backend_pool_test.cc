#include "cluster/backend_pool.h"

#include <gtest/gtest.h>

#include <future>

#include "cluster/ring.h"
#include "serve/fault_transport.h"
#include "cluster_harness.h"

namespace abp::cluster {
namespace {

serve::Request stats_request(std::uint64_t seq = 1) {
  serve::Request request;
  request.seq = seq;
  request.endpoint = serve::Endpoint::kStats;
  return request;
}

TEST(BackendPool, ForwardDeliversDecodedPayload) {
  ClusterSim cluster({"b1"});
  auto done = std::make_shared<std::promise<std::string>>();
  auto future = done->get_future();
  BackendPool::Forward forward;
  forward.request = stats_request(7);
  forward.on_reply = [done](std::string payload) {
    done->set_value(std::move(payload));
  };
  forward.on_failure = [] { FAIL() << "unexpected failure"; };
  ASSERT_TRUE(cluster.pool->enqueue("b1", std::move(forward)));
  const std::string payload = future.get();
  // The pool strips framing: the callback sees a parseable payload.
  const auto response = serve::parse_response(payload);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->seq, 7u);
  EXPECT_EQ(response->status, serve::Status::kOk);
}

TEST(BackendPool, RepliesComeBackInEnqueueOrder) {
  ClusterSim cluster({"b1"});
  std::mutex mu;
  std::vector<std::uint64_t> order;
  auto done = std::make_shared<std::promise<void>>();
  constexpr std::uint64_t kCount = 8;
  for (std::uint64_t seq = 1; seq <= kCount; ++seq) {
    BackendPool::Forward forward;
    forward.request = stats_request(seq);
    forward.on_reply = [&, done](std::string payload) {
      const auto response = serve::parse_response(payload);
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(response ? response->seq : 0);
      if (order.size() == kCount) done->set_value();
    };
    forward.on_failure = [] { FAIL() << "unexpected failure"; };
    ASSERT_TRUE(cluster.pool->enqueue("b1", std::move(forward)));
  }
  done->get_future().get();
  for (std::uint64_t seq = 1; seq <= kCount; ++seq) {
    EXPECT_EQ(order[seq - 1], seq);
  }
}

TEST(BackendPool, UnknownBackendIsRefused) {
  ClusterSim cluster({"b1"});
  BackendPool::Forward forward;
  forward.request = stats_request();
  EXPECT_FALSE(cluster.pool->enqueue("nope", std::move(forward)));
}

TEST(BackendPool, BreakerTripsAfterConsecutiveFailures) {
  BackendPoolOptions options;
  options.failure_threshold = 3;
  ClusterSim cluster({"b1"}, 1, options);
  cluster.sim("b1").dead = true;

  for (int i = 0; i < 3; ++i) {
    auto failed = std::make_shared<std::promise<void>>();
    auto future = failed->get_future();
    BackendPool::Forward forward;
    forward.request = stats_request();
    forward.on_reply = [](std::string) { FAIL() << "unexpected reply"; };
    forward.on_failure = [failed] { failed->set_value(); };
    ASSERT_TRUE(cluster.pool->enqueue("b1", std::move(forward)))
        << "attempt " << i << " should be admitted before the breaker trips";
    future.get();
    // Wait until the worker has recorded the failure before the next try.
    ASSERT_TRUE(wait_until([&] {
      return cluster.metrics.backend_snapshot("b1").transport_failures >=
             static_cast<std::uint64_t>(i + 1);
    }));
  }

  ASSERT_TRUE(wait_until(
      [&] { return cluster.pool->health("b1") == BackendHealth::kOpen; }));
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").marked_down, 1u);
  // Open breaker refuses without consuming callbacks.
  BackendPool::Forward forward;
  forward.request = stats_request();
  EXPECT_FALSE(cluster.pool->enqueue("b1", std::move(forward)));
}

TEST(BackendPool, ProbeRecoveryClosesBreakerAndFiresCallback) {
  serve::ManualClock clock;
  BackendPoolOptions options;
  options.failure_threshold = 1;
  options.probe_interval_ms = 100.0;
  options.clock_ms = clock.fn();

  serve::RouterMetrics metrics;
  metrics.add_backend("b1");
  BackendSim sim;
  std::mutex recovered_mu;
  std::vector<std::string> recovered;
  BackendPool pool(
      {"b1"}, options, metrics, [&sim](const std::string&) {
        return std::make_unique<SwitchableTransport>(sim.server, sim.dead,
                                                     sim.wire);
      });
  pool.set_recovery_callback([&](const std::string& backend) {
    std::lock_guard<std::mutex> lock(recovered_mu);
    recovered.push_back(backend);
  });
  pool.start();

  // Trip the breaker with one failure (threshold 1).
  sim.dead = true;
  auto failed = std::make_shared<std::promise<void>>();
  BackendPool::Forward forward;
  forward.request = stats_request();
  forward.on_failure = [failed] { failed->set_value(); };
  ASSERT_TRUE(pool.enqueue("b1", std::move(forward)));
  failed->get_future().get();
  ASSERT_TRUE(
      wait_until([&] { return pool.health("b1") == BackendHealth::kOpen; }));

  // Dead probe keeps it open.
  clock.advance(150.0);
  pool.tick();
  ASSERT_TRUE(wait_until(
      [&] { return metrics.backend_snapshot("b1").probe_failures >= 1; }));
  EXPECT_EQ(pool.health("b1"), BackendHealth::kOpen);

  // Revive; the next due probe closes the breaker and fires the recovery
  // callback.
  sim.dead = false;
  clock.advance(150.0);
  pool.tick();
  ASSERT_TRUE(wait_until(
      [&] { return pool.health("b1") == BackendHealth::kClosed; }));
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard<std::mutex> lock(recovered_mu);
    return recovered.size() == 1;
  }));
  EXPECT_EQ(recovered[0], "b1");
  EXPECT_EQ(metrics.backend_snapshot("b1").recovered, 1u);
  pool.stop();
}

TEST(BackendPool, StopFailsQueuedWork) {
  ClusterSim cluster({"b1"});
  // Kill the backend so a forward fails over to the queue-drain path or the
  // failure path — either way the callback must fire exactly once.
  cluster.sim("b1").dead = true;
  auto failed = std::make_shared<std::promise<void>>();
  BackendPool::Forward forward;
  forward.request = stats_request();
  forward.on_reply = [](std::string) { FAIL() << "unexpected reply"; };
  forward.on_failure = [failed] { failed->set_value(); };
  ASSERT_TRUE(cluster.pool->enqueue("b1", std::move(forward)));
  failed->get_future().get();
  cluster.pool->stop();
  // Enqueue after stop is refused.
  BackendPool::Forward late;
  late.request = stats_request();
  EXPECT_FALSE(cluster.pool->enqueue("b1", std::move(late)));
}

TEST(BackendPoolAddress, ParsesHostPort) {
  const auto [host, port] = parse_backend_address("127.0.0.1:8080");
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
}

TEST(BackendPoolAddress, RejectsMalformedAddresses) {
  EXPECT_THROW(parse_backend_address("nohost"), serve::ServeError);
  EXPECT_THROW(parse_backend_address(":8080"), serve::ServeError);
  EXPECT_THROW(parse_backend_address("host:"), serve::ServeError);
  EXPECT_THROW(parse_backend_address("host:0"), serve::ServeError);
  EXPECT_THROW(parse_backend_address("host:99999"), serve::ServeError);
  EXPECT_THROW(parse_backend_address("host:12x"), serve::ServeError);
}

TEST(BackendPoolHealth, NamesAreStable) {
  EXPECT_STREQ(backend_health_name(BackendHealth::kClosed), "closed");
  EXPECT_STREQ(backend_health_name(BackendHealth::kProbing), "probing");
  EXPECT_STREQ(backend_health_name(BackendHealth::kOpen), "open");
}

}  // namespace
}  // namespace abp::cluster
