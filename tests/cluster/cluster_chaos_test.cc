/// \file cluster_chaos_test.cc
/// \brief Fault-injection suite for the cluster router (label: chaos).
///
/// Three real backends (service + manual server) sit behind
/// `FaultTransport` connections, so every fault the single-server chaos
/// suite can inject — crashed connections, lost responses, corrupt frames,
/// stalls expiring deadlines — now happens *between the router and its
/// backends*. The invariants under test:
///
///  * every routed request is answered exactly once (no lost, no
///    duplicated replies), whatever the wire does;
///  * each backend's admission identity holds after drain:
///    submitted == completed + shed;
///  * a backend crash mid-pipelined-batch fails over idempotent requests
///    to a surviving replica and the client sees clean `ok` responses;
///  * a stale backend is repaired in-band (install-then-retry) without the
///    client ever seeing `version-mismatch`.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/membership.h"
#include "cluster/replicator.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "io/field_io.h"
#include "serve/client.h"
#include "serve/fault_transport.h"
#include "serve/protocol.h"
#include "cluster_harness.h"

namespace abp::cluster {
namespace {

std::string field_text() {
  std::ostringstream out;
  write_field(out, harness_field());
  return out.str();
}

serve::Request localize_request(std::uint64_t seq) {
  serve::Request request;
  request.seq = seq;
  request.endpoint = serve::Endpoint::kLocalize;
  request.field = "default";
  request.points = {{12, 12}, {50, 50}};
  return request;
}

/// A cluster whose backend connections are `FaultTransport`s. `scripts`
/// decides the fault script per (backend, connect attempt) — reconnects
/// after a transport failure get a fresh script.
struct FaultCluster {
  using ScriptFn = std::function<serve::FaultTransport::Options(
      const std::string& backend, int connect_index)>;

  FaultCluster(std::vector<std::string> names, std::size_t replication,
               ScriptFn scripts, serve::ManualClock* clock = nullptr,
               BackendPoolOptions pool_options = {},
               std::size_t log_retain = MutationLog::kDefaultRetain)
      : backend_names(names), membership(names) {
    for (const std::string& name : names) {
      auto& backend = backends[name];
      backend.service = std::make_unique<serve::LocalizationService>(
          harness_service_config());
      serve::Server::Options server_options;
      if (clock) server_options.clock_ms = clock->fn();
      backend.server = std::make_unique<serve::Server>(*backend.service,
                                                       server_options);
    }
    pool = std::make_unique<BackendPool>(
        names, std::move(pool_options), metrics,
        [this, scripts](const std::string& name) {
          Backend& backend = backends.at(name);
          const int index = backend.connects++;
          return std::make_unique<serve::FaultTransport>(
              *backend.server, scripts(name, index));
        });
    replicator = std::make_unique<Replicator>(*pool, membership, replication,
                                              metrics, log_retain);
    pool->set_recovery_callback([this](const std::string& backend) {
      replicator->sync_backend(backend);
    });
    router = std::make_unique<Router>(membership, *pool, *replicator, metrics);
    pool->start();
    replicator->set_deployment("default", field_text());
  }

  ~FaultCluster() { pool->stop(); }

  std::string call(const serve::Request& request) {
    auto done = std::make_shared<std::promise<std::string>>();
    auto future = done->get_future();
    router->submit(serve::format_request(request),
                   [done](std::string payload) {
                     done->set_value(std::move(payload));
                   });
    return future.get();
  }

  struct Backend {
    std::unique_ptr<serve::LocalizationService> service;
    std::unique_ptr<serve::Server> server;
    int connects = 0;
  };

  std::vector<std::string> backend_names;
  MembershipTable membership;
  serve::RouterMetrics metrics;
  std::map<std::string, Backend> backends;
  std::unique_ptr<BackendPool> pool;
  std::unique_ptr<Replicator> replicator;
  std::unique_ptr<Router> router;
};

serve::FaultTransport::Options clean_script() { return {}; }

/// The backend the ring picks first for "default" — the one a fault script
/// must target to be guaranteed to fire.
std::string primary_owner(const std::vector<std::string>& names) {
  HashRing probe;
  for (const std::string& name : names) probe.add_node(name);
  return probe.owners("default", 1)[0];
}

/// Wait until `backend` is quiescent: nothing queued on its pool FIFO, no
/// pool batch in flight (one batch's reply callbacks can queue more, e.g. a
/// second repair when both the recovery callback and the test resynced),
/// and nothing queued or executing on its server. Its counters, and the
/// router's for it, are final only then: a replica's version reads current
/// as soon as the change is applied, before the reply that counts it.
bool quiesce(FaultCluster& cluster, const std::string& backend) {
  const serve::Server& server = *cluster.backends.at(backend).server;
  return wait_until(
      [&] { return backend_quiescent(*cluster.pool, backend, server); });
}

/// Per-backend admission identity, on quiescent backends:
/// submitted == completed + shed.
void expect_backends_reconcile(FaultCluster& cluster) {
  for (const auto& [name, backend] : cluster.backends) {
    EXPECT_TRUE(quiesce(cluster, name))
        << "backend " << name << " never went quiescent";
    const serve::ServiceMetrics& m = backend.service->metrics();
    EXPECT_EQ(m.submitted(), m.completed() + m.shed_total())
        << "backend " << name << " lost a request";
  }
}

TEST(ClusterChaos, BackendCrashMidBatchLosesNothing) {
  // The primary owner's first connection dies with kResetAfterSend on its
  // 4th exchange: the backend *executes* that request but the response is
  // lost, and every later request in the pipelined batch is aborted. All
  // requests are idempotent, so the router must fail them over and the
  // client must see only clean `ok` responses, exactly one per request.
  const std::string primary = primary_owner({"b1", "b2", "b3"});
  FaultCluster cluster(
      {"b1", "b2", "b3"}, /*replication=*/2,
      [primary](const std::string& backend, int connect_index) {
        serve::FaultTransport::Options options;
        if (backend == primary && connect_index == 0) {
          options.script = serve::FaultScript(
              {{serve::FaultKind::kNone},
               {serve::FaultKind::kNone},
               {serve::FaultKind::kNone},
               {serve::FaultKind::kResetAfterSend}},
              /*cycle=*/false);
        }
        return options;
      });
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  constexpr std::uint64_t kRequests = 12;
  std::map<std::uint64_t, int> replies;
  std::map<std::uint64_t, serve::Status> statuses;
  for (std::uint64_t seq = 1; seq <= kRequests; ++seq) {
    const auto response =
        serve::parse_response(cluster.call(localize_request(seq)));
    ASSERT_TRUE(response.has_value());
    replies[response->seq]++;
    statuses[response->seq] = response->status;
  }
  for (std::uint64_t seq = 1; seq <= kRequests; ++seq) {
    EXPECT_EQ(replies[seq], 1) << "seq " << seq;
    EXPECT_EQ(statuses[seq], serve::Status::kOk) << "seq " << seq;
  }
  expect_backends_reconcile(cluster);
}

TEST(ClusterChaos, PipelinedBurstThroughCrashReconciles) {
  // Same crash, but the requests are submitted concurrently so they ride
  // one pipelined batch into the crashing connection.
  FaultCluster cluster(
      {"b1", "b2", "b3"}, /*replication=*/2,
      [](const std::string& backend, int connect_index) {
        serve::FaultTransport::Options options;
        if (backend != "b2" && connect_index == 0) {
          options.script = serve::FaultScript(
              {{serve::FaultKind::kNone},
               {serve::FaultKind::kNone},
               {serve::FaultKind::kResetAfterSend}},
              /*cycle=*/false);
        }
        return options;
      });
  cluster.replicator->sync_all();

  constexpr std::uint64_t kRequests = 16;
  std::mutex mu;
  std::map<std::uint64_t, int> replies;
  std::map<std::uint64_t, serve::Status> statuses;
  auto all_done = std::make_shared<std::promise<void>>();
  std::size_t outstanding = kRequests;
  for (std::uint64_t seq = 1; seq <= kRequests; ++seq) {
    cluster.router->submit(
        serve::format_request(localize_request(seq)),
        [&, all_done](std::string payload) {
          const auto response = serve::parse_response(payload);
          std::lock_guard<std::mutex> lock(mu);
          if (response) {
            replies[response->seq]++;
            statuses[response->seq] = response->status;
          }
          if (--outstanding == 0) all_done->set_value();
        });
  }
  all_done->get_future().get();

  for (std::uint64_t seq = 1; seq <= kRequests; ++seq) {
    EXPECT_EQ(replies[seq], 1) << "seq " << seq;
    // Every reply is terminal-clean: either served, or an honest retryable
    // shed — never silence, never a duplicate.
    EXPECT_TRUE(statuses[seq] == serve::Status::kOk ||
                serve::status_retryable(statuses[seq]))
        << "seq " << seq << ": "
        << serve::status_name(statuses[seq]);
  }
  expect_backends_reconcile(cluster);
}

TEST(ClusterChaos, SlowBackendExpiresDeadlinesNotTheCluster) {
  // One backend stalls 100 virtual ms before executing; the request's
  // deadline is 40 ms. The backend itself sheds deadline-exceeded and the
  // router passes that through untouched — a slow replica must not turn
  // into a hung client or a silent retry storm.
  serve::ManualClock clock;
  FaultCluster cluster(
      {"b1"}, /*replication=*/1,
      [&clock](const std::string&, int) {
        serve::FaultTransport::Options options;
        options.script = serve::FaultScript(
            {{serve::FaultKind::kNone},  // the snapshot install
             {serve::FaultKind::kStallBeforeExecute, 100.0}},
            /*cycle=*/false);
        options.clock = &clock;  // virtual stall — no real sleeping
        return options;
      },
      &clock);
  cluster.replicator->sync_all();

  serve::Request request = localize_request(1);
  request.deadline_ms = 40;
  const auto response = serve::parse_response(cluster.call(request));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kDeadlineExceeded);
  EXPECT_TRUE(serve::status_retryable(response->status));
  expect_backends_reconcile(cluster);
}

TEST(ClusterChaos, CorruptResponseFrameFailsOver) {
  // The primary's response frame arrives with one flipped bit. The pool
  // cannot decode it, fails the forward, and the router retries the
  // request on the healthy replica.
  const std::string primary = primary_owner({"b1", "b2"});
  FaultCluster cluster(
      {"b1", "b2"}, /*replication=*/2,
      [primary](const std::string& backend, int connect_index) {
        serve::FaultTransport::Options options;
        if (backend == primary && connect_index == 0) {
          options.script = serve::FaultScript(
              {{serve::FaultKind::kNone},  // install
               {serve::FaultKind::kCorruptResponse}},
              /*cycle=*/false);
        }
        return options;
      });
  cluster.replicator->sync_all();

  const auto response =
      serve::parse_response(cluster.call(localize_request(1)));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kOk);
  expect_backends_reconcile(cluster);
}

serve::Request add_beacon_request(std::uint64_t seq, Vec2 point) {
  serve::Request request;
  request.seq = seq;
  request.endpoint = serve::Endpoint::kAddBeacon;
  request.field = "default";
  request.points = {point};
  return request;
}

serve::Request snapshot_fetch(std::uint64_t seq = 99) {
  serve::Request fetch;
  fetch.seq = seq;
  fetch.endpoint = serve::Endpoint::kSnapshot;
  fetch.field = "default";
  return fetch;
}

/// Block until every forward queued on `backend` has resolved: a sentinel
/// rides the FIFO behind them. Needed before healing a partition — a burst
/// mutation still queued at heal time would land on the clean reconnect,
/// answer `version-mismatch`, and be repaired via install, masking the
/// replay path under test.
void drain_backend_fifo(FaultCluster& cluster, const std::string& backend) {
  auto drained = std::make_shared<std::promise<void>>();
  BackendPool::Forward sentinel;
  sentinel.request.endpoint = serve::Endpoint::kStats;
  sentinel.on_reply = [drained](std::string) { drained->set_value(); };
  sentinel.on_failure = [drained] { drained->set_value(); };
  if (cluster.pool->enqueue(backend, std::move(sentinel))) {
    drained->get_future().get();
  }
  // enqueue() refusing means the breaker is open — the queue was already
  // failed fast when it tripped.
}

TEST(ClusterChaos, OwnerKilledMidWriteBurstKeepsQuorumThenReplays) {
  // All three backends own the deployment (majority quorum 2-of-3). The
  // ring's first owner dies partway through a burst of add-beacon writes —
  // its connection resets *before* the mutation executes — and stays
  // partitioned until after the burst. Every write must still ack (two
  // owners form the quorum), and on recovery the victim must catch up by
  // *replaying the log suffix*, not a full snapshot resync, ending
  // byte-identical to its peers.
  const std::string victim = primary_owner({"b1", "b2", "b3"});
  serve::ManualClock clock;
  std::atomic<bool> partitioned{true};
  BackendPoolOptions pool_options;
  pool_options.clock_ms = clock.fn();
  FaultCluster cluster(
      {"b1", "b2", "b3"}, /*replication=*/3,
      [victim, &partitioned](const std::string& backend, int connect_index) {
        serve::FaultTransport::Options options;
        if (backend != victim || !partitioned.load()) return options;
        if (connect_index == 0) {
          // Survive the install and the first write, then drop mid-burst.
          options.script = serve::FaultScript(
              {{serve::FaultKind::kNone},
               {serve::FaultKind::kNone},
               {serve::FaultKind::kResetBeforeSend}},
              /*cycle=*/false);
        } else {
          options.script = serve::FaultScript(
              {{serve::FaultKind::kResetBeforeSend}}, /*cycle=*/true);
        }
        return options;
      },
      /*clock=*/nullptr, std::move(pool_options));
  ASSERT_EQ(cluster.replicator->sync_all(), 3u);

  constexpr std::uint64_t kWrites = 5;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    const auto response = serve::parse_response(
        cluster.call(add_beacon_request(i + 1, {double(i + 1), 2})));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, serve::Status::kOk) << "write " << i + 1;
  }
  EXPECT_EQ(cluster.metrics.counts().write_acks, kWrites);
  EXPECT_EQ(cluster.replicator->read_version("default"), 1 + kWrites);

  // Heal the partition. Drive the heartbeat until the breaker sits closed
  // (pipelined batches coalesce failures, so the burst may or may not have
  // tripped it), then run the resync the recovery callback would run.
  drain_backend_fifo(cluster, victim);
  partitioned = false;
  ASSERT_TRUE(wait_until([&] {
    clock.advance(2000);
    cluster.pool->tick();
    return cluster.pool->health(victim) == BackendHealth::kClosed;
  }));
  cluster.replicator->sync_backend(victim);
  ASSERT_TRUE(wait_until([&] {
    return cluster.backends.at(victim).service->field_version("default") ==
           1 + kWrites;
  })) << "victim stuck at v"
      << cluster.backends.at(victim).service->field_version("default")
      << " installs " << cluster.metrics.backend_snapshot(victim).installs
      << " replays " << cluster.metrics.backend_snapshot(victim).replays;
  ASSERT_TRUE(quiesce(cluster, victim));
  EXPECT_EQ(cluster.metrics.backend_snapshot(victim).installs, 1u)
      << "recovery must replay, not resync";
  EXPECT_GE(cluster.metrics.backend_snapshot(victim).replays, kWrites - 1);

  // Every owner's snapshot endpoint answers byte-identically, and a routed
  // read reflects every acked write.
  const std::string authority =
      cluster.replicator->log().snapshot("default").text;
  for (const std::string& name : cluster.backend_names) {
    EXPECT_EQ(cluster.backends.at(name).service->handle(snapshot_fetch()).text,
              authority)
        << name;
  }
  const auto routed = serve::parse_response(cluster.call(snapshot_fetch()));
  ASSERT_TRUE(routed.has_value());
  EXPECT_EQ(routed->status, serve::Status::kOk);
  EXPECT_EQ(routed->text, authority);
  expect_backends_reconcile(cluster);
}

TEST(ClusterChaos, PartitionBeyondRetainedWindowFallsBackToResync) {
  // Same partition, but the log retains only the last two entries: by the
  // time the victim heals it is too far behind to replay, so recovery must
  // fall back to a full snapshot install — and still converge to
  // byte-identical state.
  const std::string victim = primary_owner({"b1", "b2", "b3"});
  serve::ManualClock clock;
  std::atomic<bool> partitioned{true};
  BackendPoolOptions pool_options;
  pool_options.clock_ms = clock.fn();
  FaultCluster cluster(
      {"b1", "b2", "b3"}, /*replication=*/3,
      [victim, &partitioned](const std::string& backend, int connect_index) {
        serve::FaultTransport::Options options;
        if (backend != victim || !partitioned.load()) return options;
        if (connect_index == 0) {
          options.script = serve::FaultScript(
              {{serve::FaultKind::kNone},
               {serve::FaultKind::kResetBeforeSend}},
              /*cycle=*/false);
        } else {
          options.script = serve::FaultScript(
              {{serve::FaultKind::kResetBeforeSend}}, /*cycle=*/true);
        }
        return options;
      },
      /*clock=*/nullptr, std::move(pool_options), /*log_retain=*/2);
  ASSERT_EQ(cluster.replicator->sync_all(), 3u);

  constexpr std::uint64_t kWrites = 5;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    const auto response = serve::parse_response(
        cluster.call(add_beacon_request(i + 1, {double(i + 1), 3})));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, serve::Status::kOk) << "write " << i + 1;
  }
  ASSERT_FALSE(cluster.replicator->log().suffix("default", 1).has_value())
      << "the victim's position must be outside the retained window";

  drain_backend_fifo(cluster, victim);
  partitioned = false;
  ASSERT_TRUE(wait_until([&] {
    clock.advance(2000);
    cluster.pool->tick();
    return cluster.pool->health(victim) == BackendHealth::kClosed;
  }));
  cluster.replicator->sync_backend(victim);
  ASSERT_TRUE(wait_until([&] {
    return cluster.backends.at(victim).service->field_version("default") ==
           1 + kWrites;
  }));
  ASSERT_TRUE(quiesce(cluster, victim));
  EXPECT_GE(cluster.metrics.backend_snapshot(victim).installs, 2u)
      << "beyond the window recovery is a full resync";
  EXPECT_EQ(cluster.metrics.backend_snapshot(victim).replays, 0u);

  const std::string authority =
      cluster.replicator->log().snapshot("default").text;
  for (const std::string& name : cluster.backend_names) {
    EXPECT_EQ(cluster.backends.at(name).service->handle(snapshot_fetch()).text,
              authority)
        << name;
  }
  expect_backends_reconcile(cluster);
}

/// `RetryingClient` transport that speaks to the router's frame sink —
/// the client-side of `abp query --connect` pointed at `abp route`,
/// without sockets. Keeps the last reply payload for byte-level asserts.
class RouterTransport final : public serve::ClientTransport {
 public:
  explicit RouterTransport(Router& router) : router_(&router) {}

  serve::Response roundtrip(const serve::Request& request) override {
    auto done = std::make_shared<std::promise<std::string>>();
    auto future = done->get_future();
    router_->submit(serve::format_request(request),
                    [done](std::string payload) {
                      done->set_value(std::move(payload));
                    });
    last_payload = future.get();
    const std::optional<serve::Response> response =
        serve::parse_response(last_payload);
    if (!response) throw serve::ServeError("unparseable router reply");
    return *response;
  }
  void send_async(const serve::Request& request,
                  std::function<void(std::string)> on_reply_frame) override {
    router_->submit(serve::format_request(request),
                    [on_reply_frame](std::string payload) {
                      on_reply_frame(serve::encode_frame(std::move(payload)));
                    });
  }
  std::string name() const override { return "router"; }

  std::string last_payload;

 private:
  Router* router_;
};

/// Reference bytes: the same request sequence against a standalone direct
/// server; returns the last reply payload.
std::string direct_payload(const std::vector<serve::Request>& requests) {
  serve::LocalizationService service(harness_service_config());
  service.add_field("default", harness_field());
  serve::Server server(service);
  std::string out;
  for (const serve::Request& request : requests) {
    server.submit(serve::format_request(request),
                  [&out](std::string payload) { out = std::move(payload); });
    server.pump();
  }
  return out;
}

TEST(ClusterChaos, PostAppendQuorumLossThenSameIdRetryAppliesOnce) {
  // The exactly-once acceptance drill. Majority quorum is 2-of-3; two
  // owners die *after* the write is appended but before their mutations
  // execute, so the client is answered retryable `unavailable` with the
  // write stranded in the log at an unacked version. The partition heals
  // during the client's backoff, and the retry — same request id — must
  // *finish* the stranded write: exactly one beacon lands, the client
  // collects the original ack bytes, and every replica converges
  // byte-identically.
  const std::string survivor = primary_owner({"b1", "b2", "b3"});
  serve::ManualClock clock;
  std::atomic<bool> partitioned{true};
  BackendPoolOptions pool_options;
  pool_options.clock_ms = clock.fn();  // heartbeats only when advanced
  FaultCluster cluster(
      {"b1", "b2", "b3"}, /*replication=*/3,
      [survivor, &partitioned](const std::string& backend, int connect_index) {
        serve::FaultTransport::Options options;
        if (backend == survivor || !partitioned.load()) return options;
        if (connect_index == 0) {
          // Survive the install, then die on the fanned-out mutation.
          options.script = serve::FaultScript(
              {{serve::FaultKind::kNone},
               {serve::FaultKind::kResetBeforeSend}},
              /*cycle=*/false);
        } else {
          options.script = serve::FaultScript(
              {{serve::FaultKind::kResetBeforeSend}}, /*cycle=*/true);
        }
        return options;
      },
      /*clock=*/nullptr, std::move(pool_options));
  ASSERT_EQ(cluster.replicator->sync_all(), 3u);

  RouterTransport transport(*cluster.router);
  serve::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_ms = 5.0;
  serve::RetryingClient client(
      [&transport] { return serve::borrow_transport(transport); }, policy);
  // The backoff between attempts is where the partition heals.
  client.set_sleeper([&partitioned](double) { partitioned = false; });
  client.set_request_id_source([] { return 0xE0E0ull; });

  serve::Request add = add_beacon_request(7, {20, 20});
  const serve::CallResult result = client.call(add);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.status, serve::Status::kOk);
  EXPECT_EQ(result.attempts, 2u)
      << "attempt 1 lost quorum, attempt 2 completed the stranded write";

  // Exactly one beacon: one append, one acked version, and the ack the
  // client kept is byte-identical to a direct single server's.
  EXPECT_EQ(cluster.replicator->version("default"), 2u);
  EXPECT_EQ(cluster.replicator->read_version("default"), 2u);
  EXPECT_EQ(cluster.metrics.counts().writes, 1u);
  EXPECT_EQ(cluster.metrics.write_quorum_failures(), 1u);
  EXPECT_EQ(cluster.metrics.write_dedup_hits(), 1u);
  EXPECT_EQ(cluster.metrics.counts().write_acks, 1u);
  serve::Request reference = add;
  reference.request_id = 0xE0E0ull;
  reference.attempt = 1;  // what the successful retry carried
  EXPECT_EQ(transport.last_payload, direct_payload({reference}));

  // Every owner converges to a byte-identical snapshot (the slowest ack
  // may still be in flight when the quorum reply fires).
  ASSERT_TRUE(wait_until([&] {
    for (const std::string& name : cluster.backend_names) {
      if (cluster.backends.at(name).service->field_version("default") != 2u) {
        return false;
      }
    }
    return true;
  }));
  const std::string authority =
      cluster.replicator->log().snapshot("default").text;
  for (const std::string& name : cluster.backend_names) {
    EXPECT_EQ(cluster.backends.at(name).service->handle(snapshot_fetch()).text,
              authority)
        << name;
  }
  expect_backends_reconcile(cluster);
}

TEST(ClusterChaos, DuplicateDeliveredRoutedWriteIsSuppressed) {
  // The network duplicates the client's write frame in front of the
  // router: both deliveries are answered with the same bytes and only one
  // beacon is appended.
  FaultCluster cluster({"b1"}, /*replication=*/1,
                       [](const std::string&, int) { return clean_script(); });
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);

  std::vector<std::string> payloads;
  auto exchange = [&cluster, &payloads](std::string frame) {
    serve::FrameDecoder decoder;
    decoder.feed(frame);
    std::optional<std::string> payload = decoder.next();
    EXPECT_TRUE(payload.has_value());
    auto done = std::make_shared<std::promise<std::string>>();
    cluster.router->submit(std::move(*payload), [done](std::string reply) {
      done->set_value(std::move(reply));
    });
    std::string reply = done->get_future().get();
    payloads.push_back(reply);
    return serve::encode_frame(std::move(reply));
  };
  serve::FaultTransport::Options fault_options;
  fault_options.script =
      serve::FaultScript({{serve::FaultKind::kDuplicateRequest}});
  serve::FaultTransport transport(exchange, fault_options);

  serve::Request add = add_beacon_request(1, {20, 20});
  add.request_id = 0xFEEDull;
  const serve::Response response = transport.roundtrip(add);
  ASSERT_EQ(response.status, serve::Status::kOk) << response.message;
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], payloads[1]) << "the duplicate collects the "
                                         "original ack byte-for-byte";
  EXPECT_EQ(payloads[0], direct_payload({add}));
  EXPECT_EQ(cluster.replicator->version("default"), 2u);
  EXPECT_EQ(cluster.metrics.counts().writes, 1u);
  EXPECT_EQ(cluster.metrics.write_dedup_hits(), 1u);
  expect_backends_reconcile(cluster);
}

TEST(ClusterChaos, RetryStormAppliesEachLogicalWriteOnce) {
  // Eight logical writes ride a seeded duplicate/reset storm between the
  // client and the router. However many times each frame is delivered or
  // retried, every logical write must land exactly once and the cluster
  // must end byte-identical to a direct server that applied each write
  // once, in order.
  FaultCluster cluster({"b1", "b2", "b3"}, /*replication=*/3,
                       [](const std::string&, int) { return clean_script(); });
  ASSERT_EQ(cluster.replicator->sync_all(), 3u);

  auto exchange = [&cluster](std::string frame) {
    serve::FrameDecoder decoder;
    decoder.feed(frame);
    std::optional<std::string> payload = decoder.next();
    EXPECT_TRUE(payload.has_value());
    auto done = std::make_shared<std::promise<std::string>>();
    cluster.router->submit(std::move(*payload), [done](std::string reply) {
      done->set_value(std::move(reply));
    });
    return serve::encode_frame(done->get_future().get());
  };
  serve::FaultTransport::Options fault_options;
  fault_options.script = serve::make_retry_storm_script(64, 0x5708);
  serve::FaultTransport transport(exchange, fault_options);

  serve::RetryPolicy policy;
  policy.max_attempts = 12;
  policy.base_backoff_ms = 0.1;
  policy.max_backoff_ms = 0.5;
  serve::RetryingClient client(
      [&transport] { return serve::borrow_transport(transport); }, policy);
  client.set_sleeper([](double) {});

  constexpr std::uint64_t kWrites = 8;
  std::vector<serve::Request> reference;
  for (std::uint64_t i = 1; i <= kWrites; ++i) {
    const serve::Request add = add_beacon_request(i, {double(i), 5});
    const serve::CallResult result = client.call(add);
    ASSERT_TRUE(result.ok) << "write " << i << ": " << result.error;
    ASSERT_EQ(result.response.status, serve::Status::kOk)
        << "write " << i << ": " << result.response.message;
    reference.push_back(add);
  }
  EXPECT_GT(transport.faults_injected(), 0u) << "the storm must storm";

  // Exactly one append per logical write, regardless of delivery count.
  EXPECT_EQ(cluster.replicator->version("default"), 1 + kWrites);
  EXPECT_EQ(cluster.metrics.counts().writes, kWrites);
  EXPECT_GT(cluster.metrics.write_dedup_hits(), 0u)
      << "duplicates/retries must be answered from the index, not applied";

  // Byte-identical to a direct server that saw each write exactly once.
  serve::LocalizationService direct(harness_service_config());
  direct.add_field("default", harness_field());
  for (const serve::Request& request : reference) direct.handle(request);
  const std::string expected = direct.handle(snapshot_fetch()).text;
  EXPECT_EQ(cluster.replicator->log().snapshot("default").text, expected);
  ASSERT_TRUE(wait_until([&] {
    for (const std::string& name : cluster.backend_names) {
      if (cluster.backends.at(name).service->field_version("default") !=
          1 + kWrites) {
        return false;
      }
    }
    return true;
  }));
  for (const std::string& name : cluster.backend_names) {
    EXPECT_EQ(cluster.backends.at(name).service->handle(snapshot_fetch()).text,
              expected)
        << name;
  }
  expect_backends_reconcile(cluster);
}

TEST(ClusterChaos, ReadInsideTheWriteAckNeverSeesStaleCache) {
  // Read-your-writes through the response cache: a read issued from
  // *inside* the write-ack callback is the earliest moment a client can
  // legally observe its own write. The router invalidates the deployment's
  // cache entries before releasing the ack (and every lookup is fenced at
  // the acked version), so that read must reflect the write — byte-
  // identical to a direct single server that applied the same mutations.
  // If invalidation (or the fence bump) ran after the ack fired, the
  // cached pre-write response would still be live when the callback runs
  // and the bytes would diverge.
  ClusterSim cluster({"b1", "b2"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  serve::LocalizationService direct_service(harness_service_config());
  direct_service.add_field("default", harness_field());
  serve::Server direct_server(direct_service);
  auto direct = [&](const serve::Request& request) {
    std::string out;
    direct_server.submit(serve::format_request(request),
                         [&out](std::string p) { out = std::move(p); });
    direct_server.pump();
    return out;
  };

  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t base = 100 * static_cast<std::uint64_t>(round + 1);
    const serve::Request read = localize_request(base);
    // Prime the cache at the current version; also a byte-identity check.
    EXPECT_EQ(cluster.call(read), direct(read)) << "round " << round;

    // Each round's beacon lands near the queried points, so a stale cached
    // answer is guaranteed to differ from the post-write one.
    serve::Request add;
    add.seq = base + 1;
    add.endpoint = serve::Endpoint::kAddBeacon;
    add.field = "default";
    add.points = {{12.0 + round, 13.0}};
    serve::Request reread = read;
    reread.seq = base + 2;

    auto read_done = std::make_shared<std::promise<std::string>>();
    auto read_future = read_done->get_future();
    auto write_done = std::make_shared<std::promise<void>>();
    std::string ack_payload;
    cluster.router->submit(
        serve::format_request(add),
        [&, read_done, write_done](std::string payload) {
          ack_payload = std::move(payload);
          // Fire the read while still inside the ack callback — anything
          // the write path deferred past the ack release provably has not
          // run yet.
          cluster.router->submit(serve::format_request(reread),
                                 [read_done](std::string p) {
                                   read_done->set_value(std::move(p));
                                 });
          write_done->set_value();
        });
    write_done->get_future().get();
    ASSERT_EQ(serve::parse_response(ack_payload)->status, serve::Status::kOk);
    EXPECT_EQ(ack_payload, direct(add)) << "round " << round;
    EXPECT_EQ(read_future.get(), direct(reread)) << "round " << round;
  }

  EXPECT_EQ(cluster.metrics.cache_invalidations(),
            static_cast<std::uint64_t>(kRounds));
  // Every cacheable read is accounted as exactly one hit or miss — the
  // ack-released rereads can never be stale hits, because their fence moved.
  EXPECT_EQ(cluster.metrics.cache_hits() + cluster.metrics.cache_misses(),
            2u * kRounds);
}

TEST(ClusterChaos, JoinerKilledMidHandoffRollsBackThenReaddSucceeds) {
  // The joiner dies while the controller is shipping it snapshots (phase 1
  // of the handoff). The add must fail retryable, roll the table AND the
  // pool back to exactly the pre-add state — no half-joined member, no
  // epoch bump, no stray pool entry — and a later re-add of the revived
  // backend must succeed from scratch.
  ClusterSim cluster({"b1", "b2"}, /*replication=*/3);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  BackendSim& joiner = cluster.add_sim("b3");
  joiner.dead = true;  // the very first snapshot install hits a dead peer

  const serve::Response response = cluster.admin("add", "b3");
  EXPECT_EQ(response.status, serve::Status::kUnavailable);
  EXPECT_NE(response.message.find("join rolled back"), std::string::npos);
  EXPECT_EQ(cluster.membership.epoch(), 1u) << "failed join must not flip";
  EXPECT_EQ(cluster.membership.view()->members.count("b3"), 0u);
  EXPECT_FALSE(cluster.membership.view()->ring.contains("b3"));
  EXPECT_EQ(cluster.pool->health("b3"), BackendHealth::kOpen)
      << "rollback must evict the joiner from the pool";

  // The cluster it left behind still serves cleanly.
  const auto read = serve::parse_response(cluster.call(localize_request(1)));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->status, serve::Status::kOk);

  // Revive and retry: the transfer plan is recomputed from scratch, so the
  // second attempt owes nothing to the failed first.
  joiner.dead = false;
  const serve::Response retry = cluster.admin("add", "b3");
  ASSERT_EQ(retry.status, serve::Status::kOk) << retry.message;
  EXPECT_EQ(cluster.membership.epoch(), 2u);
  EXPECT_TRUE(cluster.membership.view()->ring.contains("b3"));
  EXPECT_EQ(cluster.sim("b3").service.field_version("default"),
            cluster.replicator->version("default"));
}

TEST(ClusterChaos, CrashedBackendCanStillBeDrained) {
  // Decommissioning a dead node: the victim crashes, then the operator
  // drains it. Handoff snapshots go to the *gaining* owners (all alive), a
  // dead peer's FIFO fails fast rather than stalling the queue-idle wait,
  // and the drain completes — the control plane must never require a
  // crashed backend's cooperation to remove it.
  ClusterSim cluster({"b1", "b2", "b3"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  const std::string victim = cluster.replicator->owners("default")[0];
  cluster.sim(victim).dead = true;

  const serve::Response response = cluster.admin("drain", victim);
  ASSERT_EQ(response.status, serve::Status::kOk) << response.message;
  EXPECT_EQ(cluster.membership.epoch(), 2u);
  EXPECT_EQ(cluster.membership.view()->members.count(victim), 0u);

  // The survivors own the deployment at the current version and serve both
  // planes.
  const auto owners = cluster.replicator->owners("default");
  EXPECT_EQ(std::find(owners.begin(), owners.end(), victim), owners.end());
  for (const std::string& owner : owners) {
    EXPECT_EQ(cluster.sim(owner).service.field_version("default"),
              cluster.replicator->version("default"))
        << owner;
  }
  const auto read = serve::parse_response(cluster.call(localize_request(1)));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->status, serve::Status::kOk);
  const auto write =
      serve::parse_response(cluster.call(add_beacon_request(2, {31, 7})));
  ASSERT_TRUE(write.has_value());
  EXPECT_EQ(write->status, serve::Status::kOk);
}

TEST(ClusterChaos, ScaleUpThenDrainUnderLoadIsExactlyOnce) {
  // The acceptance drill: a 2-node cluster scales to 3 and back to 2 while
  // a writer and a reader hammer it continuously. Requirements:
  //  * zero non-retryable client failures across both transitions;
  //  * zero lost or duplicated acked writes — the log's version advances
  //    exactly once per logical write, however many retries delivery took;
  //  * after both flips every owner replica is byte-identical to a
  //    never-resized direct server that applied the same writes in order.
  ClusterSim cluster({"b1", "b2"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> acked{0};
  std::atomic<std::uint64_t> non_retryable{0};
  std::vector<Vec2> applied;  // writer-local until join; then the reference

  std::thread writer([&] {
    for (std::uint64_t i = 1; !stop.load(); ++i) {
      const Vec2 point{1.0 + double(i % 50), 2.0 + double(i / 50 % 50)};
      serve::Request request = add_beacon_request(i, point);
      request.request_id = 0xACE00000ull + i;  // stable across retries
      bool landed = false;
      for (int attempt = 0; attempt < 50; ++attempt) {
        const auto response =
            serve::parse_response(cluster.call(request));
        if (response && response->status == serve::Status::kOk) {
          landed = true;
          break;
        }
        if (!response || !serve::status_retryable(response->status)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!landed) {
        ++non_retryable;
        continue;
      }
      applied.push_back(point);
      ++acked;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread reader([&] {
    for (std::uint64_t i = 1; !stop.load(); ++i) {
      const auto response =
          serve::parse_response(cluster.call(localize_request(5000 + i)));
      if (!response || (response->status != serve::Status::kOk &&
                        !serve::status_retryable(response->status))) {
        ++non_retryable;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Scale up once writes are demonstrably in flight.
  ASSERT_TRUE(wait_until([&] { return acked.load() >= 5; }));
  cluster.add_sim("b3");
  const serve::Response grow = cluster.admin("add", "b3");
  ASSERT_EQ(grow.status, serve::Status::kOk) << grow.message;
  EXPECT_EQ(cluster.membership.epoch(), 2u);

  // Let load run on the 3-node cluster, then drain the deployment's
  // primary owner — guaranteed handoff under live writes.
  const std::uint64_t at_grow = acked.load();
  ASSERT_TRUE(wait_until([&] { return acked.load() >= at_grow + 5; }));
  const std::string victim = cluster.replicator->owners("default")[0];
  const serve::Response shrink = cluster.admin("drain", victim);
  ASSERT_EQ(shrink.status, serve::Status::kOk) << shrink.message;
  EXPECT_EQ(cluster.membership.epoch(), 3u);

  // A few post-drain writes prove the shrunk cluster still acks.
  const std::uint64_t at_drain = acked.load();
  ASSERT_TRUE(wait_until([&] { return acked.load() >= at_drain + 5; }));
  stop = true;
  writer.join();
  reader.join();

  EXPECT_EQ(non_retryable.load(), 0u);
  // Exactly-once: one log append per acked write, no extras from retries.
  EXPECT_EQ(cluster.replicator->version("default"), 1 + applied.size());
  EXPECT_EQ(cluster.metrics.counts().writes, applied.size());

  // Byte-identity against a never-resized reference server that applied
  // the same acked writes in the same (single-writer) order.
  serve::LocalizationService reference(harness_service_config());
  reference.add_field("default", harness_field());
  for (std::size_t i = 0; i < applied.size(); ++i) {
    serve::Request add = add_beacon_request(i + 1, applied[i]);
    ASSERT_EQ(reference.handle(add).status, serve::Status::kOk);
  }
  const std::string expected = reference.handle(snapshot_fetch()).text;
  EXPECT_EQ(cluster.replicator->log().snapshot("default").text, expected);
  const auto owners = cluster.replicator->owners("default");
  ASSERT_FALSE(owners.empty());
  ASSERT_TRUE(wait_until([&] {
    for (const std::string& owner : owners) {
      if (cluster.sim(owner).service.field_version("default") !=
          1 + applied.size()) {
        return false;
      }
    }
    return true;
  }));
  for (const std::string& owner : owners) {
    EXPECT_EQ(cluster.sim(owner).service.handle(snapshot_fetch()).text,
              expected)
        << owner;
  }
  // A routed read after it all settles answers from the resized cluster
  // with the reference bytes.
  const auto routed = serve::parse_response(cluster.call(snapshot_fetch()));
  ASSERT_TRUE(routed.has_value());
  EXPECT_EQ(routed->status, serve::Status::kOk);
  EXPECT_EQ(routed->text, expected);
}

TEST(ClusterChaos, StaleSnapshotRepairedInBand) {
  // The backend holds version 1 while the registry moves to version 2. The
  // first forwarded query answers version-mismatch; the router must ship
  // the fresh snapshot and retry on the same FIFO so the client sees a
  // clean `ok` — never the mismatch.
  FaultCluster cluster({"b1", "b2"}, /*replication=*/2,
                       [](const std::string&, int) { return clean_script(); });
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);
  cluster.replicator->set_deployment("default", field_text());

  const auto response =
      serve::parse_response(cluster.call(localize_request(1)));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kOk);

  std::uint64_t mismatches = 0;
  for (const std::string& name : cluster.backend_names) {
    mismatches += cluster.metrics.backend_snapshot(name).version_mismatches;
  }
  EXPECT_EQ(mismatches, 1u);
  expect_backends_reconcile(cluster);
}

}  // namespace
}  // namespace abp::cluster
