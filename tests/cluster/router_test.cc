#include "cluster/router.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "io/field_io.h"
#include "cluster_harness.h"

namespace abp::cluster {
namespace {

std::string field_text() {
  std::ostringstream out;
  write_field(out, harness_field());
  return out.str();
}

serve::Request localize_request(std::uint64_t seq = 1,
                                const std::string& field = "default") {
  serve::Request request;
  request.seq = seq;
  request.endpoint = serve::Endpoint::kLocalize;
  request.field = field;
  request.points = {{12, 12}, {50, 50}, {20, 15}};
  return request;
}

/// The same request answered by a standalone unversioned single server —
/// the byte-level reference a routed response must match.
std::string direct_call(const serve::Request& request) {
  serve::LocalizationService service(harness_service_config());
  service.add_field("default", harness_field());
  serve::Server server(service);
  std::string out;
  server.submit(serve::format_request(request),
                [&out](std::string payload) { out = std::move(payload); });
  server.pump();
  return out;
}

TEST(Router, StatsAnsweredLocally) {
  ClusterSim cluster({"b1"});
  serve::Request request;
  request.seq = 5;
  request.endpoint = serve::Endpoint::kStats;
  const auto response = serve::parse_response(cluster.call(request));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->seq, 5u);
  EXPECT_EQ(response->status, serve::Status::kOk);
  EXPECT_EQ(response->text.rfind("abp-route-stats 1\n", 0), 0u);
  EXPECT_EQ(cluster.metrics.counts().forwarded, 0u);
}

TEST(Router, ListFieldsAnsweredLocally) {
  ClusterSim cluster({"b1"});
  cluster.replicator->set_deployment("alpha", field_text());
  serve::Request request;
  request.seq = 2;
  request.endpoint = serve::Endpoint::kListFields;
  const auto response = serve::parse_response(cluster.call(request));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kOk);
  EXPECT_EQ(response->text, "alpha\n");
}

TEST(Router, UnknownDeploymentIsNotFound) {
  ClusterSim cluster({"b1"});
  const auto response =
      serve::parse_response(cluster.call(localize_request(1, "ghost")));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kNotFound);
  EXPECT_EQ(cluster.metrics.counts().forwarded, 0u);
  // The registry does not hold the name: answered locally and counted as
  // an unknown-deployment reject.
  EXPECT_EQ(cluster.metrics.filter_rejects(), 1u);
}

TEST(Router, RoutedResponseIsByteIdenticalToDirect) {
  ClusterSim cluster({"b1", "b2", "b3"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  const serve::Request localize = localize_request(42);
  EXPECT_EQ(cluster.call(localize), direct_call(localize));

  serve::Request error_at = localize_request(43);
  error_at.endpoint = serve::Endpoint::kErrorAt;
  EXPECT_EQ(cluster.call(error_at), direct_call(error_at));
}

TEST(Router, ClientSnapshotInstallIsRejected) {
  ClusterSim cluster({"b1"});
  cluster.replicator->set_deployment("default", field_text());
  cluster.replicator->sync_all();
  serve::Request install;
  install.seq = 9;
  install.endpoint = serve::Endpoint::kSnapshot;
  install.field = "default";
  install.text = field_text();
  const auto response = serve::parse_response(cluster.call(install));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kBadRequest);
  // A plain snapshot *fetch* routes normally.
  serve::Request fetch;
  fetch.seq = 10;
  fetch.endpoint = serve::Endpoint::kSnapshot;
  fetch.field = "default";
  const auto fetched = serve::parse_response(cluster.call(fetch));
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->status, serve::Status::kOk);
  EXPECT_EQ(fetched->text, field_text());
  EXPECT_EQ(fetched->version, 0u) << "version record must be stripped";
}

TEST(Router, FailsOverToSurvivingReplica) {
  ClusterSim cluster({"b1", "b2", "b3"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);
  const std::vector<std::string> owners =
      cluster.replicator->owners("default");
  cluster.sim(owners[0]).dead = true;

  const serve::Request request = localize_request(7);
  EXPECT_EQ(cluster.call(request), direct_call(request));
  // Forward/retry counters are recorded after the FIFO handoff, so the
  // reply (which unblocks call()) can land a hair before them.
  EXPECT_TRUE(wait_until([&] {
    return cluster.metrics.backend_snapshot(owners[1]).retries >= 1 &&
           cluster.metrics.backend_snapshot(owners[0]).transport_failures >= 1;
  }));
}

serve::Request add_beacon_request(std::uint64_t seq,
                                  std::vector<Vec2> points = {{20, 20}}) {
  serve::Request add;
  add.seq = seq;
  add.endpoint = serve::Endpoint::kAddBeacon;
  add.field = "default";
  add.points = std::move(points);
  return add;
}

TEST(Router, AddBeaconQuorumLostIsRetryableUnavailable) {
  // Both owners are needed for the majority quorum (2 of 2); one dies with
  // the mutation in flight. The client gets an honest retryable shed and
  // the write stays in the log for the survivors to converge on.
  ClusterSim cluster({"b1", "b2"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);
  const std::vector<std::string> owners =
      cluster.replicator->owners("default");
  cluster.sim(owners[0]).dead = true;

  const auto response =
      serve::parse_response(cluster.call(add_beacon_request(3)));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kUnavailable);
  EXPECT_NE(response->retry_after_ms, 0u);
  EXPECT_EQ(cluster.metrics.write_quorum_failures(), 1u);
  EXPECT_EQ(cluster.metrics.counts().write_acks, 0u);
  // The write was logged (version advanced) but must not fence reads.
  EXPECT_EQ(cluster.replicator->version("default"), 2u);
  EXPECT_EQ(cluster.replicator->read_version("default"), 1u);
  // The survivor still absorbed the mutation — convergence, not loss.
  ASSERT_TRUE(wait_until([&] {
    return cluster.sim(owners[1]).service.field_version("default") == 2u;
  }));
}

TEST(Router, AddBeaconReplicatesToAllOwnersAndMatchesDirect) {
  ClusterSim cluster({"b1", "b2", "b3"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);
  const std::vector<std::string> owners =
      cluster.replicator->owners("default");

  // The routed write is acknowledged with a response synthesized from the
  // log's deterministic apply — byte-identical to a direct server's.
  const serve::Request add = add_beacon_request(3, {{20, 20}, {99, -5}});
  EXPECT_EQ(cluster.call(add), direct_call(add));
  EXPECT_EQ(cluster.metrics.counts().write_acks, 1u);
  EXPECT_EQ(cluster.replicator->read_version("default"), 2u);

  // Every ring owner converges to a byte-identical snapshot.
  const std::string authority =
      cluster.replicator->log().snapshot("default").text;
  ASSERT_TRUE(wait_until([&] {
    for (const std::string& owner : owners) {
      if (cluster.sim(owner).service.field_version("default") != 2u) {
        return false;
      }
    }
    return true;
  }));
  serve::Request fetch;
  fetch.endpoint = serve::Endpoint::kSnapshot;
  fetch.field = "default";
  for (const std::string& owner : owners) {
    EXPECT_EQ(cluster.sim(owner).service.handle(fetch).text, authority)
        << owner;
    EXPECT_GE(cluster.metrics.backend_snapshot(owner).mutation_acks, 1u)
        << owner;
  }
}

TEST(Router, WriteThenReadIsReadYourWrites) {
  ClusterSim cluster({"b1", "b2"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  const auto write =
      serve::parse_response(cluster.call(add_beacon_request(1, {{20, 20}})));
  ASSERT_TRUE(write.has_value());
  ASSERT_EQ(write->status, serve::Status::kOk);

  // A routed snapshot fetch right after the ack must include the beacon:
  // reads are fenced at the acked version, so no stale replica can answer.
  serve::Request fetch;
  fetch.seq = 2;
  fetch.endpoint = serve::Endpoint::kSnapshot;
  fetch.field = "default";
  const auto fetched = serve::parse_response(cluster.call(fetch));
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->status, serve::Status::kOk);
  EXPECT_EQ(fetched->text, cluster.replicator->log().snapshot("default").text);
}

TEST(Router, WriteQuorumOneAcksWithADeadReplica) {
  RouterOptions options;
  options.write_quorum = 1;
  ClusterSim cluster({"b1", "b2"}, /*replication=*/2, {}, options);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);
  const std::vector<std::string> owners =
      cluster.replicator->owners("default");
  cluster.sim(owners[1]).dead = true;

  const serve::Request add = add_beacon_request(5);
  EXPECT_EQ(cluster.call(add), direct_call(add));
  EXPECT_EQ(cluster.metrics.counts().write_acks, 1u);
  EXPECT_EQ(cluster.replicator->read_version("default"), 2u);
}

TEST(Router, WriteShedBeforeAppendWhenQuorumInfeasible) {
  BackendPoolOptions pool_options;
  pool_options.failure_threshold = 1;
  ClusterSim cluster({"b1"}, /*replication=*/1, pool_options);
  cluster.replicator->set_deployment("default", field_text());
  cluster.replicator->sync_all();
  cluster.sim("b1").dead = true;
  // Trip the breaker so the owner is known-down before the write arrives.
  (void)cluster.call(localize_request(1));
  ASSERT_TRUE(wait_until(
      [&] { return cluster.pool->health("b1") == BackendHealth::kOpen; }));

  const auto response =
      serve::parse_response(cluster.call(add_beacon_request(2)));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kUnavailable);
  EXPECT_NE(response->retry_after_ms, 0u);
  // Shed before the append: the log is untouched, so this client retry
  // cannot duplicate anything.
  EXPECT_EQ(cluster.replicator->version("default"), 1u);
  EXPECT_EQ(cluster.metrics.counts().writes, 0u);
}

TEST(Router, DuplicateWriteAnswersTheOriginalAck) {
  ClusterSim cluster({"b1", "b2", "b3"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  serve::Request add = add_beacon_request(3, {{20, 20}, {99, -5}});
  add.request_id = 7001;
  const std::string first = cluster.call(add);
  ASSERT_EQ(serve::parse_response(first)->status, serve::Status::kOk);
  EXPECT_EQ(cluster.replicator->version("default"), 2u);

  // The duplicate delivery (a retry after a lost ack, or a transport-level
  // retransmit) collects the original ack byte-for-byte — no new version.
  add.attempt = 1;
  EXPECT_EQ(cluster.call(add), first);
  EXPECT_EQ(cluster.replicator->version("default"), 2u);
  EXPECT_EQ(cluster.metrics.counts().writes, 1u)
      << "one logical write, one append";
  EXPECT_EQ(cluster.metrics.write_dedup_hits(), 1u);
  // Even a same-attempt duplicate (network-level duplication) is caught.
  add.attempt = 0;
  EXPECT_EQ(cluster.call(add), first);
  EXPECT_EQ(cluster.metrics.write_dedup_hits(), 2u);
}

TEST(Router, RetryBeyondTheDedupWindowIsDedupExpired) {
  ClusterSim cluster({"b1"}, /*replication=*/1, {}, {}, /*log_retain=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);

  for (std::uint64_t id = 1; id <= 3; ++id) {
    serve::Request add = add_beacon_request(id, {{double(id), 1}});
    add.request_id = 9000 + id;
    ASSERT_EQ(serve::parse_response(cluster.call(add))->status,
              serve::Status::kOk);
  }
  // Id 9001 rolled out of the 2-entry window; its retry is provably
  // unanswerable and must be refused, never silently re-appended.
  serve::Request stale = add_beacon_request(9, {{1, 1}});
  stale.request_id = 9001;
  stale.attempt = 1;
  const auto response = serve::parse_response(cluster.call(stale));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kDedupExpired);
  EXPECT_FALSE(serve::status_retryable(response->status));
  EXPECT_EQ(cluster.replicator->version("default"), 4u) << "no re-append";
  EXPECT_EQ(cluster.metrics.counts().write_dedup_expired, 1u);
}

TEST(Router, UnknownIdRetryAppendsWhileHistoryIsComplete) {
  // attempt > 0 with an unknown id is only ambiguous once something has
  // been evicted. With the full id history intact the miss proves the
  // first delivery never arrived, so the write must be accepted.
  ClusterSim cluster({"b1"});
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);

  serve::Request add = add_beacon_request(2, {{20, 20}});
  add.request_id = 31337;
  add.attempt = 4;  // the first four deliveries all died in transit
  const auto response = serve::parse_response(cluster.call(add));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kOk);
  EXPECT_EQ(cluster.replicator->version("default"), 2u);
  EXPECT_EQ(cluster.metrics.counts().write_dedup_expired, 0u);
}

TEST(Router, DedupDisabledAppendsEveryDelivery) {
  RouterOptions options;
  options.dedup = false;
  ClusterSim cluster({"b1"}, /*replication=*/1, {}, options);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);

  serve::Request add = add_beacon_request(3, {{20, 20}});
  add.request_id = 4242;
  ASSERT_EQ(serve::parse_response(cluster.call(add))->status,
            serve::Status::kOk);
  add.attempt = 1;
  ASSERT_EQ(serve::parse_response(cluster.call(add))->status,
            serve::Status::kOk);
  // Benchmarking mode: ids are ignored, both deliveries append.
  EXPECT_EQ(cluster.replicator->version("default"), 3u);
  EXPECT_EQ(cluster.metrics.counts().writes, 2u);
  EXPECT_EQ(cluster.metrics.write_dedup_hits(), 0u);
}

TEST(Router, ClientMutateIsRejected) {
  ClusterSim cluster({"b1"});
  cluster.replicator->set_deployment("default", field_text());
  cluster.replicator->sync_all();
  serve::Request mutate;
  mutate.seq = 8;
  mutate.endpoint = serve::Endpoint::kMutate;
  mutate.field = "default";
  mutate.points = {{20, 20}};
  mutate.version = 2;
  const auto response = serve::parse_response(cluster.call(mutate));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kBadRequest);
  EXPECT_EQ(cluster.metrics.counts().forwarded, 0u);
}

TEST(Router, EmptyAddBeaconMatchesDirectRejection) {
  ClusterSim cluster({"b1"});
  cluster.replicator->set_deployment("default", field_text());
  cluster.replicator->sync_all();
  const serve::Request add = add_beacon_request(4, {});
  EXPECT_EQ(cluster.call(add), direct_call(add));
  EXPECT_EQ(cluster.metrics.counts().writes, 0u)
      << "rejected before the append";
}

TEST(Router, VersionProbeRoutesAndKeepsTheVersionRecord) {
  ClusterSim cluster({"b1"});
  cluster.replicator->set_deployment("default", field_text());
  cluster.replicator->sync_all();
  serve::Request probe;
  probe.seq = 6;
  probe.endpoint = serve::Endpoint::kVersion;
  probe.field = "default";
  const auto response = serve::parse_response(cluster.call(probe));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kOk);
  EXPECT_EQ(response->version, 1u)
      << "version probes keep the version record — it is the answer";
}

TEST(Router, AllReplicasDownIsRetryableUnavailable) {
  BackendPoolOptions options;
  options.failure_threshold = 1;
  ClusterSim cluster({"b1"}, 1, options);
  cluster.replicator->set_deployment("default", field_text());
  cluster.replicator->sync_all();
  cluster.sim("b1").dead = true;

  // First call hits the live-looking backend, fails, and has no replica
  // left to try.
  const auto first = serve::parse_response(cluster.call(localize_request(1)));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, serve::Status::kUnavailable);
  EXPECT_NE(first->retry_after_ms, 0u);
  EXPECT_TRUE(serve::status_retryable(first->status));

  // The failure tripped the breaker (threshold 1): the next call is refused
  // at enqueue and answered unrouted.
  ASSERT_TRUE(wait_until(
      [&] { return cluster.pool->health("b1") == BackendHealth::kOpen; }));
  const auto second =
      serve::parse_response(cluster.call(localize_request(2)));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, serve::Status::kUnavailable);
  EXPECT_EQ(cluster.metrics.counts().unrouted, 1u);
}

TEST(Router, StaleBackendIsRepairedViaInstallThenRetry) {
  ClusterSim cluster({"b1"}, 1);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
  ASSERT_EQ(cluster.sim("b1").service.field_version("default"), 1u);

  // Bump the registry without pushing: the backend is now stale.
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->version("default"), 2u);

  const serve::Request request = localize_request(11);
  EXPECT_EQ(cluster.call(request), direct_call(request));
  EXPECT_EQ(cluster.sim("b1").service.field_version("default"), 2u)
      << "the mismatch repair must install the fresh snapshot";
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").version_mismatches, 1u);
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").installs, 2u);
}

TEST(Router, UnparseablePayloadIsBadRequest) {
  ClusterSim cluster({"b1"});
  std::string out;
  cluster.router->submit("definitely not a request\n",
                         [&out](std::string payload) { out = payload; });
  const auto response = serve::parse_response(out);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, serve::Status::kBadRequest);
}

TEST(Router, ShedOverloadedCarriesHint) {
  ClusterSim cluster({"b1"});
  std::string out;
  serve::Request request = localize_request(4);
  request.principal = 7;
  cluster.router->shed_overloaded(
      serve::format_request(request),
      [&out](std::string payload) { out = payload; }, "router full");
  const auto response = serve::parse_response(out);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->seq, 4u);
  EXPECT_EQ(response->status, serve::Status::kOverloaded);
  EXPECT_EQ(response->message, "router full");
  EXPECT_NE(response->retry_after_ms, 0u);
  // The shed is credited to the request's own principal, as on a server.
  const MetricsSnapshot snap = cluster.metrics.snapshot();
  EXPECT_EQ(snap.count("principal.7.received"), 1u);
  EXPECT_EQ(snap.count("principal.0.received"), 0u);
}

TEST(Router, CachedReadIsByteIdenticalToUncachedAndDirect) {
  ClusterSim cluster({"b1", "b2"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  // First read misses, forwards, and seeds the cache; it must already be
  // byte-identical to a direct single-server answer.
  const serve::Request first = localize_request(42);
  const std::string uncached = cluster.call(first);
  EXPECT_EQ(uncached, direct_call(first));
  EXPECT_EQ(cluster.metrics.cache_misses(), 1u);
  EXPECT_EQ(cluster.metrics.cache_hits(), 0u);
  ASSERT_TRUE(
      wait_until([&] { return cluster.metrics.counts().forwarded == 1u; }));

  // The repeat is served from memory — same bytes, no backend round-trip.
  EXPECT_EQ(cluster.call(first), uncached);
  EXPECT_EQ(cluster.metrics.cache_hits(), 1u);
  EXPECT_EQ(cluster.metrics.counts().forwarded, 1u);

  // A different tenant retrying under a different seq shares the entry; the
  // hit is re-stamped with the requester's seq and still matches a direct
  // server answering that exact request.
  serve::Request second = localize_request(43);
  second.principal = 5;
  const std::string restamped = cluster.call(second);
  EXPECT_EQ(cluster.metrics.cache_hits(), 2u);
  EXPECT_EQ(cluster.metrics.counts().forwarded, 1u);
  serve::Request reference = localize_request(43);
  EXPECT_EQ(restamped, direct_call(reference));
}

TEST(Router, QuorumAckedWriteInvalidatesTheDeploymentsCache) {
  ClusterSim cluster({"b1", "b2"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  // Seed the cache at version 1.
  const serve::Request read = localize_request(1);
  (void)cluster.call(read);
  ASSERT_EQ(cluster.metrics.cache_misses(), 1u);

  // The acked write must have dropped the deployment's entries — the
  // invalidation lands before the ack fires, so by the time call() returns
  // the counters are visible.
  ASSERT_EQ(serve::parse_response(cluster.call(add_beacon_request(2)))->status,
            serve::Status::kOk);
  EXPECT_EQ(cluster.metrics.cache_invalidations(), 1u);
  EXPECT_EQ(cluster.metrics.counts().cache_entries_invalidated, 1u);

  // The next read misses (no stale hit) and reflects the new beacon:
  // byte-identical to a direct server that applied the same write.
  serve::Request reread = localize_request(3);
  const std::string routed = cluster.call(reread);
  EXPECT_EQ(cluster.metrics.cache_hits(), 0u);
  EXPECT_EQ(cluster.metrics.cache_misses(), 2u);

  serve::LocalizationService service(harness_service_config());
  service.add_field("default", harness_field());
  serve::Server server(service);
  std::string direct;
  server.submit(serve::format_request(add_beacon_request(2)),
                [&](std::string payload) { direct = std::move(payload); });
  server.pump();
  server.submit(serve::format_request(reread),
                [&](std::string payload) { direct = std::move(payload); });
  server.pump();
  EXPECT_EQ(routed, direct);
}

TEST(Router, CacheDisabledForwardsEveryRead) {
  RouterOptions options;
  options.cache_entries = 0;  // --cache 0
  ClusterSim cluster({"b1"}, /*replication=*/1, {}, options);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);

  const serve::Request request = localize_request(7);
  const std::string first = cluster.call(request);
  EXPECT_EQ(cluster.call(request), first) << "bytes must not depend on cache";
  EXPECT_EQ(first, direct_call(request));
  EXPECT_EQ(cluster.metrics.cache_hits(), 0u);
  EXPECT_EQ(cluster.metrics.cache_misses(), 0u);
  ASSERT_TRUE(
      wait_until([&] { return cluster.metrics.counts().forwarded == 2u; }));
}

TEST(Router, QuotaShedsNoisyPrincipalAndKeepsStatsReachable) {
  RouterOptions options;
  options.quota.rps = 2.0;  // one token every 500 ms
  options.quota.burst = 2.0;
  double now = 0.0;
  options.clock_ms = [&now] { return now; };
  ClusterSim cluster({"b1"}, /*replication=*/1, {}, options);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);

  serve::Request request = localize_request(1);
  request.principal = 7;
  ASSERT_EQ(serve::parse_response(cluster.call(request))->status,
            serve::Status::kOk);
  request.seq = 2;
  request.points = {{50, 50}};
  ASSERT_EQ(serve::parse_response(cluster.call(request))->status,
            serve::Status::kOk);
  request.seq = 3;
  const auto shed = serve::parse_response(cluster.call(request));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, serve::Status::kOverloaded);
  EXPECT_TRUE(serve::status_retryable(shed->status));
  EXPECT_EQ(shed->retry_after_ms, 500u);
  EXPECT_NE(shed->message.find("principal 7"), std::string::npos);

  // Another tenant's bucket is untouched.
  serve::Request other = localize_request(4);
  other.principal = 8;
  EXPECT_EQ(serve::parse_response(cluster.call(other))->status,
            serve::Status::kOk);

  // Router-local introspection is quota-exempt: a drained bucket can still
  // read stats.
  serve::Request stats;
  stats.seq = 5;
  stats.endpoint = serve::Endpoint::kStats;
  stats.principal = 7;
  EXPECT_EQ(serve::parse_response(cluster.call(stats))->status,
            serve::Status::kOk);

  EXPECT_EQ(cluster.metrics.counts().quota_sheds, 1u);
  EXPECT_EQ(cluster.metrics.principal(7).shed_quota, 1u);
  EXPECT_EQ(cluster.metrics.principal(7).requests, 4u);
  EXPECT_EQ(cluster.metrics.principal(8).shed_quota, 0u);

  // Following the hint on the injected clock is admitted again.
  now += shed->retry_after_ms;
  request.seq = 6;
  EXPECT_EQ(serve::parse_response(cluster.call(request))->status,
            serve::Status::kOk);
}

TEST(Router, SnapshotExposesCacheFilterAndPrincipalCounters) {
  ClusterSim cluster({"b1"});
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);

  serve::Request request = localize_request(1);
  request.principal = 9;
  (void)cluster.call(request);
  (void)cluster.call(request);                      // cache hit
  (void)cluster.call(localize_request(3, "ghost")); // unknown deployment

  const MetricsSnapshot snap = cluster.metrics.snapshot();
  EXPECT_EQ(snap.schema(), "abp-route-stats 1");
  EXPECT_EQ(snap.count("cache.hits"), 1u);
  EXPECT_EQ(snap.count("cache.misses"), 1u);
  EXPECT_EQ(snap.count("router.filter-rejects"), 1u);
  EXPECT_EQ(snap.count("principal.9.received"), 2u);
  EXPECT_EQ(snap.count("router.received"), 3u);
  EXPECT_TRUE(snap.has("backend.b1.forwarded"));
  EXPECT_EQ(cluster.metrics.render_text(), snap.render_text());
}

TEST(Router, EveryLocalAnswerCountsOnce) {
  // One retained log entry: the first write's id ages out when the second
  // appends, so its retry is answered dedup-expired.
  ClusterSim cluster({"b1"}, /*replication=*/1, {}, {}, /*log_retain=*/1);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
  for (std::uint64_t id = 1; id <= 2; ++id) {
    serve::Request add = add_beacon_request(id, {{double(id), 1}});
    add.request_id = 500 + id;
    ASSERT_EQ(serve::parse_response(cluster.call(add))->status,
              serve::Status::kOk);
  }

  serve::Request too_many = add_beacon_request(4);
  too_many.points.assign(serve::kMaxPointsPerRequest + 1, Vec2{1, 1});
  serve::Request acked_retry = add_beacon_request(5, {{2, 1}});
  acked_retry.request_id = 502;
  acked_retry.attempt = 1;
  serve::Request expired_retry = add_beacon_request(6, {{1, 1}});
  expired_retry.request_id = 501;
  expired_retry.attempt = 1;
  const std::pair<serve::Request, serve::Status> cases[] = {
      {add_beacon_request(3, {}), serve::Status::kBadRequest},
      {too_many, serve::Status::kBadRequest},
      {acked_retry, serve::Status::kOk},
      {expired_retry, serve::Status::kDedupExpired},
  };
  for (const auto& [request, status] : cases) {
    const std::uint64_t local_before = cluster.metrics.counts().local;
    const auto response = serve::parse_response(cluster.call(request));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, status) << "seq " << request.seq;
    EXPECT_EQ(cluster.metrics.counts().local, local_before + 1)
        << "seq " << request.seq;
  }

  const serve::RouterCounts counts = cluster.metrics.counts();
  EXPECT_EQ(counts.received, 6u);
  EXPECT_EQ(counts.local, 4u);
  EXPECT_EQ(counts.writes, 2u);
  EXPECT_EQ(counts.received, counts.local + counts.forwarded + counts.writes);
}

TEST(Router, StatsBodyIsPinnedLineByLine) {
  RouterOptions options;
  options.quota.rps = 1.0;  // the clock never moves, so no bucket refills
  options.quota.burst = 5.0;
  options.clock_ms = [] { return 0.0; };
  ClusterSim cluster({"b1"}, /*replication=*/1, {}, options);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);  // one install

  // Principal 9: a miss, a hit, a write and its dedup hit, a miss after the
  // write's invalidation, then a quota shed.
  serve::Request read = localize_request(1);
  read.principal = 9;
  (void)cluster.call(read);
  (void)cluster.call(read);
  serve::Request add = add_beacon_request(2, {{20, 20}});
  add.principal = 9;
  add.request_id = 77;
  ASSERT_EQ(serve::parse_response(cluster.call(add))->status,
            serve::Status::kOk);
  add.attempt = 1;
  (void)cluster.call(add);
  read.seq = 3;
  (void)cluster.call(read);
  read.seq = 4;
  ASSERT_EQ(serve::parse_response(cluster.call(read))->status,
            serve::Status::kOverloaded);

  // Anonymous traffic: an unknown deployment, a client mutate, admin
  // status, stats, and a bad frame.
  (void)cluster.call(localize_request(5, "ghost"));
  serve::Request mutate = add_beacon_request(6);
  mutate.endpoint = serve::Endpoint::kMutate;
  mutate.version = 2;
  (void)cluster.call(mutate);
  ASSERT_EQ(cluster.admin("status").status, serve::Status::kOk);
  serve::Request stats;
  stats.seq = 7;
  stats.endpoint = serve::Endpoint::kStats;
  (void)cluster.call(stats);
  cluster.router->submit("definitely not a request\n", [](std::string) {});

  EXPECT_EQ(cluster.metrics.render_text(), R"(abp-route-stats 1
backend.b1.forwarded 2
backend.b1.ok 2
backend.b1.errors 0
backend.b1.transport-failures 0
backend.b1.retries 0
backend.b1.version-mismatches 0
backend.b1.installs 1
backend.b1.mutations 1
backend.b1.mutation-acks 1
backend.b1.replays 0
backend.b1.probes 0
backend.b1.probe-failures 0
backend.b1.marked-down 0
backend.b1.recovered 0
router.received 11
router.local 8
router.forwarded 2
router.unrouted 0
router.filter-rejects 1
writes.submitted 1
writes.acked 1
writes.quorum-failures 0
writes.dedup-hits 1
writes.dedup-expired 0
cache.hits 1
cache.misses 2
cache.invalidations 1
cache.entries-invalidated 1
quota.sheds 1
membership.epoch 1
membership.active 1
membership.joining 0
membership.draining 0
handoff.snapshots 0
handoff.replays 0
principal.0.received 5
principal.0.shed-quota 0
principal.9.received 6
principal.9.shed-quota 1
)");
}

}  // namespace
}  // namespace abp::cluster
