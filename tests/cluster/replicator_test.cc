#include "cluster/replicator.h"

#include <gtest/gtest.h>

#include <mutex>
#include <sstream>
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

TEST(Replicator, VersionsStartAtOneAndBump) {
  ClusterSim cluster({"b1"});
  EXPECT_EQ(cluster.replicator->version("f"), 0u);
  EXPECT_EQ(cluster.replicator->set_deployment("f", field_text()), 1u);
  EXPECT_EQ(cluster.replicator->version("f"), 1u);
  EXPECT_EQ(cluster.replicator->set_deployment("f", field_text()), 2u);
  EXPECT_EQ(cluster.replicator->version("f"), 2u);
}

TEST(Replicator, InstallRequestCarriesSnapshotAndVersion) {
  ClusterSim cluster({"b1"});
  cluster.replicator->set_deployment("f", field_text());
  const serve::Request install = cluster.replicator->install_request("f");
  EXPECT_EQ(install.endpoint, serve::Endpoint::kSnapshot);
  EXPECT_EQ(install.field, "f");
  EXPECT_EQ(install.version, 1u);
  EXPECT_EQ(install.text, field_text());
  EXPECT_NE(install.incarnation, 0u);
}

TEST(Replicator, SyncAllInstallsOnEveryOwner) {
  ClusterSim cluster({"b1", "b2", "b3"}, /*replication=*/2);
  cluster.replicator->set_deployment("f", field_text());
  const std::vector<std::string> owners = cluster.replicator->owners("f");
  ASSERT_EQ(owners.size(), 2u);
  EXPECT_EQ(cluster.replicator->sync_all(), 2u);
  for (const std::string& owner : owners) {
    EXPECT_EQ(cluster.sim(owner).service.field_version("f"), 1u)
        << owner;
    EXPECT_EQ(cluster.metrics.backend_snapshot(owner).installs, 1u);
  }
  // Non-owners never saw the deployment.
  for (const std::string& name : cluster.backend_names) {
    bool owner = false;
    for (const std::string& o : owners) owner = owner || o == name;
    if (!owner) {
      EXPECT_EQ(cluster.sim(name).service.field_version("f"), 0u) << name;
    }
  }
}

TEST(Replicator, SyncAllCountsOnlySuccessfulInstalls) {
  ClusterSim cluster({"b1", "b2"}, /*replication=*/2);
  cluster.replicator->set_deployment("f", field_text());
  const std::vector<std::string> owners = cluster.replicator->owners("f");
  cluster.sim(owners[0]).dead = true;
  EXPECT_EQ(cluster.replicator->sync_all(), 1u);
  EXPECT_EQ(cluster.sim(owners[1]).service.field_version("f"), 1u);
}

TEST(Replicator, SyncBackendPushesOnlyOwnedDeployments) {
  ClusterSim cluster({"b1", "b2", "b3"}, /*replication=*/1);
  // Register enough deployments that (with high probability over the fixed
  // hash) every backend owns at least one; then resync a single backend.
  std::vector<std::string> names;
  for (int i = 0; i < 9; ++i) names.push_back("f" + std::to_string(i));
  for (const std::string& name : names) {
    cluster.replicator->set_deployment(name, field_text());
  }
  const std::string target = cluster.backend_names[0];
  cluster.replicator->sync_backend(target);
  // Wait for every owned deployment to land.
  std::vector<std::string> owned;
  for (const std::string& name : names) {
    if (cluster.replicator->owners(name)[0] == target) owned.push_back(name);
  }
  ASSERT_FALSE(owned.empty());
  ASSERT_TRUE(wait_until([&] {
    for (const std::string& name : owned) {
      if (cluster.sim(target).service.field_version(name) != 1u) return false;
    }
    return true;
  }));
  // Deployments owned elsewhere were not pushed to `target`.
  for (const std::string& name : names) {
    if (cluster.replicator->owners(name)[0] != target) {
      EXPECT_EQ(cluster.sim(target).service.field_version(name), 0u) << name;
    }
  }
}

TEST(Replicator, MutateRequestCarriesEntryPointsAndVersion) {
  ClusterSim cluster({"b1"});
  MutationLog::Entry entry;
  entry.version = 7;
  entry.points = {{20, 20}, {5, 50}};
  const serve::Request mutate = cluster.replicator->mutate_request("f", entry);
  EXPECT_EQ(mutate.endpoint, serve::Endpoint::kMutate);
  EXPECT_EQ(mutate.field, "f");
  EXPECT_EQ(mutate.version, 7u);
  EXPECT_EQ(mutate.points, entry.points);
}

TEST(Replicator, ReadVersionTracksAcksNotAppends) {
  ClusterSim cluster({"b1"});
  cluster.replicator->set_deployment("f", field_text());
  EXPECT_EQ(cluster.replicator->read_version("f"), 1u);
  cluster.replicator->log().append("f", {{20, 20}});
  EXPECT_EQ(cluster.replicator->version("f"), 2u);
  EXPECT_EQ(cluster.replicator->read_version("f"), 1u)
      << "an unacked write must not fence reads";
  cluster.replicator->log().record_acked("f", 2);
  EXPECT_EQ(cluster.replicator->read_version("f"), 2u);
}

TEST(Replicator, SyncBackendReplaysSuffixWhenRetained) {
  ClusterSim cluster({"b1"}, /*replication=*/1);
  cluster.replicator->set_deployment("f", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
  // Two writes land in the log while the backend (hypothetically
  // partitioned) misses them.
  cluster.replicator->log().append("f", {{20, 20}});
  cluster.replicator->log().append("f", {{5, 50}});
  ASSERT_EQ(cluster.sim("b1").service.field_version("f"), 1u);

  cluster.replicator->sync_backend("b1");
  ASSERT_TRUE(wait_until(
      [&] { return cluster.sim("b1").service.field_version("f") == 3u; }));
  ASSERT_TRUE(cluster.quiesce("b1"));
  // Replayed, not resynced: the install count stays at the startup sync.
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").installs, 1u);
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").replays, 2u);
  // The replayed replica is byte-identical to the log's authority.
  serve::Request fetch;
  fetch.endpoint = serve::Endpoint::kSnapshot;
  fetch.field = "f";
  serve::Response snapshot = cluster.sim("b1").service.handle(fetch);
  EXPECT_EQ(snapshot.text, cluster.replicator->log().snapshot("f").text);
}

TEST(Replicator, SyncBackendReplayRestartsFromTheHeldVersion) {
  // A backend that runs the replayed suffix out of order answers
  // `version-mismatch` for every entry after the gap. The replay must
  // restart from the version it reports, not leave the replica behind.
  // The wire reverses the burst, so the gap always happens.
  ClusterSim cluster({"b1"}, /*replication=*/1);
  cluster.replicator->set_deployment("f", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
  for (int i = 0; i < 6; ++i) {
    cluster.replicator->log().append("f", {{5.0 + 7.0 * i, 20.0}});
  }
  ASSERT_EQ(cluster.sim("b1").service.field_version("f"), 1u);

  cluster.sim("b1").wire.reverse_next_burst();
  cluster.replicator->sync_backend("b1");
  ASSERT_TRUE(wait_until(
      [&] { return cluster.sim("b1").service.field_version("f") == 7u; }));
  ASSERT_TRUE(cluster.quiesce("b1"));
  EXPECT_FALSE(cluster.sim("b1").wire.reversing());
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").installs, 1u)
      << "restarted by replay, not resynced";
  serve::Request fetch;
  fetch.endpoint = serve::Endpoint::kSnapshot;
  fetch.field = "f";
  EXPECT_EQ(cluster.sim("b1").service.handle(fetch).text,
            cluster.replicator->log().snapshot("f").text);
}

TEST(Replicator, StaleInstallNeverMovesAReplicaBack) {
  // Two installs pipelined to a backend with several workers can run in
  // either order. The wire reverses them, so the newer one always lands
  // first; the older one must then leave the replica where it is.
  ClusterSim cluster({"b1"}, /*replication=*/1);
  cluster.replicator->set_deployment("f", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
  BackendSim& b1 = cluster.sim("b1");

  // Park the pool's worker on a probe, so both installs queue behind it
  // and reach the backend as one batch.
  b1.wire.close();
  BackendPool::Forward probe;
  probe.request.endpoint = serve::Endpoint::kStats;
  ASSERT_TRUE(cluster.pool->enqueue("b1", std::move(probe)));
  ASSERT_TRUE(wait_until([&] { return b1.wire.held() > 0; }));
  std::vector<std::uint64_t> acked;
  std::mutex acked_mu;
  for (int i = 0; i < 2; ++i) {
    cluster.replicator->log().append("f", {{5.0 + 9.0 * i, 30.0}});
    BackendPool::Forward install;
    install.request = cluster.replicator->install_request("f");
    install.on_reply = [&](std::string payload) {
      const auto response = serve::parse_response(payload);
      ASSERT_TRUE(response.has_value());
      ASSERT_EQ(response->status, serve::Status::kOk);
      std::lock_guard<std::mutex> lock(acked_mu);
      acked.push_back(response->version);
    };
    ASSERT_TRUE(cluster.pool->enqueue("b1", std::move(install)));
  }
  b1.wire.reverse_next_burst();
  b1.wire.open();
  ASSERT_TRUE(cluster.quiesce("b1"));

  EXPECT_FALSE(b1.wire.reversing());
  EXPECT_EQ(acked, (std::vector<std::uint64_t>{3u, 3u}))
      << "the older install is acked at the version held";
  EXPECT_EQ(b1.service.field_version("f"), 3u);
  serve::Request fetch;
  fetch.endpoint = serve::Endpoint::kSnapshot;
  fetch.field = "f";
  EXPECT_EQ(b1.service.handle(fetch).text,
            cluster.replicator->log().snapshot("f").text);
}

TEST(Replicator, RestartedRouterInstallsOverHigherVersions) {
  // A restarted router's versions begin again at 1. Its installs carry a
  // new incarnation, so they replace what a replica holds from the router
  // before it, at whatever version.
  ClusterSim cluster({"b1"}, /*replication=*/1);
  cluster.replicator->set_deployment("f", field_text());
  cluster.replicator->set_deployment("f", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
  ASSERT_EQ(cluster.sim("b1").service.field_version("f"), 2u);

  Replicator restarted(*cluster.pool, cluster.membership, 1,
                       cluster.metrics);
  BeaconField moved = harness_field();
  moved.add({33, 44});
  std::ostringstream text;
  write_field(text, moved);
  ASSERT_EQ(restarted.set_deployment("f", text.str()), 1u);
  EXPECT_EQ(restarted.sync_all(), 1u);
  EXPECT_EQ(cluster.sim("b1").service.field_version("f"), 1u);
  serve::Request fetch;
  fetch.endpoint = serve::Endpoint::kSnapshot;
  fetch.field = "f";
  EXPECT_EQ(cluster.sim("b1").service.handle(fetch).text, text.str());
}

TEST(Replicator, SyncBackendResyncsBeyondTheRetainedWindow) {
  ClusterSim cluster({"b1"}, /*replication=*/1, {}, {}, /*log_retain=*/1);
  cluster.replicator->set_deployment("f", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
  cluster.replicator->log().append("f", {{20, 20}});  // v2 (evicted)
  cluster.replicator->log().append("f", {{5, 50}});   // v3 (retained)
  ASSERT_FALSE(cluster.replicator->log().suffix("f", 1).has_value());

  cluster.replicator->sync_backend("b1");
  ASSERT_TRUE(wait_until(
      [&] { return cluster.sim("b1").service.field_version("f") == 3u; }));
  ASSERT_TRUE(cluster.quiesce("b1"));
  // Resynced with a full snapshot: a second install, no replays.
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").installs, 2u);
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").replays, 0u);
}

TEST(Replicator, CatchUpRefusedByAnOpenBreakerFailsBeforeReturning) {
  // The router's repair paths treat a false return as the failure branch:
  // by then `done` must already have run, once, with nothing reached.
  BackendPoolOptions pool_options;
  pool_options.failure_threshold = 1;
  ClusterSim cluster({"b1"}, /*replication=*/1, pool_options);
  cluster.replicator->set_deployment("f", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
  cluster.replicator->log().append("f", {{20, 20}});
  cluster.sim("b1").dead = true;
  BackendPool::Forward trip;
  trip.request.endpoint = serve::Endpoint::kStats;
  trip.on_reply = [](std::string) {};
  trip.on_failure = [] {};
  ASSERT_TRUE(cluster.pool->enqueue("b1", std::move(trip)));
  ASSERT_TRUE(wait_until(
      [&] { return cluster.pool->health("b1") == BackendHealth::kOpen; }));

  // From 0 the first round is an install; from 1 it replays the suffix.
  for (const std::uint64_t have : {0u, 1u}) {
    int runs = 0;
    Replicator::CatchUpResult seen;
    seen.reached = 99;
    const bool queued = cluster.replicator->catch_up(
        "b1", "f", have, [&](const Replicator::CatchUpResult& result) {
          ++runs;
          seen = result;
        });
    EXPECT_FALSE(queued) << "from v" << have;
    EXPECT_EQ(runs, 1) << "from v" << have;
    EXPECT_EQ(seen.reached, 0u);
    EXPECT_FALSE(seen.installed);
    EXPECT_EQ(seen.replayed, 0u);
  }
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").mutations, 0u)
      << "nothing refused is counted as shipped";
}

TEST(Replicator, CatchUpFromVersionZeroInstallsEvenWithTheSuffixRetained) {
  ClusterSim cluster({"b1"}, /*replication=*/1);
  cluster.replicator->set_deployment("f", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
  cluster.replicator->log().append("f", {{20, 20}});
  cluster.replicator->log().append("f", {{5, 50}});
  ASSERT_TRUE(cluster.replicator->log().suffix("f", 1).has_value())
      << "the backend's own lag is replayable";

  const Replicator::CatchUpResult result =
      cluster.replicator->catch_up_blocking("b1", "f", 0);
  EXPECT_TRUE(result.installed);
  EXPECT_EQ(result.replayed, 0u);
  EXPECT_EQ(result.reached, 3u);
  EXPECT_EQ(cluster.sim("b1").service.field_version("f"), 3u);
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").installs, 2u);
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").replays, 0u);
}

TEST(Replicator, CatchUpReplayReportsReplayedAndTheVersionReached) {
  ClusterSim cluster({"b1"}, /*replication=*/1);
  cluster.replicator->set_deployment("f", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
  for (int i = 0; i < 3; ++i) {
    cluster.replicator->log().append("f", {{5.0 + 9.0 * i, 40.0}});
  }

  const Replicator::CatchUpResult result =
      cluster.replicator->catch_up_blocking("b1", "f", 1);
  EXPECT_FALSE(result.installed);
  EXPECT_EQ(result.replayed, 3u);
  EXPECT_EQ(result.reached, 4u);
  EXPECT_EQ(cluster.sim("b1").service.field_version("f"), 4u);
  const serve::BackendSnapshot counters =
      cluster.metrics.backend_snapshot("b1");
  EXPECT_EQ(counters.installs, 1u) << "only the startup sync installed";
  EXPECT_EQ(counters.mutations, 3u);
  EXPECT_EQ(counters.mutation_acks, 3u);
  EXPECT_EQ(counters.replays, 3u);

  // A current backend is reported where it is, and nothing is shipped.
  const Replicator::CatchUpResult current =
      cluster.replicator->catch_up_blocking("b1", "f", 4);
  EXPECT_EQ(current.reached, 4u);
  EXPECT_FALSE(current.installed);
  EXPECT_EQ(current.replayed, 0u);
  EXPECT_EQ(cluster.metrics.backend_snapshot("b1").mutations, 3u);
}

TEST(Replicator, ListTextEnumeratesDeployments) {
  ClusterSim cluster({"b1"});
  cluster.replicator->set_deployment("alpha", field_text());
  cluster.replicator->set_deployment("beta", field_text());
  EXPECT_EQ(cluster.replicator->list_text(), "alpha\nbeta\n");
}

}  // namespace
}  // namespace abp::cluster
