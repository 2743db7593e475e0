/// \file membership_test.cc
/// \brief Membership control plane: table state machine, epoch discipline,
/// and the controller's add/drain flows over the admin wire endpoint.
#include "cluster/membership.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "io/field_io.h"
#include "serve/protocol.h"
#include "serve/server_transport.h"
#include "serve/service.h"
#include "serve/tcp_transport.h"
#include "cluster_harness.h"

namespace abp::cluster {
namespace {

std::string field_text() {
  std::ostringstream out;
  write_field(out, harness_field());
  return out.str();
}

// ---- MembershipTable state machine --------------------------------------

TEST(MembershipTable, SeedsActiveMembersAtEpochOne) {
  const MembershipTable table({"b1", "b2"});
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_EQ(table.count(MemberState::kActive), 2u);
  EXPECT_EQ(table.count(MemberState::kJoining), 0u);
  EXPECT_EQ(table.count(MemberState::kDraining), 0u);
  const auto view = table.view();
  EXPECT_EQ(view->epoch, 1u);
  EXPECT_TRUE(view->ring.contains("b1"));
  EXPECT_TRUE(view->ring.contains("b2"));
}

TEST(MembershipTable, JoinActivateLifecycleBumpsEpochOnceAtTheFlip) {
  MembershipTable table({"b1"});
  EXPECT_TRUE(table.begin_join("b2"));
  // A joiner is a member but not a ring node, and the ring is unchanged,
  // so the epoch holds.
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_EQ(table.count(MemberState::kJoining), 1u);
  EXPECT_FALSE(table.view()->ring.contains("b2"));

  EXPECT_TRUE(table.activate("b2"));
  EXPECT_EQ(table.epoch(), 2u);
  EXPECT_TRUE(table.view()->ring.contains("b2"));
  EXPECT_EQ(table.count(MemberState::kActive), 2u);
}

TEST(MembershipTable, DrainRemoveLifecycle) {
  MembershipTable table({"b1", "b2"});
  EXPECT_TRUE(table.begin_drain("b2"));
  EXPECT_EQ(table.epoch(), 2u);
  EXPECT_FALSE(table.view()->ring.contains("b2"));
  EXPECT_EQ(table.count(MemberState::kDraining), 1u);

  EXPECT_TRUE(table.remove("b2"));
  // Removal only touches bookkeeping — the ring already dropped it at the
  // drain flip, so no second epoch bump.
  EXPECT_EQ(table.epoch(), 2u);
  EXPECT_EQ(table.view()->members.count("b2"), 0u);
}

TEST(MembershipTable, IllegalTransitionsAreRefused) {
  MembershipTable table({"b1", "b2"});
  EXPECT_FALSE(table.begin_join("b1")) << "already a member";
  EXPECT_FALSE(table.activate("b1")) << "active, not joining";
  EXPECT_FALSE(table.activate("ghost"));
  EXPECT_FALSE(table.remove("b1")) << "active members must drain first";
  EXPECT_FALSE(table.begin_drain("ghost"));

  ASSERT_TRUE(table.begin_join("b3"));
  EXPECT_FALSE(table.begin_drain("b3")) << "joining, not active";
  EXPECT_TRUE(table.remove("b3")) << "aborting a join is legal";

  ASSERT_TRUE(table.begin_drain("b2"));
  EXPECT_FALSE(table.begin_drain("b1"))
      << "the last active member can never drain";
  EXPECT_EQ(table.epoch(), 2u) << "refused transitions must not bump";
}

TEST(MembershipTable, PublishedViewsAreImmutableSnapshots) {
  MembershipTable table({"b1", "b2"});
  const auto before = table.view();
  ASSERT_TRUE(table.begin_drain("b2"));
  // The old generation still describes epoch 1 — readers holding it see a
  // consistent (if stale) placement, never a torn one.
  EXPECT_EQ(before->epoch, 1u);
  EXPECT_TRUE(before->ring.contains("b2"));
  EXPECT_EQ(table.view()->epoch, 2u);
}

// ---- controller add / drain over the wire -------------------------------

serve::Request localize_request(std::uint64_t seq) {
  serve::Request request;
  request.seq = seq;
  request.endpoint = serve::Endpoint::kLocalize;
  request.field = "default";
  request.points = {{12, 12}};
  return request;
}

serve::Request add_beacon_request(std::uint64_t seq, Vec2 point) {
  serve::Request request;
  request.seq = seq;
  request.endpoint = serve::Endpoint::kAddBeacon;
  request.field = "default";
  request.points = {point};
  return request;
}

serve::Request snapshot_fetch() {
  serve::Request fetch;
  fetch.seq = 99;
  fetch.endpoint = serve::Endpoint::kSnapshot;
  fetch.field = "default";
  return fetch;
}

TEST(MembershipController, AddShipsStateThenFlipsTheEpoch) {
  ClusterSim cluster({"b1", "b2"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  cluster.add_sim("b3");
  const serve::Response response = cluster.admin("add", "b3");
  ASSERT_EQ(response.status, serve::Status::kOk) << response.message;
  EXPECT_NE(response.text.find("added b3"), std::string::npos);
  EXPECT_NE(response.text.find("epoch 2"), std::string::npos);

  EXPECT_EQ(cluster.membership.epoch(), 2u);
  EXPECT_TRUE(cluster.membership.view()->ring.contains("b3"));
  EXPECT_EQ(cluster.membership.count(MemberState::kActive), 3u);
  EXPECT_EQ(cluster.membership.count(MemberState::kJoining), 0u);
  EXPECT_EQ(cluster.metrics.counts().membership_epoch, 2u);
  EXPECT_EQ(cluster.metrics.counts().membership_active, 3u);

  // replication 2 of 3 backends: b3 gained "default" iff the new ring says
  // so; either way it must hold the current version if it is an owner.
  const auto owners = cluster.replicator->owners("default");
  const bool owner = std::find(owners.begin(), owners.end(), "b3") !=
                     owners.end();
  if (owner) {
    EXPECT_GE(cluster.metrics.counts().handoff_snapshots, 1u);
    EXPECT_EQ(cluster.sim("b3").service.field_version("default"),
              cluster.replicator->version("default"));
  }

  // The cluster still serves: a routed read and a quorum write both land.
  const auto read = serve::parse_response(cluster.call(localize_request(1)));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->status, serve::Status::kOk);
  const auto write =
      serve::parse_response(cluster.call(add_beacon_request(2, {20, 20})));
  ASSERT_TRUE(write.has_value());
  EXPECT_EQ(write->status, serve::Status::kOk);
}

TEST(MembershipController, AddedBackendReceivesLiveWritesByteIdentically) {
  ClusterSim cluster({"b1", "b2"}, /*replication=*/3);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  // Writes land before the join, so the joiner must receive them through
  // the handoff (snapshot at current version), not miss them.
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto ack = serve::parse_response(
        cluster.call(add_beacon_request(i + 1, {double(5 * i + 5), 8})));
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->status, serve::Status::kOk);
  }

  cluster.add_sim("b3");
  ASSERT_EQ(cluster.admin("add", "b3").status, serve::Status::kOk);

  // Replication 3 covers all backends: the joiner owns everything and must
  // be byte-identical to the log authority immediately — no async repair.
  const std::string authority =
      cluster.replicator->log().snapshot("default").text;
  EXPECT_EQ(cluster.sim("b3").service.handle(snapshot_fetch()).text,
            authority);

  // And writes after the flip reach it too.
  const auto ack = serve::parse_response(
      cluster.call(add_beacon_request(10, {44, 44})));
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->status, serve::Status::kOk);
  ASSERT_TRUE(wait_until([&] {
    return cluster.sim("b3").service.field_version("default") ==
           cluster.replicator->version("default");
  }));
  EXPECT_EQ(cluster.sim("b3").service.handle(snapshot_fetch()).text,
            cluster.replicator->log().snapshot("default").text);
}

TEST(MembershipController, HandoffReplayResumesOnAJoinerWithTwoWorkers) {
  // A joiner with 2 workers can run two of the pipelined handoff mutates
  // out of order: the later one answers `version-mismatch` with the
  // version held, and so does every entry after the gap. The replay must
  // resume from that version instead of failing the join. The joiner's
  // wire reverses the first pipelined burst, so the gap always happens;
  // its 2 workers race on whatever the resumed rounds send.
  ClusterSim cluster({"b1", "b2"}, /*replication=*/3);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  serve::Server::Options threaded;
  threaded.workers = 2;
  BackendSim& joiner = cluster.add_sim("b3", threaded);
  // Hold the joiner's snapshot install on the wire and land the writes
  // meanwhile: the install ships the pre-write version, and the writes
  // become the suffix the handoff replays. Hold the install's batch open
  // until the whole suffix is queued behind it, so the replay reaches the
  // joiner as one pipelined burst, which the wire reverses.
  joiner.wire.close();
  auto added = std::async(std::launch::async,
                          [&cluster] { return cluster.admin("add", "b3"); });
  ASSERT_TRUE(wait_until([&] { return joiner.wire.held() > 0; }));
  const std::uint64_t shipped = cluster.replicator->version("default");
  constexpr std::uint64_t kWrites = 24;
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    const auto ack = serve::parse_response(cluster.call(add_beacon_request(
        i + 1, {double(2 * i + 3), double(57 - 2 * i)})));
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->status, serve::Status::kOk) << "write " << i + 1;
  }
  ASSERT_EQ(cluster.replicator->version("default"), shipped + kWrites);
  joiner.wire.hold_next_flush();
  joiner.wire.reverse_next_burst();
  joiner.wire.open();
  const bool queued = wait_until(
      [&] { return cluster.pool->queue_depth("b3") == kWrites; });
  joiner.wire.release_flush();
  ASSERT_TRUE(queued);

  const serve::Response response = added.get();
  ASSERT_EQ(response.status, serve::Status::kOk) << response.message;
  EXPECT_FALSE(joiner.wire.reversing());
  EXPECT_EQ(cluster.membership.epoch(), 2u);
  EXPECT_EQ(cluster.metrics.counts().handoff_snapshots, 1u)
      << "the suffix must arrive by replay, not a second snapshot";
  EXPECT_GE(cluster.metrics.counts().handoff_replays, 1u);
  EXPECT_EQ(joiner.service.field_version("default"),
            cluster.replicator->version("default"));
  EXPECT_EQ(joiner.service.handle(snapshot_fetch()).text,
            cluster.replicator->log().snapshot("default").text);
}

TEST(MembershipController, HandoffShipmentsCountOnTheJoinersBackendCounters) {
  // The handoff ships through the same catch-up as every other path, so
  // the joiner's own backend counters see the snapshot it was sent.
  ClusterSim cluster({"b1", "b2"}, /*replication=*/3);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  cluster.add_sim("b3");
  const serve::Response response = cluster.admin("add", "b3");
  ASSERT_EQ(response.status, serve::Status::kOk) << response.message;
  EXPECT_EQ(cluster.metrics.counts().handoff_snapshots, 1u);
  EXPECT_EQ(cluster.metrics.backend_snapshot("b3").installs, 1u);
}

TEST(MembershipController, DrainHandsOffStopsRoutingAndRemoves) {
  ClusterSim cluster({"b1", "b2", "b3"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);

  const auto owners_before = cluster.replicator->owners("default");
  const std::string victim = owners_before[0];

  const serve::Response response = cluster.admin("drain", victim);
  ASSERT_EQ(response.status, serve::Status::kOk) << response.message;
  EXPECT_NE(response.text.find("drained " + victim), std::string::npos);

  EXPECT_EQ(cluster.membership.epoch(), 2u);
  EXPECT_FALSE(cluster.membership.view()->ring.contains(victim));
  EXPECT_EQ(cluster.membership.view()->members.count(victim), 0u);
  // The pool dropped it too: health of a removed backend reads open.
  EXPECT_EQ(cluster.pool->health(victim), BackendHealth::kOpen);

  // The deployment's new owners hold current state and serve reads/writes.
  const auto owners_after = cluster.replicator->owners("default");
  EXPECT_EQ(std::find(owners_after.begin(), owners_after.end(), victim),
            owners_after.end());
  for (const std::string& owner : owners_after) {
    EXPECT_EQ(cluster.sim(owner).service.field_version("default"),
              cluster.replicator->version("default"))
        << owner;
  }
  const auto read = serve::parse_response(cluster.call(localize_request(1)));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->status, serve::Status::kOk);
  const auto write =
      serve::parse_response(cluster.call(add_beacon_request(2, {25, 25})));
  ASSERT_TRUE(write.has_value());
  EXPECT_EQ(write->status, serve::Status::kOk);
}

TEST(MembershipController, AddRejectsDuplicatesAndDrainRejectsUnknown) {
  ClusterSim cluster({"b1", "b2"}, /*replication=*/1);
  cluster.replicator->set_deployment("default", field_text());
  cluster.replicator->sync_all();

  EXPECT_EQ(cluster.admin("add", "b1").status, serve::Status::kBadRequest);
  EXPECT_EQ(cluster.admin("drain", "ghost").status,
            serve::Status::kNotFound);
  EXPECT_EQ(cluster.admin("add").status, serve::Status::kBadRequest)
      << "add without a backend address";
  EXPECT_EQ(cluster.membership.epoch(), 1u)
      << "refused verbs must not bump the epoch";
}

TEST(MembershipController, DrainingTheLastBackendIsRefused) {
  ClusterSim cluster({"b1"}, /*replication=*/1);
  cluster.replicator->set_deployment("default", field_text());
  cluster.replicator->sync_all();
  const serve::Response response = cluster.admin("drain", "b1");
  EXPECT_EQ(response.status, serve::Status::kBadRequest);
  EXPECT_TRUE(cluster.membership.view()->ring.contains("b1"));
}

// ---- the admin wire endpoint --------------------------------------------

TEST(AdminEndpoint, StatusReportsMembersAndHandoffCounters) {
  ClusterSim cluster({"b1", "b2"}, /*replication=*/1);
  const serve::Response response = cluster.admin("status");
  ASSERT_EQ(response.status, serve::Status::kOk);
  EXPECT_NE(response.text.find("epoch 1"), std::string::npos);
  EXPECT_NE(response.text.find("member b1 active"), std::string::npos);
  EXPECT_NE(response.text.find("member b2 active"), std::string::npos);
  EXPECT_NE(response.text.find("handoff-snapshots 0"), std::string::npos);
  EXPECT_NE(response.text.find("handoff-replays 0"), std::string::npos);
}

TEST(AdminEndpoint, StatusAnswersWhileAnAddIsHeldOverEpoll) {
  // An add blocks until the joiner acks its handoff. Behind one epoll
  // shard, as `abp route` runs by default, that wait must not stall the
  // shard's other connections: status and reads answer meanwhile.
  ClusterSim cluster({"b1", "b2"}, /*replication=*/3);
  cluster.replicator->set_deployment("default", field_text());
  ASSERT_EQ(cluster.replicator->sync_all(), 2u);
  serve::TransportOptions options;
  options.event_shards = 1;
  const auto transport = serve::make_server_transport(
      serve::TransportKind::kEpoll, *cluster.router, options);
  transport->start();

  // Hold the joiner's snapshot install on the wire, and open it again on
  // every exit path, so a failure below ends the test instead of leaving
  // the add, and the teardown behind it, waiting for good.
  BackendSim& joiner = cluster.add_sim("b3");
  joiner.wire.close();
  struct OpenOnExit {
    WireControl& wire;
    ~OpenOnExit() { wire.open(); }
  } open_on_exit{joiner.wire};

  serve::TcpClientTransport admin("127.0.0.1", transport->port(), 30.0);
  std::string added;
  admin.send_async(admin_request("add", "b3"),
                   [&added](std::string frame) { added = std::move(frame); });
  ASSERT_TRUE(wait_until([&] { return joiner.wire.held() > 0; }));

  serve::TcpClientTransport client("127.0.0.1", transport->port(), 2.0);
  const serve::Response status = client.roundtrip(admin_request("status"));
  EXPECT_EQ(status.status, serve::Status::kOk);
  EXPECT_NE(status.text.find("member b3 joining"), std::string::npos)
      << status.text;
  EXPECT_EQ(client.roundtrip(localize_request(1)).status,
            serve::Status::kOk);

  joiner.wire.open();
  admin.flush();
  serve::FrameDecoder decoder;
  decoder.feed(added);
  const std::optional<std::string> payload = decoder.next();
  ASSERT_TRUE(payload.has_value());
  const auto ack = serve::parse_response(*payload);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status, serve::Status::kOk) << ack->message;
  EXPECT_EQ(cluster.membership.epoch(), 2u);
  transport->stop();
}

TEST(AdminEndpoint, UnknownVerbIsBadRequest) {
  ClusterSim cluster({"b1"}, /*replication=*/1);
  const serve::Response response = cluster.admin("explode", "b1");
  EXPECT_EQ(response.status, serve::Status::kBadRequest);
  EXPECT_NE(response.message.find("explode"), std::string::npos);
}

TEST(AdminEndpoint, DisabledRouterRejectsAllVerbs) {
  RouterOptions options;
  options.admin = false;
  ClusterSim cluster({"b1"}, /*replication=*/1, {}, options);
  EXPECT_EQ(cluster.admin("status").status, serve::Status::kBadRequest);
  cluster.add_sim("b2");
  EXPECT_EQ(cluster.admin("add", "b2").status, serve::Status::kBadRequest);
  EXPECT_EQ(cluster.membership.epoch(), 1u);
}

TEST(AdminEndpoint, DirectServerRejectsAdmin) {
  // A backend reached directly must refuse membership verbs: the table
  // lives in the router, and `internal_only` + the service-side check keep
  // clients from driving a backend's nonexistent control plane.
  serve::LocalizationService service(harness_service_config());
  service.add_field("default", harness_field());
  serve::Request request;
  request.endpoint = serve::Endpoint::kAdmin;
  request.algorithm = "status";
  const serve::Response response = service.handle(request);
  EXPECT_EQ(response.status, serve::Status::kBadRequest);
  EXPECT_NE(response.message.find("router-only"), std::string::npos);
}

TEST(AdminEndpoint, RouterStatsExposeMembershipCounters) {
  ClusterSim cluster({"b1", "b2"}, /*replication=*/2);
  cluster.replicator->set_deployment("default", field_text());
  cluster.replicator->sync_all();
  cluster.add_sim("b3");
  ASSERT_EQ(cluster.admin("add", "b3").status, serve::Status::kOk);

  serve::Request stats;
  stats.seq = 5;
  stats.endpoint = serve::Endpoint::kStats;
  const auto response = serve::parse_response(cluster.call(stats));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, serve::Status::kOk);
  EXPECT_NE(response->text.find("membership.epoch 2"), std::string::npos);
  EXPECT_NE(response->text.find("membership.active 3"), std::string::npos);
  EXPECT_NE(response->text.find("membership.joining 0"), std::string::npos);
  EXPECT_NE(response->text.find("membership.draining 0"), std::string::npos);
  EXPECT_NE(response->text.find("handoff.snapshots"), std::string::npos);
  EXPECT_NE(response->text.find("handoff.replays"), std::string::npos);
}

}  // namespace
}  // namespace abp::cluster
