/// Seeded front-door fuzzing of a `ClusterSim` router
/// (serve/front_door_fuzz.h): one cluster takes every stream, so the
/// router's state carries across iterations the way a live one's would.
#include "cluster/router.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../serve/front_door_fuzz.h"
#include "cluster_harness.h"
#include "io/field_io.h"

namespace abp::cluster {
namespace {

constexpr std::uint64_t kSeed = 0xF00D;
constexpr std::size_t kIterations = 3000;

void sync_default(ClusterSim& cluster) {
  std::ostringstream out;
  write_field(out, harness_field());
  cluster.replicator->set_deployment("default", out.str());
  ASSERT_EQ(cluster.replicator->sync_all(), 1u);
}

TEST(FrontDoorFuzz, RouterAnswersEveryFrameOnce) {
  ClusterSim cluster({"b1"});
  sync_default(cluster);
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string where =
        "seed " + std::to_string(kSeed) + " iteration " + std::to_string(i);
    const std::uint64_t received = cluster.metrics.counts().received;
    Rng chunking(derive_seed(kSeed, i, 1));
    const serve::fuzz::Exchange exchange =
        serve::fuzz::exchange(*cluster.router, serve::fuzz::fuzz_stream(kSeed, i),
                              /*max_inflight=*/i % 3, chunking);
    serve::fuzz::expect_one_reply_each(exchange, where);
    EXPECT_EQ(cluster.metrics.counts().received - received,
              exchange.payloads.size() + (exchange.corrupt ? 1 : 0))
        << where;
    if (HasFailure()) return;  // the first failing iteration is the one to replay
  }
}

TEST(FrontDoorFuzz, RouterAnswersDiagnosticsAsLongAsTheFrameCap) {
  // Two refusals echo request bytes: the parser's diagnostic and the admin
  // plane's unknown verb. At the frame cap each must still be answered
  // with a frame a decoder accepts.
  ClusterSim cluster({"b1"});
  sync_default(cluster);
  std::string garbage = "abp-request 1 7 localize\n";
  garbage.append(serve::kMaxFramePayload - garbage.size(), 'x');
  serve::Request admin = admin_request("status");
  admin.algorithm.assign(serve::kMaxFramePayload - 64, 'v');
  for (const std::string& payload : {garbage, serve::format_request(admin)}) {
    Rng chunking(kSeed);
    const serve::fuzz::Exchange exchange = serve::fuzz::exchange(
        *cluster.router, serve::encode_frame(payload), 0, chunking);
    ASSERT_EQ(exchange.replies.size(), 1u);
    EXPECT_TRUE(serve::parse_response(exchange.replies[0]).has_value());
  }
  EXPECT_EQ(cluster.metrics.counts().received, 2u);
  EXPECT_EQ(cluster.metrics.counts().local, 2u);
}

}  // namespace
}  // namespace abp::cluster
