/// Seeded front-door fuzzing of a manual-mode `Server` (front_door_fuzz.h):
/// every stream meets a fresh server, so each iteration replays alone.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <string>

#include "front_door_fuzz.h"

namespace abp::serve {
namespace {

constexpr std::uint64_t kSeed = 0xF00D;
constexpr std::size_t kIterations = 3000;

BeaconField fuzz_field() {
  BeaconField field(AABB({0, 0}, {60, 60}));
  field.add({10, 10});
  field.add({30, 10});
  field.add({10, 30});
  return field;
}

ServiceConfig fuzz_config() {
  ServiceConfig config;
  config.lattice_step = 2.0;
  return config;
}

TEST(FrontDoorFuzz, ServerAnswersEveryFrameOnce) {
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string where =
        "seed " + std::to_string(kSeed) + " iteration " + std::to_string(i);
    LocalizationService service(fuzz_config());
    service.add_field("default", fuzz_field());
    Server server(service);
    Rng chunking(derive_seed(kSeed, i, 1));
    const fuzz::Exchange exchange = fuzz::exchange(
        server, fuzz::fuzz_stream(kSeed, i), /*max_inflight=*/i % 3, chunking);
    fuzz::expect_one_reply_each(exchange, where);
    const ServiceCounts counts = service.metrics().counts();
    EXPECT_EQ(counts.submitted + counts.bad_frames,
              exchange.payloads.size() + (exchange.corrupt ? 1 : 0))
        << where;
    EXPECT_EQ(counts.submitted,
              counts.completed + service.metrics().shed_total())
        << where;
    if (HasFailure()) return;  // the first failing iteration is the one to replay
  }
}

TEST(FrontDoorFuzz, ServerAnswersADiagnosticAsLongAsTheFrameCap) {
  // The parser echoes an unexpected record in its diagnostic, so a payload
  // at the frame cap holding one such line asks for a refusal larger than
  // any frame; it must still be answered with a frame a decoder accepts.
  LocalizationService service(fuzz_config());
  service.add_field("default", fuzz_field());
  Server server(service);
  std::string payload = "abp-request 1 7 localize\n";
  payload.append(kMaxFramePayload - payload.size(), 'x');
  Rng chunking(kSeed);
  const fuzz::Exchange exchange =
      fuzz::exchange(server, encode_frame(payload), 0, chunking);
  ASSERT_EQ(exchange.replies.size(), 1u);
  EXPECT_TRUE(parse_response(exchange.replies[0]).has_value());
  EXPECT_EQ(service.metrics().counts().bad_frames, 1u);
}

}  // namespace
}  // namespace abp::serve
