#include "serve/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>

#include "io/field_io.h"
#include "loc/localizer.h"
#include "radio/noise_model.h"

namespace abp::serve {
namespace {

constexpr double kRange = 15.0;

BeaconField make_field() {
  BeaconField field(AABB({0, 0}, {60, 60}));
  field.add({10, 10});
  field.add({30, 10});
  field.add({10, 30});
  field.add({45, 45});
  return field;
}

ServiceConfig test_config() {
  ServiceConfig config;
  config.nominal_range = kRange;
  config.noise = 0.0;
  config.lattice_step = 2.0;
  return config;
}

Request point_request(Endpoint endpoint, std::vector<Vec2> points) {
  Request request;
  request.seq = 1;
  request.endpoint = endpoint;
  request.points = std::move(points);
  return request;
}

TEST(Service, LocalizeMatchesCentroidLocalizer) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  const std::vector<Vec2> points = {{12, 12}, {50, 50}, {0, 0}, {20, 15}};
  const Response response =
      service.handle(point_request(Endpoint::kLocalize, points));
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  ASSERT_EQ(response.estimates.size(), points.size());

  // Noise = 0 makes connectivity a pure range test, independent of the
  // service's internal seed — so a locally built localizer must agree.
  const BeaconField field = make_field();
  const PerBeaconNoiseModel model(kRange, 0.0, 1);
  const CentroidLocalizer localizer(field, model);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LocalizationResult expect = localizer.localize(points[i]);
    EXPECT_DOUBLE_EQ(response.estimates[i].estimate.x, expect.estimate.x);
    EXPECT_DOUBLE_EQ(response.estimates[i].estimate.y, expect.estimate.y);
    EXPECT_EQ(response.estimates[i].connected, expect.connected);
  }
}

TEST(Service, ErrorAtMatchesCentroidLocalizer) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  const std::vector<Vec2> points = {{12, 12}, {50, 50}};
  const Response response =
      service.handle(point_request(Endpoint::kErrorAt, points));
  ASSERT_EQ(response.status, Status::kOk);
  ASSERT_EQ(response.errors.size(), points.size());

  const BeaconField field = make_field();
  const PerBeaconNoiseModel model(kRange, 0.0, 1);
  const CentroidLocalizer localizer(field, model);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(response.errors[i], localizer.error(points[i]));
  }
}

TEST(Service, UnknownFieldIsNotFound) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Request request = point_request(Endpoint::kLocalize, {{1, 1}});
  request.field = "nowhere";
  const Response response = service.handle(request);
  EXPECT_EQ(response.status, Status::kNotFound);
  EXPECT_NE(response.message.find("nowhere"), std::string::npos);
}

TEST(Service, UnknownAlgorithmIsNotFound) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Request request;
  request.endpoint = Endpoint::kPropose;
  request.algorithm = "teleport";
  const Response response = service.handle(request);
  EXPECT_EQ(response.status, Status::kNotFound);
  EXPECT_NE(response.message.find("teleport"), std::string::npos);
}

TEST(Service, ProposeStaysInBounds) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  for (const char* algorithm :
       {"random", "max", "grid", "grid-norm", "coverage", "locus"}) {
    Request request;
    request.endpoint = Endpoint::kPropose;
    request.algorithm = algorithm;
    request.count = 3;
    const Response response = service.handle(request);
    ASSERT_EQ(response.status, Status::kOk)
        << algorithm << ": " << response.message;
    ASSERT_EQ(response.positions.size(), 3u) << algorithm;
    const AABB bounds = make_field().bounds();
    for (const Vec2 p : response.positions) {
      EXPECT_TRUE(bounds.contains(p)) << algorithm;
    }
  }
}

TEST(Service, ProposeIsDeterministicPerServiceSeed) {
  const auto run = [] {
    LocalizationService service(test_config());
    service.add_field("default", make_field());
    Request request;
    request.endpoint = Endpoint::kPropose;
    request.algorithm = "random";
    request.count = 4;
    return service.handle(request).positions;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
  }
}

TEST(Service, AddBeaconShowsUpInSnapshot) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Request add = point_request(Endpoint::kAddBeacon, {{55, 5}});
  const Response added = service.handle(add);
  ASSERT_EQ(added.status, Status::kOk) << added.message;
  ASSERT_EQ(added.beacon_ids.size(), 1u);
  const std::uint64_t id = added.beacon_ids[0];

  Request snapshot;
  snapshot.endpoint = Endpoint::kSnapshot;
  const Response snap = service.handle(snapshot);
  ASSERT_EQ(snap.status, Status::kOk);
  std::istringstream in(snap.text);
  const BeaconField restored = read_field(in);
  EXPECT_EQ(restored.size(), make_field().size() + 1);
  const auto beacon = restored.get(static_cast<BeaconId>(id));
  ASSERT_TRUE(beacon.has_value());
  EXPECT_DOUBLE_EQ(beacon->pos.x, 55.0);
  EXPECT_DOUBLE_EQ(beacon->pos.y, 5.0);
}

TEST(Service, AddBeaconClampsOutOfBoundsPosition) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  const Response response =
      service.handle(point_request(Endpoint::kAddBeacon, {{-10, 500}}));
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  ASSERT_EQ(response.positions.size(), 1u);
  EXPECT_TRUE(make_field().bounds().contains(response.positions[0]));
}

TEST(Service, AddBeaconChangesLocalization) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  const Vec2 probe{45, 45};
  // Beacon 3 sits at (45,45); add another in range of the probe and the
  // centroid must move.
  const Response before =
      service.handle(point_request(Endpoint::kLocalize, {probe}));
  service.handle(point_request(Endpoint::kAddBeacon, {{50, 50}}));
  const Response after =
      service.handle(point_request(Endpoint::kLocalize, {probe}));
  ASSERT_EQ(before.estimates.size(), 1u);
  ASSERT_EQ(after.estimates.size(), 1u);
  EXPECT_EQ(after.estimates[0].connected, before.estimates[0].connected + 1);
}

TEST(Service, ListFieldsAndStats) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  service.add_field("second", make_field());

  Request list;
  list.endpoint = Endpoint::kListFields;
  const Response names = service.handle(list);
  ASSERT_EQ(names.status, Status::kOk);
  EXPECT_NE(names.text.find("default\n"), std::string::npos);
  EXPECT_NE(names.text.find("second\n"), std::string::npos);

  Request stats;
  stats.endpoint = Endpoint::kStats;
  const Response report = service.handle(stats);
  ASSERT_EQ(report.status, Status::kOk);
  EXPECT_EQ(report.text.rfind("abp-serve-stats 1", 0), 0u);
}

TEST(Service, ReplacingAFieldTakesEffect) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  BeaconField empty(AABB({0, 0}, {60, 60}));
  service.add_field("default", std::move(empty));
  const Response response =
      service.handle(point_request(Endpoint::kLocalize, {{12, 12}}));
  ASSERT_EQ(response.estimates.size(), 1u);
  EXPECT_EQ(response.estimates[0].connected, 0u);
}

TEST(Service, HandleBatchMatchesIndividualHandles) {
  const std::vector<Vec2> probes = {{12, 12}, {50, 50}, {20, 15}, {0, 0}};
  std::vector<Request> requests;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    Request request = point_request(
        i % 2 == 0 ? Endpoint::kLocalize : Endpoint::kErrorAt, {probes[i]});
    request.seq = i + 1;
    requests.push_back(std::move(request));
  }

  LocalizationService batched(test_config());
  batched.add_field("default", make_field());
  const std::vector<Response> batch = batched.handle_batch(requests);

  LocalizationService solo(test_config());
  solo.add_field("default", make_field());
  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(batch[i], solo.handle(requests[i])) << "request " << i;
  }
}

TEST(Service, HandleBatchMixedFieldsFallsBackCorrectly) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  service.add_field("second", make_field());
  std::vector<Request> requests;
  Request a = point_request(Endpoint::kLocalize, {{12, 12}});
  a.field = "default";
  Request b = point_request(Endpoint::kLocalize, {{12, 12}});
  b.field = "second";
  Request c;
  c.endpoint = Endpoint::kListFields;
  requests = {a, b, c};
  const std::vector<Response> out = service.handle_batch(requests);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].status, Status::kOk);
  EXPECT_EQ(out[1].status, Status::kOk);
  EXPECT_EQ(out[0].estimates.size(), 1u);
  EXPECT_NE(out[2].text.find("second"), std::string::npos);
}

std::string field_file_text() {
  std::ostringstream out;
  write_field(out, make_field());
  return out.str();
}

Request install_request(std::uint64_t version) {
  Request install;
  install.seq = 1;
  install.endpoint = Endpoint::kSnapshot;
  install.field = "default";
  install.text = field_file_text();
  install.version = version;
  return install;
}

Request mutate_request(std::uint64_t version, std::vector<Vec2> points) {
  Request mutate;
  mutate.seq = 2;
  mutate.endpoint = Endpoint::kMutate;
  mutate.field = "default";
  mutate.version = version;
  mutate.points = std::move(points);
  return mutate;
}

TEST(Service, MutateAppliesInVersionOrder) {
  LocalizationService service(test_config());
  ASSERT_EQ(service.handle(install_request(1)).status, Status::kOk);
  const Response applied = service.handle(mutate_request(2, {{20, 20}}));
  ASSERT_EQ(applied.status, Status::kOk) << applied.message;
  EXPECT_EQ(applied.mutation_ack, 2u);
  EXPECT_EQ(applied.version, 2u);
  ASSERT_EQ(applied.positions.size(), 1u);
  EXPECT_EQ(applied.positions[0], Vec2(20, 20));
  ASSERT_EQ(applied.beacon_ids.size(), 1u);
  EXPECT_EQ(applied.beacon_ids[0], 4u) << "ids continue the snapshot's";
  EXPECT_EQ(service.field_version("default"), 2u);
}

TEST(Service, MutateAtOrBelowHeldVersionAcksWithoutReapplying) {
  LocalizationService service(test_config());
  service.handle(install_request(1));
  service.handle(mutate_request(2, {{20, 20}}));
  // The same mutation delivered again (lost ack, replay overlap): ack at
  // the held version, no double-deployed beacon.
  const Response replay = service.handle(mutate_request(2, {{20, 20}}));
  ASSERT_EQ(replay.status, Status::kOk);
  EXPECT_EQ(replay.mutation_ack, 2u);
  EXPECT_TRUE(replay.beacon_ids.empty());
  Request snapshot;
  snapshot.endpoint = Endpoint::kSnapshot;
  snapshot.field = "default";
  std::istringstream in(service.handle(snapshot).text);
  EXPECT_EQ(read_field(in).size(), make_field().size() + 1);
}

TEST(Service, MutateWithAGapIsVersionMismatch) {
  LocalizationService service(test_config());
  service.handle(install_request(1));
  // Version 3 would skip version 2: the replica is lagging and must be
  // repaired (replay or install), never apply out of order.
  const Response gapped = service.handle(mutate_request(3, {{20, 20}}));
  EXPECT_EQ(gapped.status, Status::kVersionMismatch);
  EXPECT_EQ(gapped.version, 1u) << "the mismatch carries the held version";
  EXPECT_EQ(service.field_version("default"), 1u);
}

TEST(Service, MutateValidation) {
  LocalizationService service(test_config());
  service.handle(install_request(1));
  EXPECT_EQ(service.handle(mutate_request(0, {{20, 20}})).status,
            Status::kBadRequest)
      << "a mutate must carry the version it establishes";
  EXPECT_EQ(service.handle(mutate_request(2, {})).status,
            Status::kBadRequest);
  // Unknown deployment: retryable mismatch (at version 0) so the sender's
  // install-then-retry repair path self-heals.
  Request unknown = mutate_request(2, {{20, 20}});
  unknown.field = "ghost";
  EXPECT_EQ(service.handle(unknown).status, Status::kVersionMismatch);
}

TEST(Service, VersionProbeAnswersHeldVersion) {
  LocalizationService service(test_config());
  Request probe;
  probe.endpoint = Endpoint::kVersion;
  probe.field = "default";
  // Unknown deployment probes ok at version 0 — real versions start at 1.
  Response answer = service.handle(probe);
  ASSERT_EQ(answer.status, Status::kOk);
  EXPECT_EQ(answer.version, 0u);
  service.handle(install_request(1));
  service.handle(mutate_request(2, {{20, 20}}));
  answer = service.handle(probe);
  ASSERT_EQ(answer.status, Status::kOk);
  EXPECT_EQ(answer.version, 2u);
}

TEST(Service, ReadFenceIsOneSided) {
  LocalizationService service(test_config());
  service.handle(install_request(1));
  service.handle(mutate_request(2, {{20, 20}}));
  Request read = point_request(Endpoint::kLocalize, {{12, 12}});
  read.field = "default";
  // A replica *ahead* of the fence has absorbed every write the fence
  // guarantees: it serves.
  read.version = 1;
  EXPECT_EQ(service.handle(read).status, Status::kOk);
  read.version = 2;
  EXPECT_EQ(service.handle(read).status, Status::kOk);
  // Only a *lagging* replica answers the retryable mismatch.
  read.version = 3;
  const Response lagging = service.handle(read);
  EXPECT_EQ(lagging.status, Status::kVersionMismatch);
  EXPECT_EQ(lagging.version, 2u);
}

TEST(Service, AddBeaconDuplicateIdCollectsTheOriginalAck) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Request add = point_request(Endpoint::kAddBeacon, {{55, 5}});
  add.field = "default";
  add.request_id = 77;
  const Response first = service.handle(add);
  ASSERT_EQ(first.status, Status::kOk);
  // The duplicate delivery re-collects the original ack — same positions,
  // same beacon ids, and above all no second beacon.
  add.attempt = 1;
  const Response replay = service.handle(add);
  ASSERT_EQ(replay.status, Status::kOk);
  EXPECT_EQ(replay.positions, first.positions);
  EXPECT_EQ(replay.beacon_ids, first.beacon_ids);
  Request snapshot;
  snapshot.endpoint = Endpoint::kSnapshot;
  snapshot.field = "default";
  std::istringstream in(service.handle(snapshot).text);
  EXPECT_EQ(read_field(in).size(), make_field().size() + 1);
}

TEST(Service, AddBeaconRetryBeyondTheWindowIsDedupExpired) {
  ServiceConfig config = test_config();
  config.dedup_window = 2;
  LocalizationService service(config);
  service.add_field("default", make_field());
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Request add = point_request(Endpoint::kAddBeacon, {{double(id), 1}});
    add.field = "default";
    add.request_id = id;
    ASSERT_EQ(service.handle(add).status, Status::kOk);
  }
  // Id 1 was evicted from the 2-entry window: the retry is unanswerable
  // and must be refused, never silently re-applied.
  Request stale = point_request(Endpoint::kAddBeacon, {{1, 1}});
  stale.field = "default";
  stale.request_id = 1;
  stale.attempt = 1;
  EXPECT_EQ(service.handle(stale).status, Status::kDedupExpired);
  // A *first* delivery of a fresh id is never ambiguous: it still applies.
  Request fresh = point_request(Endpoint::kAddBeacon, {{4, 1}});
  fresh.field = "default";
  fresh.request_id = 4;
  EXPECT_EQ(service.handle(fresh).status, Status::kOk);
}

TEST(Service, MutateRecordsTheRequestIdForReplayedDedup) {
  // A replica rebuilt from the mutation log must hold the same dedup state
  // as a replica that saw the live write: the mutate carries the id.
  LocalizationService service(test_config());
  service.handle(install_request(1));
  Request mutate = mutate_request(2, {{20, 20}});
  mutate.request_id = 55;
  ASSERT_EQ(service.handle(mutate).status, Status::kOk);
  // A client retry landing on this replica directly finds the id.
  Request retry = point_request(Endpoint::kAddBeacon, {{20, 20}});
  retry.field = "default";
  retry.request_id = 55;
  retry.attempt = 1;
  const Response deduped = service.handle(retry);
  ASSERT_EQ(deduped.status, Status::kOk);
  EXPECT_EQ(deduped.beacon_ids, std::vector<std::uint32_t>{4u});
  EXPECT_EQ(service.field_version("default"), 2u) << "no second apply";
  // The idempotent re-delivery of the same mutate doesn't re-record.
  ASSERT_EQ(service.handle(mutate).status, Status::kOk);
  EXPECT_EQ(service.field_version("default"), 2u);
}

TEST(Service, SnapshotInstallResetsDedupHistory) {
  LocalizationService service(test_config());
  service.handle(install_request(1));
  Request add = point_request(Endpoint::kAddBeacon, {{20, 20}});
  add.field = "default";
  add.request_id = 66;
  ASSERT_EQ(service.handle(add).status, Status::kOk);
  // A later snapshot install (resync) folds the write into the field text
  // and discards the id history — the retry is now ambiguous.
  ASSERT_EQ(service.handle(install_request(3)).status, Status::kOk);
  Request retry = add;
  retry.attempt = 1;
  EXPECT_EQ(service.handle(retry).status, Status::kDedupExpired);
}

TEST(Service, StaleInstallOfOneIncarnationIsSkipped) {
  LocalizationService service(test_config());
  Request newer = install_request(3);
  newer.incarnation = 7;
  ASSERT_EQ(service.handle(newer).status, Status::kOk);
  // An older snapshot from the same router, run after the newer one (as a
  // multi-worker server may run two pipelined installs), is acked at the
  // version held and changes nothing.
  BeaconField smaller(make_field().bounds());
  smaller.add({5, 5});
  std::ostringstream text;
  write_field(text, smaller);
  Request older = install_request(2);
  older.incarnation = 7;
  older.text = text.str();
  const Response skipped = service.handle(older);
  ASSERT_EQ(skipped.status, Status::kOk) << skipped.message;
  EXPECT_EQ(skipped.version, 3u);
  EXPECT_EQ(service.field_version("default"), 3u);
  Request fetch;
  fetch.endpoint = Endpoint::kSnapshot;
  EXPECT_EQ(service.handle(fetch).text, field_file_text());
  // Another incarnation (a restarted router, versions from 1) applies,
  // and so does an unfenced install.
  older.incarnation = 8;
  older.version = 1;
  ASSERT_EQ(service.handle(older).status, Status::kOk);
  EXPECT_EQ(service.field_version("default"), 1u);
  EXPECT_EQ(service.handle(fetch).text, text.str());
  Request unfenced = install_request(1);
  ASSERT_EQ(service.handle(newer).status, Status::kOk);
  ASSERT_EQ(service.handle(unfenced).status, Status::kOk);
  EXPECT_EQ(service.field_version("default"), 1u);
}

TEST(Service, TooManyProposalsIsBadRequest) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Request request;
  request.endpoint = Endpoint::kPropose;
  request.algorithm = "grid";
  request.count = 1000;
  EXPECT_EQ(service.handle(request).status, Status::kBadRequest);
}

TEST(Service, RejectsInvalidDeploymentName) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  EXPECT_THROW(service.add_field("bad name", make_field()), CheckFailure);
}

/// A snapshot install of `text` into `name`.
Request install_text_request(const std::string& name, std::string text,
                             std::uint64_t version) {
  Request install = install_request(version);
  install.field = name;
  install.text = std::move(text);
  return install;
}

/// A field body whose bounds are narrower than one lattice step: it parses,
/// but no lattice can be built over it.
constexpr const char* kDegenerateField = "abp-field 1\nbounds 0 0 0 0\n";

/// The wire bytes of every read of `name` a client can make.
std::string observe(LocalizationService& service, const std::string& name) {
  Request localize = point_request(Endpoint::kLocalize, {{12, 12}});
  localize.field = name;
  Request snapshot;
  snapshot.endpoint = Endpoint::kSnapshot;
  snapshot.field = name;
  Request version;
  version.endpoint = Endpoint::kVersion;
  version.field = name;
  return format_response(service.handle(localize)) +
         format_response(service.handle(snapshot)) +
         format_response(service.handle(version));
}

TEST(Service, UnbuildableInstallLeavesTheDeploymentUntouched) {
  LocalizationService service(test_config());
  ASSERT_EQ(service.handle(install_request(1)).status, Status::kOk);
  ASSERT_EQ(service.handle(mutate_request(2, {{12, 14}})).status,
            Status::kOk);
  const std::string before = observe(service, "default");
  const Response refused =
      service.handle(install_text_request("default", kDegenerateField, 3));
  EXPECT_EQ(refused.status, Status::kBadRequest);
  EXPECT_EQ(refused.message.rfind("snapshot install rejected: ", 0), 0u)
      << refused.message;
  EXPECT_EQ(observe(service, "default"), before);
  EXPECT_EQ(service.field_version("default"), 2u);
}

TEST(Service, UnbuildableInstallCreatesNoDeployment) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  const Response refused =
      service.handle(install_text_request("fresh", kDegenerateField, 1));
  EXPECT_EQ(refused.status, Status::kBadRequest);
  EXPECT_EQ(refused.message.rfind("snapshot install rejected: ", 0), 0u)
      << refused.message;
  Request list;
  list.endpoint = Endpoint::kListFields;
  EXPECT_EQ(service.handle(list).text, "default\n");
  EXPECT_EQ(service.field_version("fresh"), 0u);
}

TEST(Service, OversizedLatticeInstallIsRefusedBeforeAllocating) {
  // 10^24 lattice points: the one lattice cap refuses it while sizing.
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  const std::string before = observe(service, "default");
  for (const char* name : {"default", "fresh"}) {
    const Response refused = service.handle(install_text_request(
        name, "abp-field 1\nbounds 0 0 1e12 1e12\n", 5));
    EXPECT_EQ(refused.status, Status::kBadRequest) << name;
    EXPECT_NE(refused.message.find("too large"), std::string::npos)
        << refused.message;
  }
  EXPECT_EQ(observe(service, "default"), before);
  EXPECT_EQ(service.field_names(), std::vector<std::string>{"default"});
}

// Readers answer point queries and version probes while one writer applies
// add-beacons, mutates and one install. Every read must be the answer of
// some state the writes pass through, each reader's versions must never go
// backwards, and the end state must equal a serial replay's.
TEST(ServiceConcurrency, ReadsDuringWritesAnswerFromPublishedStates) {
  // Twelve writes near the probes: add-beacons (at the version held)
  // alternate with mutates (each at the next version), and the sixth write
  // installs another field at the next version instead.
  std::vector<Request> writes;
  Request add = point_request(Endpoint::kAddBeacon, {});
  add.field = "default";
  std::uint64_t version = 1;
  for (int k = 0; k < 12; ++k) {
    const Vec2 near{8.0 + 3.5 * k, 8.0 + 3.0 * (k % 5)};
    if (k % 2 == 0) {
      add.points = {near};
      writes.push_back(add);
    } else if (k == 5) {
      BeaconField replacement = make_field();
      replacement.add({14, 14});
      std::ostringstream text;
      write_field(text, replacement);
      writes.push_back(install_text_request("default", text.str(), ++version));
    } else {
      writes.push_back(mutate_request(++version, {near, {50, 50}}));
    }
  }
  std::vector<Request> probes;
  for (const Vec2 p : std::vector<Vec2>{{12, 12}, {20, 12}, {30, 14}}) {
    for (const Endpoint e : {Endpoint::kLocalize, Endpoint::kErrorAt}) {
      probes.push_back(point_request(e, {p, {p.x + 5, p.y + 3}}));
    }
  }

  // Serial reference: each probe's answer in every state the writes reach.
  LocalizationService reference(test_config());
  reference.handle(install_request(1));
  std::vector<std::set<std::string>> allowed(probes.size());
  const auto record = [&] {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      allowed[i].insert(format_response(reference.handle(probes[i])));
    }
  };
  record();
  for (const Request& write : writes) {
    ASSERT_EQ(reference.handle(write).status, Status::kOk);
    record();
  }
  ASSERT_GT(allowed[0].size(), 2u) << "the writes must move the answers";

  LocalizationService service(test_config());
  service.handle(install_request(1));
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> rounds{0};
  std::atomic<std::uint64_t> bad_reads{0};
  std::atomic<std::uint64_t> backward_versions{0};
  const auto reader = [&](bool batched) {
    Request probe;
    probe.endpoint = Endpoint::kVersion;
    std::uint64_t last = 0;
    while (!done.load()) {
      const std::uint64_t held = service.handle(probe).version;
      if (held < last) ++backward_versions;
      last = held;
      std::vector<Response> answers;
      if (batched) {
        answers = service.handle_batch(probes);
      } else {
        for (const Request& r : probes) answers.push_back(service.handle(r));
      }
      for (std::size_t i = 0; i < probes.size(); ++i) {
        if (allowed[i].count(format_response(answers[i])) == 0) ++bad_reads;
      }
      ++rounds;
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader, r % 2 == 0);
  for (const Request& write : writes) {
    // Let the readers finish a few rounds against each state.
    const std::uint64_t seen = rounds.load();
    while (rounds.load() < seen + 3) std::this_thread::yield();
    EXPECT_EQ(service.handle(write).status, Status::kOk);
  }
  const std::uint64_t seen = rounds.load();
  while (rounds.load() < seen + 3) std::this_thread::yield();
  done = true;
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(backward_versions.load(), 0u);
  EXPECT_EQ(observe(service, "default"), observe(reference, "default"));
  for (const Request& r : probes) {
    EXPECT_EQ(format_response(service.handle(r)),
              format_response(reference.handle(r)));
  }
}

}  // namespace
}  // namespace abp::serve
