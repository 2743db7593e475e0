/// Chaos suite: the serving stack under deterministic fault injection.
///
/// Every test drives seeded, scriptable faults (`FaultTransport`) through
/// the real wire codec against a real `Server` and asserts the resilience
/// contract from three angles:
///  * liveness — the server answers or sheds every submission and never
///    deadlocks; after drain, queue depth and in-flight are both zero;
///  * accounting — the admission identity holds exactly:
///    submitted == completed + shed-overloaded + shed-unavailable +
///    shed-deadline;
///  * client discipline — the retrying client converges through transient
///    faults, never retries terminal statuses, and respects its deadline
///    budget on a virtual clock (no test here sleeps real time except the
///    threaded stress and the TCP slow-loris cases).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/field_io.h"
#include "serve/client.h"
#include "serve/fault_transport.h"
#include "serve/server.h"
#include "serve/server_transport.h"
#include "serve/tcp_transport.h"
#include "serve/transport.h"

namespace abp::serve {
namespace {

BeaconField make_field() {
  BeaconField field(AABB({0, 0}, {60, 60}));
  field.add({10, 10});
  field.add({30, 10});
  field.add({10, 30});
  return field;
}

ServiceConfig test_config() {
  ServiceConfig config;
  config.lattice_step = 2.0;
  return config;
}

Request localize_request(std::uint64_t seq, std::uint32_t deadline_ms = 0) {
  Request request;
  request.seq = seq;
  request.endpoint = Endpoint::kLocalize;
  request.points = {{12, 12}};
  request.deadline_ms = deadline_ms;
  return request;
}

/// Manual-mode server on a manual clock: every exchange and every
/// millisecond is under test control.
struct ManualRig {
  ManualClock clock;
  LocalizationService service{test_config()};
  Server server;

  explicit ManualRig(std::size_t max_queue = 0)
      : server(service, options(max_queue, clock)) {
    service.add_field("default", make_field());
  }

  static Server::Options options(std::size_t max_queue, ManualClock& clock) {
    Server::Options options;
    options.workers = 0;
    options.max_batch = 8;
    options.max_queue = max_queue;
    options.clock_ms = clock.fn();
    return options;
  }

  ServiceMetrics& metrics() { return service.metrics(); }

  /// The liveness + accounting contract every chaos scenario must satisfy
  /// once the dust settles.
  void expect_reconciled(const char* context) {
    EXPECT_EQ(server.queue_depth(), 0u) << context;
    EXPECT_EQ(server.in_flight(), 0u) << context;
    EXPECT_EQ(metrics().submitted(),
              metrics().completed() + metrics().shed_total())
        << context;
  }
};

RetryingClient make_client(FaultTransport& transport, ManualClock& clock,
                           RetryPolicy policy) {
  RetryingClient client([&transport] { return borrow_transport(transport); },
                        policy);
  client.set_clock(clock.fn());
  client.set_sleeper([&clock](double ms) { clock.advance(ms); });
  return client;
}

TEST(Chaos, EveryFaultClassDrainsAndReconciles) {
  for (const FaultKind kind : kAllFaultKinds) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(std::string(fault_kind_name(kind)) + " seed " +
                   std::to_string(seed));
      ManualRig rig;
      FaultTransport::Options fault_options;
      fault_options.script =
          FaultScript({{kind, 60.0}}, /*cycle=*/true);  // fault every time
      fault_options.seed = seed;
      fault_options.clock = &rig.clock;
      FaultTransport transport(rig.server, fault_options);

      RetryPolicy policy;
      policy.max_attempts = 4;
      policy.base_backoff_ms = 5.0;
      policy.seed = seed;
      RetryingClient client = make_client(transport, rig.clock, policy);

      for (std::uint64_t seq = 1; seq <= 4; ++seq) {
        const CallResult result =
            client.call(localize_request(seq, /*deadline_ms=*/30));
        // The client must terminate cleanly: either a final response or a
        // transport diagnostic, never an exception or a hang.
        EXPECT_LE(result.attempts, policy.max_attempts);
        EXPECT_GE(result.attempts, 1u);
        if (result.ok) {
          EXPECT_NE(result.response.status, Status::kUnavailable);
        } else {
          EXPECT_FALSE(result.error.empty());
        }
        if (kind == FaultKind::kNone) {
          ASSERT_TRUE(result.ok);
          EXPECT_EQ(result.response.status, Status::kOk);
          EXPECT_EQ(result.attempts, 1u);
        }
        if (kind == FaultKind::kCorruptRequest) {
          // Whatever the flipped bit produced — a still-valid request, a
          // framing error, a malformed payload, or an unknown deployment —
          // it is answered terminally on the first try, never retried.
          ASSERT_TRUE(result.ok);
          EXPECT_EQ(result.attempts, 1u);
          EXPECT_FALSE(status_retryable(result.response.status))
              << status_name(result.response.status);
        }
        if (kind == FaultKind::kStallBeforeExecute) {
          // 60 ms stall against a 30 ms deadline: every attempt is shed
          // before execution, and the client fails cleanly with the shed
          // status after exhausting its retries.
          ASSERT_TRUE(result.ok);
          EXPECT_EQ(result.response.status, Status::kDeadlineExceeded);
          EXPECT_EQ(result.attempts, policy.max_attempts);
        }
      }
      rig.server.pump();  // anything still queued must drain
      rig.expect_reconciled(fault_kind_name(kind));
      if (kind == FaultKind::kStallBeforeExecute) {
        EXPECT_EQ(rig.metrics().completed(), 0u);
        EXPECT_EQ(rig.metrics().shed(Status::kDeadlineExceeded), 16u);
      }
    }
  }
}

TEST(Chaos, TransientConnectionFaultsConvergeOnRetry) {
  // One fault then a clean exchange, cycling: the second attempt always
  // lands, so the client must converge with exactly two attempts.
  const FaultKind transient[] = {
      FaultKind::kResetBeforeSend, FaultKind::kResetAfterSend,
      FaultKind::kTruncateRequest, FaultKind::kTruncateResponse,
      FaultKind::kSlowLorisRequest};
  for (const FaultKind kind : transient) {
    SCOPED_TRACE(fault_kind_name(kind));
    ManualRig rig;
    FaultTransport::Options fault_options;
    fault_options.script = FaultScript({{kind, 5.0}, {FaultKind::kNone, 0.0}});
    fault_options.clock = &rig.clock;
    FaultTransport transport(rig.server, fault_options);

    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.base_backoff_ms = 5.0;
    RetryingClient client = make_client(transport, rig.clock, policy);

    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      const CallResult result = client.call(localize_request(seq));
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(result.response.status, Status::kOk);
      EXPECT_EQ(result.response.seq, seq);
      EXPECT_EQ(result.attempts, 2u);
      EXPECT_EQ(result.transport_errors, 1u);
      EXPECT_GT(result.backoff_ms, 0.0);
    }
    rig.expect_reconciled(fault_kind_name(kind));
  }
}

TEST(Chaos, DeadlineExpiredInQueueIsShedNotComputed) {
  ManualRig rig;
  std::vector<Response> replies(3);
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    rig.server.submit(
        format_request(localize_request(seq + 1, /*deadline_ms=*/50)),
        [&replies, seq](std::string payload) {
          replies[seq] = *parse_response(payload);
        });
  }
  EXPECT_EQ(rig.server.queue_depth(), 3u);
  rig.clock.advance(100.0);  // all three age past their deadline in-queue
  rig.server.pump();
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    EXPECT_EQ(replies[seq].status, Status::kDeadlineExceeded);
    EXPECT_EQ(replies[seq].seq, seq + 1);
  }
  // Shed before execution: no batch ever ran, nothing was computed.
  EXPECT_EQ(rig.metrics().batches(), 0u);
  EXPECT_EQ(rig.metrics().completed(), 0u);
  EXPECT_EQ(rig.metrics().shed(Status::kDeadlineExceeded), 3u);
  rig.expect_reconciled("deadline shed");
}

TEST(Chaos, ExpiredAndLiveRequestsCoalesceCorrectly) {
  ManualRig rig;
  std::vector<Response> replies(2);
  // Request 1 (20 ms deadline) expires while request 2 (no deadline) stays
  // live; both coalesce into one take_batch and must split shed/computed.
  rig.server.submit(format_request(localize_request(1, 20)),
                    [&replies](std::string payload) {
                      replies[0] = *parse_response(payload);
                    });
  rig.server.submit(format_request(localize_request(2)),
                    [&replies](std::string payload) {
                      replies[1] = *parse_response(payload);
                    });
  rig.clock.advance(30.0);
  rig.server.pump();
  EXPECT_EQ(replies[0].status, Status::kDeadlineExceeded);
  EXPECT_EQ(replies[1].status, Status::kOk);
  EXPECT_EQ(rig.metrics().completed(), 1u);
  EXPECT_EQ(rig.metrics().shed(Status::kDeadlineExceeded), 1u);
  EXPECT_EQ(rig.metrics().batches(), 1u);
  rig.expect_reconciled("mixed batch");
}

TEST(Chaos, QueueDepthAdmissionShedsBeforeEnqueue) {
  ManualRig rig(/*max_queue=*/2);
  std::vector<Status> statuses(5, Status::kInternal);
  std::vector<bool> answered(5, false);
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    rig.server.submit(format_request(localize_request(seq + 1)),
                      [&statuses, &answered, seq](std::string payload) {
                        statuses[seq] = parse_response(payload)->status;
                        answered[seq] = true;
                      });
  }
  // Rejections are answered synchronously, before any pump.
  EXPECT_FALSE(answered[0]);
  EXPECT_FALSE(answered[1]);
  for (std::size_t i = 2; i < 5; ++i) {
    ASSERT_TRUE(answered[i]);
    EXPECT_EQ(statuses[i], Status::kOverloaded);
  }
  rig.server.pump();
  EXPECT_EQ(statuses[0], Status::kOk);
  EXPECT_EQ(statuses[1], Status::kOk);
  EXPECT_EQ(rig.metrics().completed(), 2u);
  EXPECT_EQ(rig.metrics().shed(Status::kOverloaded), 3u);
  rig.expect_reconciled("queue admission");
}

TEST(Chaos, ClientConvergesThroughOverload) {
  ManualRig rig(/*max_queue=*/1);
  // A filler request parks in the queue, so the client's first attempt is
  // shed `overloaded`; the loopback pump that answers the attempt also
  // drains the filler, so the retry is admitted and succeeds.
  bool filler_answered = false;
  rig.server.submit(format_request(localize_request(99)),
                    [&filler_answered](std::string) {
                      filler_answered = true;
                    });
  LoopbackTransport loopback(rig.server);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_ms = 5.0;
  RetryingClient client([&loopback] { return borrow_transport(loopback); },
                        policy);
  client.set_clock(rig.clock.fn());
  client.set_sleeper([&rig](double ms) { rig.clock.advance(ms); });

  const CallResult result = client.call(localize_request(1));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.status, Status::kOk);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_TRUE(filler_answered);
  EXPECT_EQ(rig.metrics().shed(Status::kOverloaded), 1u);
  rig.expect_reconciled("overload retry");
}

TEST(Chaos, ClientNeverRetriesTerminalStatuses) {
  ManualRig rig;
  LoopbackTransport loopback(rig.server);
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryingClient client([&loopback] { return borrow_transport(loopback); },
                        policy);
  client.set_clock(rig.clock.fn());
  client.set_sleeper([&rig](double ms) { rig.clock.advance(ms); });

  Request missing = localize_request(7);
  missing.field = "no-such-deployment";
  const CallResult result = client.call(missing);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.status, Status::kNotFound);
  EXPECT_EQ(result.attempts, 1u);  // terminal: one attempt, zero backoff
  EXPECT_EQ(result.backoff_ms, 0.0);
  rig.expect_reconciled("terminal status");
}

TEST(Chaos, ClientRetriesVersionMismatch) {
  // Regression guard: `version-mismatch` is retryable. In the cluster the
  // router repairs a stale replica in-band and retries, so a client that
  // treated the status as terminal would surface transient staleness as a
  // hard error. This rig never repairs, so the client must spend its full
  // attempt budget before reporting the mismatch.
  ManualRig rig;
  LoopbackTransport loopback(rig.server);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 5.0;
  RetryingClient client([&loopback] { return borrow_transport(loopback); },
                        policy);
  client.set_clock(rig.clock.fn());
  client.set_sleeper([&rig](double ms) { rig.clock.advance(ms); });

  ASSERT_TRUE(status_retryable(Status::kVersionMismatch));
  Request stale = localize_request(21);
  stale.field = "default";
  stale.version = 2;  // the rig's deployment is unversioned: forever behind
  const CallResult result = client.call(stale);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.status, Status::kVersionMismatch);
  EXPECT_EQ(result.attempts, 3u) << "version-mismatch must be retried";
  EXPECT_GT(result.backoff_ms, 0.0);
  rig.expect_reconciled("version-mismatch retries");
}

TEST(Chaos, ClientDeadlineBudgetBoundsTheWholeCall) {
  ManualRig rig;
  FaultTransport::Options fault_options;
  // Every attempt stalls 30 ms in-queue against the request's 20 ms
  // deadline, so every attempt is shed and the budget, not max_attempts,
  // ends the call.
  fault_options.script =
      FaultScript({{FaultKind::kStallBeforeExecute, 30.0}});
  fault_options.clock = &rig.clock;
  FaultTransport transport(rig.server, fault_options);

  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.base_backoff_ms = 10.0;
  policy.deadline_budget_ms = 100.0;
  RetryingClient client = make_client(transport, rig.clock, policy);

  const double start = rig.clock.now_ms;
  const CallResult result = client.call(localize_request(1, /*deadline_ms=*/20));
  const double elapsed = rig.clock.now_ms - start;
  // Converged-or-failed *within* the budget (plus at most one in-flight
  // stall that straddles the boundary).
  EXPECT_LE(elapsed, policy.deadline_budget_ms + 30.0 + 1.0);
  EXPECT_LT(result.attempts, policy.max_attempts);
  ASSERT_TRUE(result.ok);  // fails cleanly with the last shed response
  EXPECT_EQ(result.response.status, Status::kDeadlineExceeded);
  rig.expect_reconciled("client budget");
}

TEST(Chaos, ThreadedServerSurvivesConcurrentFaultyClients) {
  // Real threads, real (tiny) sleeps: the TSan job runs this to hunt
  // races/deadlocks across submit/shed/drain under every fault class.
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = 2;
  options.max_batch = 4;
  options.max_queue = 16;
  Server server(service, options);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCallsPerThread = 12;
  std::atomic<std::size_t> terminated{0};
  {
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < kThreads; ++t) {
      clients.emplace_back([&server, &terminated, t] {
        FaultTransport::Options fault_options;
        fault_options.script = FaultScript({
            {FaultKind::kNone, 0.0},
            {FaultKind::kResetBeforeSend, 0.0},
            {FaultKind::kCorruptRequest, 0.0},
            {FaultKind::kResetAfterSend, 0.0},
            {FaultKind::kTruncateResponse, 0.0},
            {FaultKind::kStallBeforeExecute, 1.0},
        });
        fault_options.seed = 1000 + t;
        FaultTransport transport(server, fault_options);
        RetryPolicy policy;
        policy.max_attempts = 3;
        policy.base_backoff_ms = 0.1;
        policy.max_backoff_ms = 0.5;
        policy.seed = t;
        RetryingClient client(
            [&transport] { return borrow_transport(transport); }, policy);
        for (std::size_t i = 0; i < kCallsPerThread; ++i) {
          const CallResult result =
              client.call(localize_request(t * 1000 + i));
          (void)result;  // any clean termination counts
          terminated.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : clients) thread.join();
  }
  server.shutdown();
  EXPECT_EQ(terminated.load(), kThreads * kCallsPerThread);
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(server.in_flight(), 0u);
  EXPECT_EQ(service.metrics().submitted(),
            service.metrics().completed() + service.metrics().shed_total());
}

// ---- server-side retry-after hint --------------------------------------

TEST(Chaos, ClientHonorsServerRetryAfterHint) {
  // A loaded server spreads its retry storm by attaching `retry-after` to
  // every overloaded shed; the client must sleep exactly the hinted
  // duration instead of its jittered local backoff.
  ManualClock clock;
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = 0;
  options.max_batch = 8;
  options.max_queue = 1;
  options.retry_after_hint_ms = 40;
  options.clock_ms = clock.fn();
  Server server(service, options);

  // Park a filler so the first attempt is shed; the pump that answers the
  // attempt drains the filler, so the hinted retry is admitted.
  server.submit(format_request(localize_request(99)), [](std::string) {});
  LoopbackTransport loopback(server);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_ms = 5.0;
  RetryingClient client([&loopback] { return borrow_transport(loopback); },
                        policy);
  client.set_clock(clock.fn());
  client.set_sleeper([&clock](double ms) { clock.advance(ms); });

  const CallResult result = client.call(localize_request(1));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.status, Status::kOk);
  EXPECT_EQ(result.attempts, 2u);
  // Exactly the hint — any jitter from the local schedule would land in
  // [5, 15) for a first retry, never precisely 40.
  EXPECT_DOUBLE_EQ(result.backoff_ms, 40.0);
}

// ---- exactly-once writes under duplication and retry -------------------

TEST(Chaos, FaultKindTableIsComplete) {
  // Compile-time: the static_assert in fault_transport.h pins the table
  // size to the enumerator count. Runtime: order and names must agree too,
  // so a new kind spliced into the middle cannot silently shift the table.
  std::size_t index = 0;
  for (const FaultKind kind : kAllFaultKinds) {
    EXPECT_EQ(static_cast<std::size_t>(kind), index)
        << "kAllFaultKinds order drifted from the enum at index " << index;
    EXPECT_STRNE(fault_kind_name(kind), "unknown")
        << "enumerator " << index << " has no name";
    ++index;
  }
}

TEST(Chaos, RetryStormScriptIsSeededAndDuplicateHeavy) {
  auto draw = [](std::size_t steps, std::uint64_t seed) {
    FaultScript script = make_retry_storm_script(steps, seed, /*cycle=*/false);
    std::vector<FaultKind> kinds;
    for (std::size_t i = 0; i < steps; ++i) kinds.push_back(script.next().kind);
    return kinds;
  };
  const auto a = draw(64, 7);
  EXPECT_EQ(a, draw(64, 7)) << "same (steps, seed) must replay identically";
  EXPECT_NE(a, draw(64, 8));
  // The mix must actually exercise the dedup layer: duplicates and both
  // reset flavours all present in a modest draw.
  std::size_t duplicates = 0, resets = 0;
  for (const FaultKind kind : a) {
    duplicates += kind == FaultKind::kDuplicateRequest;
    resets += kind == FaultKind::kResetBeforeSend ||
              kind == FaultKind::kResetAfterSend;
  }
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(resets, 0u);
}

Request add_beacon(std::uint64_t seq) {
  Request add;
  add.seq = seq;
  add.endpoint = Endpoint::kAddBeacon;
  add.field = "default";
  add.points = {{50, 50}};
  return add;
}

std::size_t beacon_count(LocalizationService& service) {
  Request snapshot;
  snapshot.endpoint = Endpoint::kSnapshot;
  snapshot.field = "default";
  std::istringstream in(service.handle(snapshot).text);
  return read_field(in).size();
}

TEST(Chaos, DuplicateDeliveredWriteIsSuppressed) {
  // The network retransmits the add-beacon frame: the server sees it twice,
  // answers both, and deploys exactly one beacon — the duplicate collects
  // the original ack.
  ManualRig rig;
  FaultTransport::Options fault_options;
  fault_options.script = FaultScript({{FaultKind::kDuplicateRequest, 0.0}});
  fault_options.clock = &rig.clock;
  FaultTransport transport(rig.server, fault_options);

  Request add = add_beacon(1);
  add.request_id = 0xD1CEull;
  const Response response = transport.roundtrip(add);
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  ASSERT_EQ(response.beacon_ids.size(), 1u);
  EXPECT_EQ(beacon_count(rig.service), make_field().size() + 1);
  // Without an id the duplicate really does append twice — that is the
  // pre-dedup behaviour id-free clients keep.
  Request bare = add_beacon(2);
  ASSERT_EQ(transport.roundtrip(bare).status, Status::kOk);
  EXPECT_EQ(beacon_count(rig.service), make_field().size() + 3);
  rig.expect_reconciled("duplicate-request");
}

TEST(Chaos, ClientNeverRotatesTheRequestIdAcrossRetries) {
  // Regression: minting a fresh id per *attempt* (instead of per logical
  // write) would turn every retry after a lost ack into a double deploy.
  // Capture what actually reaches the server, fault the first two attempts.
  ManualRig rig;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> seen;
  auto exchange = [&rig, &seen](std::string frame) {
    FrameDecoder decoder;
    decoder.feed(frame);
    std::optional<std::string> payload = decoder.next();
    EXPECT_TRUE(payload.has_value());
    const std::optional<Request> request = parse_request(*payload);
    EXPECT_TRUE(request.has_value());
    seen.emplace_back(request->request_id, request->attempt);
    std::string out;
    rig.server.submit(std::move(*payload),
                      [&out](std::string reply) { out = std::move(reply); });
    rig.server.pump();
    return encode_frame(out);
  };
  FaultTransport::Options fault_options;
  fault_options.script = FaultScript({{FaultKind::kResetAfterSend, 0.0},
                                      {FaultKind::kResetBeforeSend, 0.0},
                                      {FaultKind::kNone, 0.0}});
  fault_options.clock = &rig.clock;
  FaultTransport transport(exchange, fault_options);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_ms = 5.0;
  RetryingClient client = make_client(transport, rig.clock, policy);
  client.set_request_id_source([] { return 0xABCDull; });

  const CallResult result = client.call(add_beacon(1));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.response.status, Status::kOk);
  EXPECT_EQ(result.attempts, 3u);
  // Attempt 1 executed (ack lost), attempt 2 never reached the wire,
  // attempt 3 collected the original ack via server-side dedup.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, 0xABCDull);
  EXPECT_EQ(seen[1].first, 0xABCDull) << "the id must never rotate";
  EXPECT_EQ(seen[0].second, 0u);
  EXPECT_EQ(seen[1].second, 2u) << "the attempt counter marks the retry";
  EXPECT_EQ(beacon_count(rig.service), make_field().size() + 1)
      << "exactly one beacon across the whole retried call";
}

TEST(Chaos, ClientMintsOneIdPerLogicalWrite) {
  ManualRig rig;
  std::vector<std::uint64_t> ids;
  auto exchange = [&rig, &ids](std::string frame) {
    FrameDecoder decoder;
    decoder.feed(frame);
    std::optional<std::string> payload = decoder.next();
    const std::optional<Request> request = parse_request(*payload);
    ids.push_back(request->request_id);
    std::string out;
    rig.server.submit(std::move(*payload),
                      [&out](std::string reply) { out = std::move(reply); });
    rig.server.pump();
    return encode_frame(out);
  };
  FaultTransport::Options fault_options;  // no faults
  fault_options.clock = &rig.clock;
  FaultTransport transport(exchange, fault_options);
  RetryingClient client(
      [&transport] { return borrow_transport(transport); }, RetryPolicy{});

  // Two logical writes: distinct nonzero minted ids.
  ASSERT_TRUE(client.call(add_beacon(1)).ok);
  ASSERT_TRUE(client.call(add_beacon(2)).ok);
  // A caller-supplied id is preserved verbatim; reads are never stamped.
  Request supplied = add_beacon(3);
  supplied.request_id = 424242;
  ASSERT_TRUE(client.call(supplied).ok);
  Request read = localize_request(4);
  read.field = "default";
  ASSERT_TRUE(client.call(read).ok);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_NE(ids[0], 0u);
  EXPECT_NE(ids[1], 0u);
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_EQ(ids[2], 424242u);
  EXPECT_EQ(ids[3], 0u);
}

// ---- faults over a real socket pair -------------------------------------

std::size_t open_fd_count() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator()));
}

/// Poll (bounded) until the transport's connection gauge reaches zero.
bool wait_for_no_connections(const ServerTransport& transport) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (transport.open_connections() == 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return transport.open_connections() == 0;
}

TEST(ChaosTcp, PipelinedBurstBeyondInflightCapIsShedInOrder) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service);
  TransportOptions options;
  options.max_inflight = 2;
  const auto transport =
      make_server_transport(TransportKind::kEpoll, server, options);
  transport->start();

  TcpClientTransport client("127.0.0.1", transport->port(), 5.0);
  // One write carrying 5 frames: at most 2 may be in flight, the rest of
  // the burst is shed `overloaded` before touching the queue.
  std::string burst;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    burst += encode_frame(format_request(localize_request(seq)));
  }
  client.send_raw(burst);
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  for (int i = 0; i < 5; ++i) {
    const std::optional<Response> response =
        parse_response(client.read_payload());
    ASSERT_TRUE(response.has_value());
    if (response->status == Status::kOk) ++ok;
    if (response->status == Status::kOverloaded) ++overloaded;
  }
  // Every frame is answered with ok or overloaded — never dropped. (The
  // exact split depends on how the kernel chunks the burst; a single
  // segment yields 2 ok + 3 overloaded.)
  EXPECT_EQ(ok + overloaded, 5u);
  EXPECT_GE(ok, 2u);
  // The connection survives shedding: a follow-up request succeeds.
  const Response after = client.roundtrip(localize_request(9));
  EXPECT_EQ(after.status, Status::kOk);
  transport->stop();
  server.shutdown();
  EXPECT_EQ(service.metrics().submitted(),
            service.metrics().completed() + service.metrics().shed_total());
}

TEST(ChaosTcp, SlowLorisPartialFrameTimesOutWithoutWedgingTheServer) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service);
  TransportOptions options;
  options.read_timeout_s = 0.15;
  const auto transport =
      make_server_transport(TransportKind::kEpoll, server, options);
  transport->start();

  // The slow loris delivers half a frame and then goes quiet.
  TcpClientTransport loris("127.0.0.1", transport->port(), 5.0);
  const std::string frame =
      encode_frame(format_request(localize_request(1)));
  loris.send_raw(frame.substr(0, frame.size() / 2));

  // A well-behaved client is served while the loris is still connected...
  TcpClientTransport good("127.0.0.1", transport->port(), 5.0);
  EXPECT_EQ(good.roundtrip(localize_request(2)).status, Status::kOk);

  // ...and the loris is dropped once its read timeout expires, freeing
  // the connection slot without wedging anything.
  bool dropped = false;
  for (int i = 0; i < 40 && !dropped; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    dropped = loris.closed_by_peer();
  }
  EXPECT_TRUE(dropped);
  // A fresh connection (the idle timeout has dropped `good` too by now)
  // is served normally: no slot or thread was wedged by the loris.
  TcpClientTransport fresh("127.0.0.1", transport->port(), 5.0);
  EXPECT_EQ(fresh.roundtrip(localize_request(3)).status, Status::kOk);
  transport->stop();
  server.shutdown();
}

TEST(ChaosTcp, FaultyClientFleetLeavesNoFdOrSlotLeak) {
  // Every socket-level misbehavior in one fleet:
  // corrupt framing, a half-frame followed by an abrupt close, a pipelined
  // burst past the in-flight cap, an idle connection that must time out,
  // and a well-behaved pipeliner. Afterwards the transport must report
  // zero open connections, the process must hold no extra fds, and the
  // admission identity must reconcile exactly.
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options server_options;
  server_options.workers = 2;
  server_options.max_batch = 8;
  Server server(service, server_options);
  TransportOptions options;
  options.max_inflight = 2;
  options.read_timeout_s = 0.2;
  options.event_shards = 2;
  const auto transport =
      make_server_transport(TransportKind::kEpoll, server, options);
  transport->start();
  const std::size_t baseline_fds = open_fd_count();

  {
    // (a) corrupt framing: answered bad-request, then server-closed.
    TcpClientTransport garbage("127.0.0.1", transport->port(), 5.0);
    garbage.send_raw("%%% definitely not a frame %%%\n");
    const auto diagnostic = parse_response(garbage.read_payload());
    ASSERT_TRUE(diagnostic.has_value());
    EXPECT_EQ(diagnostic->status, Status::kBadRequest);

    // (b) half a frame, then the client vanishes mid-request.
    TcpClientTransport quitter("127.0.0.1", transport->port(), 5.0);
    const std::string frame =
        encode_frame(format_request(localize_request(1)));
    quitter.send_raw(frame.substr(0, frame.size() / 2));

    // (c) burst past the in-flight cap; read every answer, then leave.
    TcpClientTransport burster("127.0.0.1", transport->port(), 5.0);
    std::string burst;
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      burst += encode_frame(format_request(localize_request(seq)));
    }
    burster.send_raw(burst);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(parse_response(burster.read_payload()).has_value());
    }

    // (d) connects and never says anything: the read timeout reaps it.
    TcpClientTransport idler("127.0.0.1", transport->port(), 5.0);

    // (e) a well-behaved pipelined client sees clean service throughout.
    TcpClientTransport good("127.0.0.1", transport->port(), 5.0);
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      good.send_async(localize_request(seq), [](std::string) {});
    }
    good.flush();
    EXPECT_EQ(good.roundtrip(localize_request(9)).status, Status::kOk);
  }  // all five client sockets close here

  EXPECT_TRUE(wait_for_no_connections(*transport))
      << "open=" << transport->open_connections();
  EXPECT_EQ(open_fd_count(), baseline_fds);
  EXPECT_EQ(transport->connections_accepted(), 5u);
  transport->stop();
  EXPECT_EQ(transport->open_connections(), 0u);
  server.shutdown();
  EXPECT_EQ(service.metrics().submitted(),
            service.metrics().completed() + service.metrics().shed_total());
}

}  // namespace
}  // namespace abp::serve
