#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <vector>

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

Request localize_request(std::uint64_t seq, Vec2 point) {
  Request request;
  request.seq = seq;
  request.endpoint = Endpoint::kLocalize;
  request.points = {point};
  return request;
}

TEST(Server, LoopbackRoundTrip) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service);
  LoopbackTransport transport(server);

  const Response response = transport.roundtrip(localize_request(5, {12, 12}));
  EXPECT_EQ(response.seq, 5u);
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  ASSERT_EQ(response.estimates.size(), 1u);
  EXPECT_GT(response.estimates[0].connected, 0u);
  EXPECT_EQ(service.metrics().completed(), 1u);
}

TEST(Server, UnparseablePayloadGetsBadRequestReply) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service);

  std::vector<std::string> replies;
  server.submit("this is not a request\n",
                [&](std::string payload) { replies.push_back(payload); });
  // The reply is immediate — no pump needed for a parse failure.
  ASSERT_EQ(replies.size(), 1u);
  const auto response = parse_response(replies[0]);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kBadRequest);
  EXPECT_EQ(service.metrics().counts().bad_frames, 1u);
  EXPECT_EQ(service.metrics().completed(), 0u);
}

TEST(Server, ManualModeCoalescesPointQueries) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = 0;
  options.max_batch = 4;
  Server server(service, options);

  std::atomic<int> replies{0};
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    server.submit(format_request(localize_request(seq, {12, 12})),
                  [&](std::string) { ++replies; });
  }
  EXPECT_EQ(replies.load(), 0);  // nothing runs before pump()
  server.pump();
  EXPECT_EQ(replies.load(), 10);
  // 10 queued point queries at max_batch=4 → batches of 4, 4, 2.
  EXPECT_EQ(service.metrics().batches(), 3u);
  EXPECT_EQ(service.metrics().completed(), 10u);
  EXPECT_EQ(service.metrics().batches(), 3u);
  EXPECT_EQ(service.metrics().coalesced_requests(), 10u);
}

TEST(Server, NonBatchableRequestsRunIndividually) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.max_batch = 8;
  Server server(service, options);

  Request stats;
  stats.endpoint = Endpoint::kStats;
  stats.seq = 1;
  std::atomic<int> replies{0};
  server.submit(format_request(stats), [&](std::string) { ++replies; });
  server.submit(format_request(stats), [&](std::string) { ++replies; });
  server.pump();
  EXPECT_EQ(replies.load(), 2);
  EXPECT_EQ(service.metrics().batches(), 2u);
}

TEST(Server, UnbuildableInstallIsRefusedAndTheNextRequestAnswered) {
  // A new name with a field body no lattice can be built over (bounds
  // narrower than one step): the refusal is a reply, and serving goes on.
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = 0;
  Server server(service, options);

  Request install;
  install.seq = 1;
  install.endpoint = Endpoint::kSnapshot;
  install.field = "fresh";
  install.text = "abp-field 1\nbounds 0 0 0 0\n";
  install.version = 1;
  std::vector<std::string> replies;
  const auto collect = [&](std::string payload) {
    replies.push_back(std::move(payload));
  };
  server.submit(format_request(install), collect);
  server.submit(format_request(localize_request(2, {12, 12})), collect);
  server.pump();
  ASSERT_EQ(replies.size(), 2u);
  const auto refused = parse_response(replies[0]);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->seq, 1u);
  EXPECT_EQ(refused->status, Status::kBadRequest);
  const auto answered = parse_response(replies[1]);
  ASSERT_TRUE(answered.has_value());
  EXPECT_EQ(answered->status, Status::kOk) << answered->message;
  EXPECT_EQ(answered->estimates.size(), 1u);
}

TEST(Server, MixedFieldsDoNotCoalesceAcrossDeployments) {
  LocalizationService service(test_config());
  service.add_field("alpha", make_field());
  service.add_field("beta", make_field());
  Server::Options options;
  options.max_batch = 8;
  Server server(service, options);

  std::atomic<int> replies{0};
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    Request request = localize_request(seq, {12, 12});
    request.field = seq % 2 == 0 ? "alpha" : "beta";
    server.submit(format_request(request), [&](std::string) { ++replies; });
  }
  server.pump();
  EXPECT_EQ(replies.load(), 4);
  // Two batches: the two alpha queries coalesce, the two beta queries
  // coalesce (take_batch_locked pulls same-field queries from anywhere in
  // the queue).
  EXPECT_EQ(service.metrics().batches(), 2u);
}

TEST(Server, RepliesPreserveSequenceNumbers) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.max_batch = 16;
  Server server(service, options);

  std::vector<std::uint64_t> seqs;
  for (std::uint64_t seq = 100; seq < 105; ++seq) {
    server.submit(format_request(localize_request(seq, {12, 12})),
                  [&](std::string payload) {
                    const auto response = parse_response(payload);
                    ASSERT_TRUE(response.has_value());
                    seqs.push_back(response->seq);
                  });
  }
  server.pump();
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{100, 101, 102, 103, 104}));
}

TEST(Server, ThreadedModeServesConcurrentClients) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = 4;
  options.max_batch = 8;
  Server server(service, options);
  LoopbackTransport transport(server);

  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const Response response = transport.roundtrip(
            localize_request(static_cast<std::uint64_t>(c * 1000 + i),
                             {12.0 + c, 12.0 + i % 10}));
        if (response.status == Status::kOk) ++ok;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  // A batch counts its requests completed before its replies go out, so
  // every answered request is counted; shutdown's drain barrier ends it.
  server.shutdown();
  EXPECT_EQ(service.metrics().completed(),
            static_cast<std::uint64_t>(kClients * kPerClient));
}

TEST(Server, ShutdownDrainsAcceptedThenRejectsNew) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = 2;
  options.max_batch = 4;
  Server server(service, options);

  // Flood the queue, then shut down immediately: every accepted request
  // must still be answered (drain), no reply may be dropped.
  constexpr int kAccepted = 200;
  std::atomic<int> answered{0};
  std::atomic<int> ok{0};
  for (std::uint64_t seq = 1; seq <= kAccepted; ++seq) {
    server.submit(format_request(localize_request(seq, {12, 12})),
                  [&](std::string payload) {
                    const auto response = parse_response(payload);
                    if (response && response->status == Status::kOk) ++ok;
                    ++answered;
                  });
  }
  server.shutdown();
  EXPECT_EQ(answered.load(), kAccepted);
  EXPECT_EQ(ok.load(), kAccepted);

  // Post-shutdown submissions are rejected immediately with kUnavailable.
  std::vector<Response> rejected;
  server.submit(format_request(localize_request(999, {12, 12})),
                [&](std::string payload) {
                  const auto response = parse_response(payload);
                  ASSERT_TRUE(response.has_value());
                  rejected.push_back(*response);
                });
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].status, Status::kUnavailable);
  EXPECT_EQ(rejected[0].seq, 999u);
  EXPECT_TRUE(server.shutting_down());
}

TEST(Server, ManualModeShutdownDrains) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service);

  std::atomic<int> answered{0};
  server.submit(format_request(localize_request(1, {12, 12})),
                [&](std::string) { ++answered; });
  server.shutdown();  // must pump the queued request, not drop it
  EXPECT_EQ(answered.load(), 1);
}

TEST(Server, ShutdownIsIdempotent) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = 2;
  Server server(service, options);
  server.shutdown();
  server.shutdown();
  EXPECT_TRUE(server.shutting_down());
}

// ---- the inline node read ----------------------------------------------
//
// A threaded server driven the way the epoll transport drives it: the
// frames of one read burst are submitted, then `pump_ready()` marks the
// burst's end.

Server::Options inline_options() {
  Server::Options options;
  options.workers = 2;
  options.max_batch = 8;
  return options;
}

/// One reply: its payload, the thread it arrived on, and whether it came.
class Answer {
 public:
  std::function<void(std::string)> callback() {
    return [this](std::string payload) {
      std::lock_guard<std::mutex> lock(mu_);
      payload_ = std::move(payload);
      thread_ = std::this_thread::get_id();
      done_ = true;
      cv_.notify_all();
    };
  }

  bool arrived() {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

  /// The thread the reply arrived on, after waiting up to 5 s for it.
  std::thread::id thread() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(5), [this] { return done_; });
    EXPECT_TRUE(done_) << "no reply within 5 s";
    return thread_;
  }

  Status status() {
    thread();
    std::lock_guard<std::mutex> lock(mu_);
    const auto response = parse_response(payload_);
    EXPECT_TRUE(response.has_value());
    return response ? response->status : Status::kInternal;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread::id thread_;
  std::string payload_;
};

Request error_at_request(std::uint64_t seq, Vec2 point) {
  Request request = localize_request(seq, point);
  request.endpoint = Endpoint::kErrorAt;
  return request;
}

void expect_reconciled(LocalizationService& service,
                       const Server& server) {
  EXPECT_EQ(service.metrics().submitted(),
            service.metrics().completed() + service.metrics().shed_total());
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(server.in_flight(), 0u);
}

TEST(ServerInline, IdleServerAnswersTheBurstsFirstNodeReadBeforeSubmitReturns) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service, inline_options());

  Answer localize;
  server.pump_ready();
  server.submit(format_request(localize_request(1, {12, 12})),
                localize.callback());
  EXPECT_TRUE(localize.arrived()) << "answered before submit returned";
  EXPECT_EQ(localize.thread(), std::this_thread::get_id());
  EXPECT_EQ(localize.status(), Status::kOk);

  Answer error_at;
  server.pump_ready();
  server.submit(format_request(error_at_request(2, {12, 12})),
                error_at.callback());
  EXPECT_TRUE(error_at.arrived());
  EXPECT_EQ(error_at.thread(), std::this_thread::get_id());
  EXPECT_EQ(error_at.status(), Status::kOk);

  // Inline runs are batches of one, with a latency sample each.
  EXPECT_EQ(service.metrics().batches(), 2u);
  EXPECT_EQ(service.metrics()
                .endpoint_snapshot(Endpoint::kLocalize)
                .latency_samples,
            1u);
  server.shutdown();
  expect_reconciled(service, server);
}

TEST(ServerInline, WorkersAnswerTheRestOfTheBurst) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service, inline_options());

  Answer first;
  Answer second;
  server.pump_ready();
  server.submit(format_request(localize_request(1, {12, 12})),
                first.callback());
  server.submit(format_request(localize_request(2, {14, 14})),
                second.callback());
  EXPECT_EQ(first.thread(), std::this_thread::get_id());
  EXPECT_NE(second.thread(), std::this_thread::get_id());
  EXPECT_EQ(second.status(), Status::kOk);
  server.shutdown();
  expect_reconciled(service, server);
}

TEST(ServerInline, WorkersAnswerMultiPointAndNonPointRequests) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service, inline_options());

  Request two_points = localize_request(1, {12, 12});
  two_points.points.push_back({20, 20});
  Answer multi;
  server.pump_ready();
  server.submit(format_request(two_points), multi.callback());
  EXPECT_NE(multi.thread(), std::this_thread::get_id());
  EXPECT_EQ(multi.status(), Status::kOk);

  Request propose;
  propose.seq = 2;
  propose.endpoint = Endpoint::kPropose;
  propose.algorithm = "max";
  Answer proposal;
  server.pump_ready();
  server.submit(format_request(propose), proposal.callback());
  EXPECT_NE(proposal.thread(), std::this_thread::get_id());
  EXPECT_EQ(proposal.status(), Status::kOk);
  server.shutdown();
  expect_reconciled(service, server);
}

TEST(ServerInline, ANodeReadArrivingWhileAWorkerIsBusyIsQueued) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service, inline_options());

  // A worker stays busy inside its reply callback until released.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::promise<void> entered;
  server.submit(format_request(localize_request(1, {12, 12})),
                [&entered, released](std::string) {
                  entered.set_value();
                  released.wait();
                });
  ASSERT_EQ(entered.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);

  Answer read;
  server.pump_ready();
  server.submit(format_request(localize_request(2, {14, 14})),
                read.callback());
  EXPECT_NE(read.thread(), std::this_thread::get_id())
      << "a busy server must hand the read to its other worker";
  EXPECT_EQ(read.status(), Status::kOk);
  release.set_value();
  server.shutdown();
  expect_reconciled(service, server);
}

TEST(ServerInline, CallersThatNeverPumpReadyKeepTheWorkerPath) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service, inline_options());

  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    Answer answer;
    server.submit(format_request(localize_request(seq, {12, 12})),
                  answer.callback());
    EXPECT_NE(answer.thread(), std::this_thread::get_id());
    EXPECT_EQ(answer.status(), Status::kOk);
  }
  server.shutdown();
  expect_reconciled(service, server);
}

TEST(ServerInline, ShutdownReconcilesInlineAndQueuedWork) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service, inline_options());

  // Bursts of three: the first may run inline, the rest queue.
  std::atomic<int> answered{0};
  for (std::uint64_t burst = 0; burst < 20; ++burst) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      server.submit(format_request(localize_request(burst * 3 + i, {12, 12})),
                    [&answered](std::string) { ++answered; });
    }
    server.pump_ready();
  }
  server.shutdown();
  EXPECT_EQ(answered.load(), 60);
  expect_reconciled(service, server);

  // A stopping server never runs inline: the read is refused at the door.
  Answer late;
  server.pump_ready();
  server.submit(format_request(localize_request(99, {12, 12})),
                late.callback());
  EXPECT_EQ(late.status(), Status::kUnavailable);
  expect_reconciled(service, server);
}

TEST(Server, MetricsRecordLatencyAndBytes) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service);
  LoopbackTransport transport(server);

  for (int i = 0; i < 5; ++i) {
    transport.roundtrip(localize_request(static_cast<std::uint64_t>(i),
                                         {12, 12}));
  }
  const EndpointSnapshot snap =
      service.metrics().endpoint_snapshot(Endpoint::kLocalize);
  EXPECT_EQ(snap.requests, 5u);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_EQ(snap.latency_samples, 5u);
  EXPECT_GT(snap.bytes_in, 0u);
  EXPECT_GT(snap.bytes_out, 0u);
  EXPECT_GE(snap.p99_us, snap.p50_us);
}

TEST(Server, QuotaShedsCarryThePrincipalsOwnRetryAfter) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.quota.rps = 2.0;  // one token every 500 ms
  options.quota.burst = 2.0;
  double now = 0.0;
  options.clock_ms = [&now] { return now; };
  Server server(service, options);

  Request request = localize_request(1, {12, 12});
  request.principal = 7;
  std::vector<Response> responses;
  auto reply = [&](std::string payload) {
    const auto response = parse_response(payload);
    ASSERT_TRUE(response.has_value());
    responses.push_back(*response);
  };
  // Burst capacity 2: two admitted, the third shed without being enqueued.
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    request.seq = seq;
    server.submit(format_request(request), reply);
  }
  ASSERT_EQ(responses.size(), 1u) << "quota shed answers immediately";
  EXPECT_EQ(responses[0].seq, 3u);
  EXPECT_EQ(responses[0].status, Status::kOverloaded);
  EXPECT_TRUE(status_retryable(responses[0].status));
  EXPECT_NE(responses[0].message.find("principal 7"), std::string::npos);
  EXPECT_EQ(responses[0].retry_after_ms, 500u)
      << "hint is this bucket's refill deficit, not a configured constant";

  // Following the hint on the injected clock is admitted again.
  now += responses[0].retry_after_ms;
  request.seq = 4;
  server.submit(format_request(request), reply);
  server.pump();
  ASSERT_EQ(responses.size(), 4u);

  // Accounting: quota sheds ride the overloaded cause, reconciliation
  // holds, and the per-principal counters attribute the noise to tenant 7.
  const ServiceMetrics& metrics = service.metrics();
  EXPECT_EQ(metrics.submitted(), 4u);
  EXPECT_EQ(metrics.completed(), 3u);
  EXPECT_EQ(metrics.shed(Status::kOverloaded), 1u);
  EXPECT_EQ(metrics.quota_sheds(), 1u);
  EXPECT_EQ(metrics.principal(7).requests, 4u);
  EXPECT_EQ(metrics.principal(7).shed_quota, 1u);
}

TEST(Server, QuotaIsolatesPrincipalsFromANoisyNeighbor) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.quota.rps = 1.0;
  options.quota.burst = 2.0;
  double now = 0.0;
  options.clock_ms = [&now] { return now; };
  Server server(service, options);

  std::atomic<int> shed{0};
  auto count_sheds = [&](std::string payload) {
    const auto response = parse_response(payload);
    if (response && response->status == Status::kOverloaded) ++shed;
  };
  // Principal 1 floods far past its burst.
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    Request request = localize_request(seq, {12, 12});
    request.principal = 1;
    server.submit(format_request(request), count_sheds);
  }
  EXPECT_EQ(shed.load(), 8);
  // Principal 2's first requests still land in its own full bucket.
  for (std::uint64_t seq = 21; seq <= 22; ++seq) {
    Request request = localize_request(seq, {12, 12});
    request.principal = 2;
    server.submit(format_request(request), count_sheds);
  }
  server.pump();
  EXPECT_EQ(shed.load(), 8) << "the quiet tenant must not be shed";
  EXPECT_EQ(service.metrics().principal(1).shed_quota, 8u);
  EXPECT_EQ(service.metrics().principal(2).shed_quota, 0u);
}

TEST(Server, FairDequeueAlternatesAcrossQueuedPrincipals) {
  LocalizationService service(test_config());
  service.add_field("alpha", make_field());
  service.add_field("beta", make_field());
  Server::Options options;
  options.max_batch = 1;  // one request per batch: reply order == dequeue order
  Server server(service, options);

  std::vector<std::uint64_t> order;
  auto record = [&](std::string payload) {
    const auto response = parse_response(payload);
    ASSERT_TRUE(response.has_value());
    order.push_back(response->seq);
  };
  // Tenant 1 floods four requests before tenant 2's two arrive. Distinct
  // fields keep the check independent of same-deployment coalescing.
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    Request request = localize_request(seq, {12, 12});
    request.field = "alpha";
    request.principal = 1;
    server.submit(format_request(request), record);
  }
  for (std::uint64_t seq = 11; seq <= 12; ++seq) {
    Request request = localize_request(seq, {12, 12});
    request.field = "beta";
    request.principal = 2;
    server.submit(format_request(request), record);
  }
  server.pump();
  // Strict FIFO would serve 1,2,3,4 before tenant 2 gets a turn; the
  // rotation interleaves until tenant 2's queue drains, then falls back to
  // FIFO over the remainder.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 11, 2, 12, 3, 4}));
}

TEST(Server, SinglePrincipalFairDequeueReducesToFifo) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.max_batch = 1;
  Server server(service, options);

  std::vector<std::uint64_t> order;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    server.submit(format_request(localize_request(seq, {12, 12})),
                  [&](std::string payload) {
                    order.push_back(parse_response(payload)->seq);
                  });
  }
  server.pump();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(Server, SnapshotExposesAdmissionAndPrincipalCounters) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service);

  Request request = localize_request(1, {12, 12});
  request.principal = 9;
  server.submit(format_request(request), [](std::string) {});
  server.pump();

  const MetricsSnapshot snap = service.metrics().snapshot();
  EXPECT_EQ(snap.schema(), "abp-serve-stats 1");
  EXPECT_EQ(snap.count("admission.submitted"), 1u);
  EXPECT_EQ(snap.count("admission.completed"), 1u);
  EXPECT_EQ(snap.count("admission.shed-quota"), 0u);
  EXPECT_EQ(snap.count("principal.9.submitted"), 1u);
  EXPECT_EQ(snap.count("endpoint.localize.requests"), 1u);
  // The rendered stats body is exactly the snapshot's text form.
  EXPECT_EQ(service.metrics().render_text(), snap.render_text());
}

TEST(Server, LoopbackFrameExchangeRejectsCorruptFrames) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server server(service);
  LoopbackTransport transport(server);

  std::string frame = encode_frame(format_request(localize_request(1, {1, 1})));
  frame[0] = 'X';
  const std::string reply_frame = transport.roundtrip_frame(frame);
  FrameDecoder decoder;
  decoder.feed(reply_frame);
  const auto payload = decoder.next();
  ASSERT_TRUE(payload.has_value());
  const auto response = parse_response(*payload);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, Status::kBadRequest);
  EXPECT_EQ(service.metrics().counts().bad_frames, 1u);
}

TEST(Server, RefusalsAtTheDoorAddNoLatencySample) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.quota.rps = 1.0;
  options.quota.burst = 3.0;
  options.clock_ms = [] { return 0.0; };  // the bucket never refills
  Server server(service, options);
  LoopbackTransport transport(server);

  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    (void)transport.roundtrip_frame(
        encode_frame(format_request(localize_request(seq, {12, 12}))));
  }
  const EndpointSnapshot snap =
      service.metrics().endpoint_snapshot(Endpoint::kLocalize);
  EXPECT_EQ(snap.requests, 10u);
  EXPECT_EQ(snap.errors, 7u);
  EXPECT_EQ(snap.latency_samples, 3u) << "only the admitted three";
  EXPECT_EQ(service.metrics().quota_sheds(), 7u);
  const std::string text = service.metrics().render_text();
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_NE(text.find("endpoint.localize.requests 10\n"), std::string::npos);
}

/// The stats body with every wall-clock latency gauge masked: the
/// `p50us`/`p95us`/`p99us` values depend on timing, every other byte is
/// fixed by the script that produced it.
std::string mask_latency(const std::string& text) {
  static const std::regex kLatency(R"((\.p(50|95|99)us) [0-9.]+)");
  return std::regex_replace(text, kLatency, "$1 *");
}

TEST(Server, StatsBodyIsPinnedLineByLine) {
  LocalizationService service(test_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.max_batch = 4;
  options.max_queue = 6;
  options.quota.rps = 1.0;  // the clock below stays far short of a refill
  options.quota.burst = 4.0;
  double now = 0.0;
  options.clock_ms = [&now] { return now; };
  Server server(service, options);
  const auto ignore = [](std::string) {};
  const auto submit = [&](Request request, std::uint64_t seq,
                          std::uint64_t principal) {
    request.seq = seq;
    request.principal = principal;
    server.submit(format_request(request), ignore);
  };
  Request localize = localize_request(0, {12, 12});
  Request error_at = localize_request(0, {30, 30});
  error_at.endpoint = Endpoint::kErrorAt;
  Request ghost = localize_request(0, {12, 12});
  ghost.field = "ghost";

  // Batches and endpoint errors: principal 1's three queries coalesce with
  // one of principal 2's, whose unknown deployment answers not-found.
  for (std::uint64_t seq = 1; seq <= 3; ++seq) submit(localize, seq, 1);
  submit(error_at, 4, 2);
  submit(error_at, 5, 2);
  submit(ghost, 6, 2);
  server.pump();

  // A deadline that expires in the queue.
  Request late = localize;
  late.deadline_ms = 5;
  submit(late, 7, 3);
  now += 10.0;
  server.pump();

  // Principal 4 overruns its burst of 4; principal 6 then finds the
  // queue full.
  for (std::uint64_t seq = 8; seq <= 12; ++seq) submit(localize, seq, 4);
  for (std::uint64_t seq = 13; seq <= 15; ++seq) submit(localize, seq, 6);
  server.pump();

  // A transport's in-flight cap, two bad frames, a non-batchable request.
  localize.seq = 16;
  localize.principal = 5;
  server.shed_overloaded(format_request(localize), ignore, "in-flight cap");
  server.submit("not a request\n", ignore);
  server.record_bad_frame(7);
  Request list;
  list.endpoint = Endpoint::kListFields;
  submit(list, 17, 0);
  server.pump();

  // Shutting down answers new work unavailable.
  server.shutdown();
  submit(localize, 18, 7);

  EXPECT_EQ(mask_latency(service.metrics().render_text()), R"(abp-serve-stats 1
endpoint.localize.requests 15
endpoint.localize.errors 6
endpoint.localize.bytes-in 962
endpoint.localize.bytes-out 773
endpoint.localize.p50us *
endpoint.localize.p95us *
endpoint.localize.p99us *
endpoint.error-at.requests 2
endpoint.error-at.errors 0
endpoint.error-at.bytes-in 126
endpoint.error-at.bytes-out 90
endpoint.error-at.p50us *
endpoint.error-at.p95us *
endpoint.error-at.p99us *
endpoint.propose.requests 0
endpoint.propose.errors 0
endpoint.propose.bytes-in 0
endpoint.propose.bytes-out 0
endpoint.propose.p50us *
endpoint.propose.p95us *
endpoint.propose.p99us *
endpoint.add-beacon.requests 0
endpoint.add-beacon.errors 0
endpoint.add-beacon.bytes-in 0
endpoint.add-beacon.bytes-out 0
endpoint.add-beacon.p50us *
endpoint.add-beacon.p95us *
endpoint.add-beacon.p99us *
endpoint.snapshot.requests 0
endpoint.snapshot.errors 0
endpoint.snapshot.bytes-in 0
endpoint.snapshot.bytes-out 0
endpoint.snapshot.p50us *
endpoint.snapshot.p95us *
endpoint.snapshot.p99us *
endpoint.stats.requests 0
endpoint.stats.errors 0
endpoint.stats.bytes-in 0
endpoint.stats.bytes-out 0
endpoint.stats.p50us *
endpoint.stats.p95us *
endpoint.stats.p99us *
endpoint.list-fields.requests 1
endpoint.list-fields.errors 0
endpoint.list-fields.bytes-in 43
endpoint.list-fields.bytes-out 37
endpoint.list-fields.p50us *
endpoint.list-fields.p95us *
endpoint.list-fields.p99us *
endpoint.mutate.requests 0
endpoint.mutate.errors 0
endpoint.mutate.bytes-in 0
endpoint.mutate.bytes-out 0
endpoint.mutate.p50us *
endpoint.mutate.p95us *
endpoint.mutate.p99us *
endpoint.version.requests 0
endpoint.version.errors 0
endpoint.version.bytes-in 0
endpoint.version.bytes-out 0
endpoint.version.p50us *
endpoint.version.p95us *
endpoint.version.p99us *
endpoint.admin.requests 0
endpoint.admin.errors 0
endpoint.admin.bytes-in 0
endpoint.admin.bytes-out 0
endpoint.admin.p50us *
endpoint.admin.p95us *
endpoint.admin.p99us *
total.requests 18
total.errors 6
total.bad-frames 2
total.batches 6
total.coalesced 13
admission.submitted 18
admission.completed 13
admission.shed-overloaded 3
admission.shed-unavailable 1
admission.shed-deadline 1
admission.shed-quota 1
principal.0.submitted 1
principal.0.shed-quota 0
principal.1.submitted 3
principal.1.shed-quota 0
principal.2.submitted 3
principal.2.shed-quota 0
principal.3.submitted 1
principal.3.shed-quota 0
principal.4.submitted 5
principal.4.shed-quota 1
principal.5.submitted 1
principal.5.shed-quota 0
principal.6.submitted 3
principal.6.shed-quota 0
principal.7.submitted 1
principal.7.shed-quota 0
)");
}

}  // namespace
}  // namespace abp::serve
