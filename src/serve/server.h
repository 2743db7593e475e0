/// \file server.h
/// \brief Batching request server over `LocalizationService`.
///
/// Transports hand the server raw frame payloads; the server parses,
/// queues, coalesces and executes them, then hands encoded response
/// payloads back through a per-request callback. Batching is the core
/// throughput mechanism: up to `max_batch` queued point queries against the
/// same deployment share one deployment lookup and one load of its
/// published read view, and each then runs in one kernel call over its
/// points (see `LocalizationService::handle_batch`).
///
/// Two execution modes share the same queue and batching logic:
///  * `workers == 0` — manual mode: requests queue until `pump()` drains
///    them on the calling thread. Deterministic; what the loopback
///    transport and all unit tests use.
///  * `workers > 0` — threaded mode: a worker pool drains the queue;
///    callbacks fire on worker threads. One exception keeps node reads off
///    the worker hand-off: after a transport signals the end of a read
///    burst through `pump_ready()`, the next submission, if it is a
///    one-point `localize`/`error-at` and the server is idle (nothing
///    queued or executing, not stopping), runs on the submitting thread
///    as a batch of one and is answered before `submit` returns. The rest
///    of that burst, every other request, anything arriving while a batch
///    executes, and every submission from a caller that never calls
///    `pump_ready()` (the loopback transport) go to the workers.
///
/// Resilience (the overload/deadline contract the chaos suite asserts):
///  * Admission control — with `max_queue > 0`, a submission that would
///    push the queue past the limit is answered immediately with the
///    retryable `Status::kOverloaded` instead of being enqueued; transports
///    enforcing per-connection in-flight caps shed through
///    `shed_overloaded()` so the accounting stays centralized.
///  * Per-principal quotas — with `Options::quota` enabled, each request
///    spends a token from its principal's bucket (`serve/quota.h`) before
///    entering the queue; an empty bucket sheds `kOverloaded` with a
///    `retry-after` hint from that principal's own refill deficit, so a
///    noisy tenant throttles itself without touching anyone else's budget.
///  * Fair dequeue — when requests from multiple principals are queued,
///    `take_batch_locked` rotates a cursor across principals instead of
///    serving strict FIFO, so one tenant's burst cannot monopolize the
///    batch pipeline. With a single principal this reduces to FIFO.
///  * Deadlines — a request carrying `deadline_ms` that is still queued
///    when its budget expires is shed with `Status::kDeadlineExceeded` at
///    drain time, before any handler work. Time comes from
///    `Options::clock_ms`, injectable so fault-injection tests advance a
///    manual clock deterministically.
///  * Every parse-ok submission is answered exactly once and accounted in
///    `ServiceMetrics`: submitted = completed + shed (by cause).
///
/// Graceful shutdown (`shutdown()`): new submissions are rejected with
/// `Status::kUnavailable` while every request already accepted is drained
/// and answered. The metrics dump survives shutdown.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "serve/frame_sink.h"
#include "serve/quota.h"
#include "serve/service.h"

namespace abp::serve {

class Server : public FrameSink {
 public:
  struct Options {
    std::size_t workers = 0;    ///< 0 = manual mode (drain via pump())
    std::size_t max_batch = 16; ///< B: point-query requests per batch
    /// Queue-depth admission limit; 0 = unbounded. Submissions that would
    /// exceed it are answered `kOverloaded` without being enqueued.
    std::size_t max_queue = 0;
    /// Backpressure hint attached to every `kOverloaded` shed as the
    /// response's `retry-after` record (milliseconds); 0 = no hint.
    /// `RetryingClient` sleeps the hinted duration instead of jittered
    /// backoff, so a loaded server can spread its retry storm.
    std::uint32_t retry_after_hint_ms = 0;
    /// Monotonic clock in milliseconds used for deadline accounting.
    /// Defaults to `std::chrono::steady_clock`; tests inject a manual
    /// clock for deterministic expiry.
    std::function<double()> clock_ms;
    /// Per-principal token-bucket admission (`--quota-rps`/`--quota-burst`);
    /// `quota.rps == 0` disables enforcement.
    QuotaOptions quota;
  };

  explicit Server(LocalizationService& service) : Server(service, Options()) {}
  Server(LocalizationService& service, Options options);
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit one frame payload. `reply` is invoked exactly once with the
  /// encoded response payload — immediately (unparseable input, shutdown
  /// rejection, or an idle threaded server's first node read after
  /// `pump_ready()`), from `pump()` in manual mode, or from a worker thread
  /// in threaded mode.
  void submit(std::string payload,
              std::function<void(std::string)> reply) override;

  /// Transport-level admission rejection: answer `payload`'s request with
  /// the retryable `kOverloaded` status (diagnosed with `why`) without
  /// enqueueing it, keeping shed accounting centralized here. Used by
  /// transports enforcing per-connection in-flight limits.
  void shed_overloaded(std::string payload,
                       std::function<void(std::string)> reply,
                       const std::string& why) override;

  void record_bad_frame(std::size_t bytes_in) override;

  /// Manual mode: drain the queue on the calling thread, batching as it
  /// goes. No-op when the queue is empty. Must not be called in threaded
  /// mode.
  void pump();

  /// FrameSink hook: manual-mode servers (workers == 0) drain the queue on
  /// the transport's I/O thread; threaded servers arm the inline path for
  /// the next submission (see the file comment).
  void pump_ready() override;

  /// Reject new requests, drain everything already accepted, stop workers.
  /// Idempotent.
  void shutdown();
  bool shutting_down() const;

  LocalizationService& service() { return service_; }
  const Options& options() const { return options_; }

  /// Slot accounting for the chaos suite: both must be 0 once every
  /// submission has been answered — a leak here is a stuck request.
  std::size_t queue_depth() const;
  std::size_t in_flight() const;

  /// Current reading of `Options::clock_ms` (or the steady-clock default).
  double now_ms() const;

 private:
  struct Pending {
    Request request;
    std::function<void(std::string)> reply;
    Stopwatch timer;
    std::size_t bytes_in = 0;
    double arrival_ms = 0.0;  ///< clock reading at admission
  };

  /// Pop the next batch off the queue (caller holds `mu_`): the seed is the
  /// oldest request of the principal after `last_principal_` in cyclic id
  /// order (fair rotation; plain FIFO when only one principal is queued),
  /// plus, if it is a point query, up to `max_batch - 1` more point queries
  /// against the same deployment from anywhere in the queue.
  std::vector<Pending> take_batch_locked();
  void run_batch(std::vector<Pending> batch);
  void worker_loop();
  /// The exit of a request refused at the door (quota, queue full,
  /// shutdown, in-flight cap; never enqueued): count it on its endpoint,
  /// without a latency sample, and reply with `answer`. The caller counts
  /// the shed cause.
  void refuse(const Request& request, std::size_t bytes_in,
              const Response& answer,
              const std::function<void(std::string)>& reply);

  LocalizationService& service_;
  Options options_;
  std::unique_ptr<PrincipalQuotas> quotas_;  ///< null when quotas are off

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_drain_;
  std::deque<Pending> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;  ///< reject new submissions
  bool quit_ = false;      ///< workers exit once the queue is empty
  /// Set by `pump_ready()` in threaded mode, cleared by the next submit,
  /// which may then run inline.
  bool burst_ended_ = false;
  std::vector<std::thread> workers_;
  /// Fair-dequeue cursor: id of the principal served last; the next batch
  /// seeds from the smallest queued principal id strictly greater (cyclic).
  std::uint64_t last_principal_ = 0;
};

}  // namespace abp::serve
