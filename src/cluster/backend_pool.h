/// \file backend_pool.h
/// \brief Connection pool + health tracking for the cluster router's
/// backends.
///
/// One worker thread per backend owns that backend's `ClientTransport` and
/// a FIFO work queue. The worker drains the queue in batches over one
/// pipelined connection (`send_async` × N, then `flush`), so a burst of
/// forwarded requests costs one wire round trip — the same pipelining the
/// single-server transports exploit. FIFO-per-backend is also a correctness
/// lever: a snapshot install enqueued before a retried query is *guaranteed*
/// to reach the backend first, which is how the router repairs
/// `version-mismatch` without blocking.
///
/// Health is a circuit breaker per backend, driven by transport outcomes
/// and heartbeat probes on the injectable clock:
///
///     closed ──(consecutive failures ≥ threshold)──▶ open
///     open ──(probe due)──▶ probing ──(probe ok)──▶ closed (+ recovery cb)
///                                └──(probe fails)──▶ open
///
///  * `closed` — healthy; forwards flow. Successes reset the failure count.
///  * `open` — down; `enqueue()` refuses immediately (the router retries
///    another replica or sheds retryable `unavailable`), queued work is
///    failed fast, and the connection is dropped.
///  * `probing` — a heartbeat (`stats` round trip) is in flight deciding
///    between the two.
///
/// Probes also run against `closed` backends at the heartbeat cadence, so
/// a quiet cluster still notices a dead backend before the next query does.
/// `tick()` drives the cadence — the CLI calls it from a heartbeat thread,
/// tests call it manually under a `ManualClock`.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/metrics.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace abp::cluster {

enum class BackendHealth {
  kClosed,   ///< healthy: traffic flows
  kProbing,  ///< heartbeat in flight deciding closed vs open
  kOpen,     ///< down: enqueue() refuses, probes retry at the cadence
};

const char* backend_health_name(BackendHealth health);

struct BackendPoolOptions {
  /// Consecutive transport failures (forwards or probes) that trip the
  /// breaker from closed to open.
  std::size_t failure_threshold = 3;
  /// Heartbeat cadence in milliseconds (probe every live backend, retry
  /// every open one).
  double probe_interval_ms = 1000.0;
  /// Per-connection timeout handed to the transport factory's default.
  double connect_timeout_s = 2.0;
  /// Injectable monotonic clock (milliseconds); defaults to steady_clock.
  std::function<double()> clock_ms;
};

class BackendPool {
 public:
  /// One unit of work: send `request` down the pipelined connection, hand
  /// the raw response payload to `on_reply`, or call `on_failure` exactly
  /// once if the transport dies (or the backend is marked down) before a
  /// reply lands. Exactly one of the two callbacks fires per forward.
  struct Forward {
    serve::Request request;
    std::function<void(std::string)> on_reply;
    std::function<void()> on_failure;
  };

  /// Creates the transport for a named backend on (re)connect. The default
  /// parses `host:port` and opens a `TcpClientTransport`.
  using TransportFactory =
      std::function<std::unique_ptr<serve::ClientTransport>(
          const std::string& backend)>;

  BackendPool(std::vector<std::string> backends, BackendPoolOptions options,
              serve::RouterMetrics& metrics,
              TransportFactory factory = nullptr);
  ~BackendPool();

  BackendPool(const BackendPool&) = delete;
  BackendPool& operator=(const BackendPool&) = delete;

  /// Invoked (from a worker thread) whenever a backend transitions
  /// probing → closed; the router resyncs snapshots here. Set before
  /// `start()`.
  void set_recovery_callback(std::function<void(const std::string&)> callback);

  void start();
  /// Fail everything still queued, join the workers. Idempotent.
  void stop();

  /// Live membership: register a new backend (healthy until proven
  /// otherwise; a worker is spawned immediately if the pool is started).
  /// Returns false if the name is already pooled or the pool is stopping.
  bool add_backend(const std::string& backend);

  /// Live membership: unregister `backend`. New enqueues stop immediately,
  /// the worker finishes its in-flight batch and is joined, and anything
  /// still queued is failed via its callbacks. Returns false if unknown.
  bool remove_backend(const std::string& backend);

  /// True when `backend`'s FIFO is empty *and* its worker is between
  /// batches — the drain path polls this before removing a backend so
  /// in-flight work completes rather than being failed. Unknown backends
  /// are trivially idle.
  bool queue_idle(const std::string& backend) const;
  /// Forwards queued on `backend`'s FIFO that its worker has not taken yet
  /// (0 for unknown backends).
  std::size_t queue_depth(const std::string& backend) const;

  /// Queue work on `backend`'s FIFO. Returns false — without consuming the
  /// callbacks — when the backend is unknown, marked down (`open`), or the
  /// pool is stopping; the caller picks another replica or sheds.
  bool enqueue(const std::string& backend, Forward forward);

  /// Heartbeat driver: start probes on every backend whose cadence is due
  /// (per the injectable clock). Non-blocking — probes ride the workers.
  void tick();

  /// A backend removed (or never added) reads as `open` — to every caller,
  /// "not pooled" and "down" both mean "do not route here".
  BackendHealth health(const std::string& backend) const;
  std::vector<std::string> backends() const;
  double now_ms() const;

 private:
  struct Backend {
    std::string name;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Forward> queue;       ///< guarded by mu
    bool probe_pending = false;      ///< guarded by mu
    bool retiring = false;           ///< guarded by mu; worker exits
    bool busy = false;               ///< guarded by mu; batch in flight
    BackendHealth health = BackendHealth::kClosed;  ///< guarded by mu
    std::size_t consecutive_failures = 0;           ///< guarded by mu
    double last_probe_ms = 0.0;      ///< guarded by mu
    std::thread worker;
    /// Worker-thread-only: the live pipelined connection, if any.
    std::unique_ptr<serve::ClientTransport> transport;
  };

  void worker_loop(Backend& backend);
  /// Run a batch over the pipelined transport; returns false on transport
  /// failure (un-answered entries have been failed).
  bool run_batch(Backend& backend, std::vector<Forward> batch);
  bool run_probe(Backend& backend);
  void record_failure_locked(Backend& backend,
                             std::unique_lock<std::mutex>& lock);
  void record_success_locked(Backend& backend);
  /// Fail every queued entry (caller holds `backend.mu` via `lock`);
  /// callbacks run outside the lock.
  void drain_queue(Backend& backend, std::unique_lock<std::mutex>& lock);

  BackendPoolOptions options_;
  serve::RouterMetrics* metrics_;
  TransportFactory factory_;
  std::function<void(const std::string&)> recovery_;
  /// Map structure guarded by map_mu_ (live membership mutates it);
  /// `Backend` contents stay guarded by their own per-backend mu. Lock
  /// order: state_mu_ → map_mu_ → backend.mu. Workers never take map_mu_.
  std::map<std::string, std::unique_ptr<Backend>> backends_;
  mutable std::mutex map_mu_;  ///< guards the backends_ map structure
  std::mutex state_mu_;        ///< guards started_
  bool started_ = false;       ///< guarded by state_mu_
  /// Atomic (not state_mu_-guarded): worker condition-variable predicates
  /// read it while holding their own per-backend mutex.
  std::atomic<bool> stopping_{false};

  bool stopping() const { return stopping_.load(std::memory_order_acquire); }
};

/// Split `host:port`; throws `ServeError` on malformed input.
std::pair<std::string, std::uint16_t> parse_backend_address(
    const std::string& backend);

}  // namespace abp::cluster
