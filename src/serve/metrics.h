/// \file metrics.h
/// \brief Built-in observability for the localization query service and the
/// cluster router.
///
/// Each counter is declared once: a field of a plain counts struct
/// (`EndpointCounts`, `ServiceCounts`, `PrincipalCounts`, `RouterCounts`,
/// `BackendSnapshot`) plus one `{stats name, &Struct::field}` row in that
/// struct's table in metrics.cc, whose order is the render order. Code
/// records through `add(&Struct::field, n)` and reads whole structs through
/// `counts()`, `principal(id)`, `endpoint_snapshot(endpoint)` and
/// `backend_snapshot(name)`, so the compiler checks every counter a caller
/// names. A named recorder remains only where one event moves several cells
/// or follows an accounting rule. Each metrics object keeps every cell
/// under one lock — contention is negligible next to a localization pass,
/// and a single lock keeps snapshots consistent.
///
/// The `stats` endpoint and the shutdown dump both render the shared
/// `MetricsSnapshot` text format (schema line + `name value` lines):
///
///     abp-serve-stats 1
///     endpoint.localize.requests 128
///     endpoint.localize.p99us 55.0
///     ...
///     admission.submitted 130
///     admission.shed-overloaded 6
///     principal.7.submitted 64
///
/// The admission counters carry the drain-aware reconciliation the chaos
/// suite asserts: after every accepted request has been answered,
/// `submitted == completed + shed-overloaded + shed-unavailable +
/// shed-deadline` — no request is ever dropped without an accounted reply.
/// Per-principal counters (submitted / quota sheds) ride the same snapshot;
/// quota sheds also count toward `shed-overloaded`, so the reconciliation
/// is unchanged by quota enforcement.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/metrics_snapshot.h"
#include "common/stats.h"
#include "serve/protocol.h"

namespace abp::serve {

/// One endpoint's counters (`endpoint.<name>.*`).
struct EndpointCounts {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;  ///< responses with status != ok
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

/// Point-in-time copy of one endpoint's counters and latency percentiles.
struct EndpointSnapshot : EndpointCounts {
  std::uint64_t latency_samples = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// One principal's counters (`principal.<id>.*`); anonymous traffic is id
/// 0. The server renders `requests` as `submitted`, the router as
/// `received`.
struct PrincipalCounts {
  std::uint64_t requests = 0;
  std::uint64_t shed_quota = 0;  ///< the principal's bucket was empty
};

/// The server's own counters (`total.*`, `admission.*`).
struct ServiceCounts {
  std::uint64_t requests = 0;    ///< every endpoint's requests
  std::uint64_t errors = 0;      ///< every endpoint's errors
  std::uint64_t bad_frames = 0;  ///< inputs that never became a request
  std::uint64_t batches = 0;     ///< batches executed
  std::uint64_t coalesced = 0;   ///< requests executed in those batches
  /// Admission: every parse-ok submission, then exactly one of completed
  /// (handler executed, any status) or a shed by cause.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed_overloaded = 0;  ///< quota sheds included
  std::uint64_t shed_unavailable = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_quota = 0;
};

class ServiceMetrics {
 public:
  /// Add `n` to one server-wide counter, e.g. `&ServiceCounts::bad_frames`.
  void add(std::uint64_t ServiceCounts::*counter, std::uint64_t n = 1);

  /// Record one answered request (parse succeeded; status may be an error)
  /// on its endpoint and on `total.*`. Only a request that entered the
  /// queue passes `latency_us`; a refusal at the door passes nullopt and
  /// adds no latency sample, so the percentiles describe queued requests.
  void record(Endpoint endpoint, Status status, std::size_t bytes_in,
              std::size_t bytes_out, std::optional<double> latency_us);
  /// Record one executed batch of `n` requests, each of them completed.
  void record_batch(std::size_t n);
  /// Record one parse-ok submission, attributed to its principal.
  void record_submitted(std::uint64_t principal);
  /// `cause` must be kOverloaded, kUnavailable or kDeadlineExceeded.
  void record_shed(Status cause);
  /// Per-principal quota shed: the bucket for `principal` was empty. Also
  /// counts as a `kOverloaded` shed (the caller answers `overloaded`), so
  /// the admission reconciliation is unchanged.
  void record_quota_shed(std::uint64_t principal);

  ServiceCounts counts() const;
  PrincipalCounts principal(std::uint64_t id) const;
  EndpointSnapshot endpoint_snapshot(Endpoint endpoint) const;

  // The counters the benchmark reads by name.
  std::uint64_t batches() const { return counts().batches; }
  std::uint64_t coalesced_requests() const { return counts().coalesced; }
  std::uint64_t submitted() const { return counts().submitted; }
  std::uint64_t completed() const { return counts().completed; }
  std::uint64_t shed(Status cause) const;
  std::uint64_t shed_total() const;
  std::uint64_t quota_sheds() const { return counts().shed_quota; }

  /// Uniform snapshot of every counter (schema `abp-serve-stats 1`).
  MetricsSnapshot snapshot() const;
  /// The stats text (the `stats` endpoint body / shutdown dump).
  std::string render_text() const;

 private:
  struct PerEndpoint {
    EndpointCounts counts;
    Histogram latency_us = Histogram::latency_us();
  };

  mutable std::mutex mu_;
  PerEndpoint per_endpoint_[std::size(kAllEndpoints)];
  ServiceCounts counts_;
  std::map<std::uint64_t, PrincipalCounts> principals_;
};

/// Point-in-time copy of one backend's routing/health counters
/// (`backend.<name>.*`).
struct BackendSnapshot {
  std::uint64_t forwarded = 0;  ///< requests sent (first attempts + retries)
  std::uint64_t ok = 0;         ///< responses with status == ok
  std::uint64_t errors = 0;     ///< responses with status != ok
  std::uint64_t transport_failures = 0;  ///< send/flush/connect failures
  std::uint64_t retries = 0;    ///< re-sends to another replica
  std::uint64_t version_mismatches = 0;  ///< stale-snapshot rejections
  /// Catch-up traffic (`Replicator::catch_up`, whoever runs it: startup
  /// sync, breaker recovery, mismatch repair or a membership handoff).
  std::uint64_t installs = 0;   ///< snapshot installs acknowledged
  std::uint64_t mutations = 0;  ///< mutate requests shipped (writes + replay)
  std::uint64_t mutation_acks = 0;  ///< mutate requests acknowledged
  std::uint64_t replays = 0;    ///< log entries replayed and acknowledged
  std::uint64_t probes = 0;     ///< heartbeat probes sent
  std::uint64_t probe_failures = 0;
  std::uint64_t marked_down = 0;  ///< health transitions into `open`
  std::uint64_t recovered = 0;    ///< health transitions back to `closed`
};

/// The router's own counters (`router.*`, `writes.*`, `cache.*`, `quota.*`,
/// `membership.*`, `handoff.*`).
struct RouterCounts {
  std::uint64_t received = 0;
  /// Answered by the router itself (stats, list-fields, admin, cache hits,
  /// rejects, sheds).
  std::uint64_t local = 0;
  std::uint64_t forwarded = 0;  ///< every backend's `forwarded`
  /// Shed `unavailable` because no live replica (or write quorum) remained.
  std::uint64_t unrouted = 0;
  /// Unknown deployment answered locally: the registry does not hold the
  /// name, so no backend round trip.
  std::uint64_t filter_rejects = 0;
  /// Write path: one `writes` per client `add-beacon` appended to the log,
  /// then exactly one of `write_acks` (quorum reached) or
  /// `write_quorum_failures` (quorum impossible; the write stays logged and
  /// is answered retryable `unavailable`). A retried write whose id hits
  /// the dedup index counts a `write_dedup_hits` instead of a new write; if
  /// the original quorum was lost, the retry's re-fan-out can still count a
  /// `write_acks`, so over a run with retries `write_acks` may exceed
  /// `writes - write_quorum_failures`. A retry whose id rolled out of the
  /// window is answered terminal `dedup-expired`.
  std::uint64_t writes = 0;
  std::uint64_t write_acks = 0;
  std::uint64_t write_quorum_failures = 0;
  std::uint64_t write_dedup_hits = 0;
  std::uint64_t write_dedup_expired = 0;
  /// Response cache over cacheable reads: a hit is answered locally; an
  /// invalidation drops every entry of one deployment when a quorum-acked
  /// write bumps its version.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t cache_entries_invalidated = 0;
  std::uint64_t quota_sheds = 0;
  /// Membership gauges: the ring epoch and per-state member counts.
  std::uint64_t membership_epoch = 0;
  std::uint64_t membership_active = 0;
  std::uint64_t membership_joining = 0;
  std::uint64_t membership_draining = 0;
  /// Handoff catch-ups to a joining (or ownership-gaining) backend that
  /// succeeded: a snapshot when it shipped a full-state install, a replay
  /// when it replayed a log suffix. The backend's own `installs`,
  /// `mutations` and `replays` count the requests themselves.
  std::uint64_t handoff_snapshots = 0;
  std::uint64_t handoff_replays = 0;
};

/// Observability for the cluster router (`abp route`), rendered as the
/// router's `stats` endpoint body in the shared `MetricsSnapshot` format:
///
///     abp-route-stats 1
///     backend.127.0.0.1:7001.forwarded 42
///     ...
///     router.received 50
///     cache.hits 12
///     principal.7.received 20
class RouterMetrics {
 public:
  /// Register a backend so it renders (with zero counters) before traffic.
  void add_backend(const std::string& backend);

  /// Add `n` to one router-wide counter, e.g. `&RouterCounts::cache_hits`.
  void add(std::uint64_t RouterCounts::*counter, std::uint64_t n = 1);
  /// Add `n` to one of `backend`'s counters, e.g. `&BackendSnapshot::retries`.
  void add(const std::string& backend,
           std::uint64_t BackendSnapshot::*counter, std::uint64_t n = 1);

  /// Record one request, attributed to its principal (0 when unparseable).
  void record_received(std::uint64_t principal = 0);
  /// Record one request sent to `backend` (also `router.forwarded`).
  void record_forward(const std::string& backend);
  /// Per-principal quota shed: the bucket for `principal` was empty.
  void record_quota_shed(std::uint64_t principal);
  /// One cache invalidation that dropped `entries_dropped` entries.
  void record_cache_invalidation(std::size_t entries_dropped);
  /// Replace the membership gauges whole on every transition, so the stats
  /// output always reflects the live table.
  void set_membership(std::uint64_t epoch, std::uint64_t active,
                      std::uint64_t joining, std::uint64_t draining);

  RouterCounts counts() const;
  PrincipalCounts principal(std::uint64_t id) const;
  BackendSnapshot backend_snapshot(const std::string& backend) const;

  // The counters the benchmark reads by name.
  std::uint64_t cache_hits() const { return counts().cache_hits; }
  std::uint64_t cache_misses() const { return counts().cache_misses; }
  std::uint64_t cache_invalidations() const {
    return counts().cache_invalidations;
  }
  std::uint64_t filter_rejects() const { return counts().filter_rejects; }
  std::uint64_t write_quorum_failures() const {
    return counts().write_quorum_failures;
  }
  std::uint64_t write_dedup_hits() const { return counts().write_dedup_hits; }

  /// Uniform snapshot of every counter (schema `abp-route-stats 1`).
  MetricsSnapshot snapshot() const;
  std::string render_text() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, BackendSnapshot> backends_;
  RouterCounts counts_;
  std::map<std::uint64_t, PrincipalCounts> principals_;
};

}  // namespace abp::serve
