/// \file metrics.h
/// \brief Built-in observability for the localization query service.
///
/// Per-endpoint request/error/byte counters plus a log-spaced latency
/// histogram (`abp::Histogram`), aggregated under one lock — contention is
/// negligible next to a localization pass, and a single lock keeps snapshots
/// consistent. The `stats` endpoint and the shutdown dump both render the
/// shared `MetricsSnapshot` text format (schema line + `name value` lines):
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
#include <iosfwd>
#include <iterator>
#include <map>
#include <mutex>
#include <string>

#include "common/metrics_snapshot.h"
#include "common/stats.h"
#include "serve/protocol.h"

namespace abp::serve {

/// Point-in-time copy of one endpoint's counters.
struct EndpointSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;  ///< responses with status != ok
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t latency_samples = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

class ServiceMetrics {
 public:
  ServiceMetrics();

  /// Record one completed request (parse succeeded; status may be an error).
  void record(Endpoint endpoint, Status status, std::size_t bytes_in,
              std::size_t bytes_out, double latency_us);

  /// Record an input that never became a request (corrupt frame or
  /// unparseable payload).
  void record_bad_frame(std::size_t bytes_in);

  /// Record one executed batch of `coalesced` point-query requests.
  void record_batch(std::size_t coalesced);

  /// Admission accounting. Every parse-ok submission is recorded once via
  /// `record_submitted` (attributed to its principal), then exactly once
  /// more as either completed (handler executed, any status) or shed
  /// (rejected or expired before execution, by cause).
  void record_submitted(std::uint64_t principal = 0);
  void record_completed(std::size_t n = 1);
  /// `cause` must be kOverloaded, kUnavailable or kDeadlineExceeded.
  void record_shed(Status cause);
  /// Per-principal quota shed: the bucket for `principal` was empty. Also
  /// counts as a `kOverloaded` shed (the caller answers `overloaded`), so
  /// the admission reconciliation is unchanged.
  void record_quota_shed(std::uint64_t principal);

  EndpointSnapshot endpoint_snapshot(Endpoint endpoint) const;
  std::uint64_t total_requests() const;
  std::uint64_t total_errors() const;
  std::uint64_t bad_frames() const;
  std::uint64_t batches() const;
  std::uint64_t coalesced_requests() const;
  std::uint64_t submitted() const;
  std::uint64_t completed() const;
  std::uint64_t shed(Status cause) const;
  std::uint64_t shed_total() const;
  std::uint64_t quota_sheds() const;
  std::uint64_t principal_submitted(std::uint64_t principal) const;
  std::uint64_t principal_quota_sheds(std::uint64_t principal) const;

  /// Uniform snapshot of every counter (schema `abp-serve-stats 1`).
  MetricsSnapshot snapshot() const;

  /// Render the stats text (the `stats` endpoint body / shutdown dump) —
  /// `snapshot().render_text()`.
  void render(std::ostream& out) const;
  std::string render_text() const;

 private:
  struct PerEndpoint {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    Histogram latency_us = Histogram::latency_us();
  };

  static constexpr std::size_t kEndpointCount = std::size(kAllEndpoints);

  mutable std::mutex mu_;
  PerEndpoint per_endpoint_[kEndpointCount];
  std::uint64_t bad_frames_ = 0;
  std::uint64_t bad_frame_bytes_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t shed_overloaded_ = 0;
  std::uint64_t shed_unavailable_ = 0;
  std::uint64_t shed_deadline_ = 0;
  std::uint64_t shed_quota_ = 0;
  /// principal id -> {submitted, quota sheds}; anonymous traffic is id 0.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      principals_;
};

/// Point-in-time copy of one backend's routing/health counters.
struct BackendSnapshot {
  std::uint64_t forwarded = 0;  ///< requests sent (first attempts + retries)
  std::uint64_t ok = 0;         ///< responses with status == ok
  std::uint64_t errors = 0;     ///< responses with status != ok
  std::uint64_t transport_failures = 0;  ///< send/flush/connect failures
  std::uint64_t retries = 0;    ///< re-sends to another replica
  std::uint64_t version_mismatches = 0;  ///< stale-snapshot rejections
  std::uint64_t installs = 0;   ///< snapshot installs acknowledged
  std::uint64_t mutations = 0;  ///< mutate requests shipped (writes + replay)
  std::uint64_t mutation_acks = 0;  ///< mutate requests acknowledged
  std::uint64_t replays = 0;    ///< log entries replayed (recovery, handoff)
  std::uint64_t probes = 0;     ///< heartbeat probes sent
  std::uint64_t probe_failures = 0;
  std::uint64_t marked_down = 0;  ///< health transitions into `open`
  std::uint64_t recovered = 0;    ///< health transitions back to `closed`
};

/// Observability for the cluster router (`abp route`): per-backend
/// forwarding and health counters plus cache, filter and per-principal
/// accounting, rendered as the router's `stats` endpoint body in the
/// shared `MetricsSnapshot` format:
///
///     abp-route-stats 1
///     backend.127.0.0.1:7001.forwarded 42
///     ...
///     router.received 50
///     cache.hits 12
///     principal.7.submitted 20
///
/// `router.unrouted` counts requests answered `unavailable` because every
/// replica of the target deployment was down.
class RouterMetrics {
 public:
  RouterMetrics();

  /// Register a backend so it renders (with zero counters) before traffic.
  void add_backend(const std::string& backend);

  void record_received(std::uint64_t principal = 0);
  /// Request answered by the router itself (stats / list-fields /
  /// cache hits / filter rejects).
  void record_local();
  void record_forward(const std::string& backend);
  void record_result(const std::string& backend, Status status);
  void record_transport_failure(const std::string& backend);
  void record_retry(const std::string& backend);
  void record_version_mismatch(const std::string& backend);
  void record_install(const std::string& backend);
  void record_mutation(const std::string& backend);
  void record_mutation_ack(const std::string& backend);
  void record_replay(const std::string& backend);
  void record_probe(const std::string& backend, bool ok);
  void record_marked_down(const std::string& backend);
  void record_recovered(const std::string& backend);
  /// Request shed `unavailable` because no live replica remained.
  void record_unrouted();
  /// Write-path accounting: one `record_write` per client `add-beacon`
  /// accepted into the log, then exactly one of `record_write_ack`
  /// (quorum reached) or `record_write_quorum_failure` (quorum impossible;
  /// the write stays logged and is answered retryable `unavailable`).
  /// A retried write whose id hits the dedup index records a `dedup_hit`
  /// instead of a new `write`; if the original quorum was lost, the retry's
  /// re-fan-out can still record a `write_ack` — so over a run with retries,
  /// `write_acks` may exceed `writes - quorum_failures`.
  void record_write();
  void record_write_ack();
  void record_write_quorum_failure();
  /// Duplicate delivery suppressed: answered from the dedup index without
  /// a new log append.
  void record_write_dedup_hit();
  /// Retry whose id rolled out of the dedup window: answered terminal
  /// `dedup-expired`, never silently re-appended.
  void record_write_dedup_expired();
  /// Response-cache accounting for cacheable read endpoints: a hit is
  /// answered locally without touching a backend; an invalidation drops
  /// every entry of one deployment when a quorum-acked write bumps its
  /// version.
  void record_cache_hit();
  void record_cache_miss();
  void record_cache_invalidation(std::size_t entries_dropped);
  /// Unknown-deployment request answered locally: the registry does not
  /// hold the name, so no backend round-trip. (Reported as
  /// `router.filter-rejects`, the name the stats schema keeps.)
  void record_filter_reject();
  /// Per-principal quota shed: the bucket for `principal` was empty.
  void record_quota_shed(std::uint64_t principal);
  /// Membership control plane: the current ring epoch and per-state member
  /// counts — gauges, replaced whole on every transition so the stats
  /// output always reflects the live table.
  void set_membership(std::uint64_t epoch, std::uint64_t active,
                      std::uint64_t joining, std::uint64_t draining);
  /// Handoff shipments to a joining (or ownership-gaining) backend, per
  /// handoff catch-up that succeeded: one `handoff_snapshot` when it shipped
  /// a full-state install, one `handoff_replay` when it replayed a
  /// mutation-log suffix to close the gap that opened while the snapshot
  /// shipped. The backend's own `installs`/`mutations`/`replays` count the
  /// requests themselves, as for every other catch-up.
  void record_handoff_snapshot();
  void record_handoff_replay();

  BackendSnapshot backend_snapshot(const std::string& backend) const;
  std::uint64_t received() const;
  std::uint64_t forwarded_total() const;
  std::uint64_t unrouted() const;
  std::uint64_t writes() const;
  std::uint64_t write_acks() const;
  std::uint64_t write_quorum_failures() const;
  std::uint64_t write_dedup_hits() const;
  std::uint64_t write_dedup_expired() const;
  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;
  std::uint64_t cache_invalidations() const;
  std::uint64_t cache_entries_invalidated() const;
  std::uint64_t filter_rejects() const;
  std::uint64_t quota_sheds() const;
  std::uint64_t principal_received(std::uint64_t principal) const;
  std::uint64_t principal_quota_sheds(std::uint64_t principal) const;
  std::uint64_t membership_epoch() const;
  std::uint64_t membership_active() const;
  std::uint64_t membership_joining() const;
  std::uint64_t membership_draining() const;
  std::uint64_t handoff_snapshots() const;
  std::uint64_t handoff_replays() const;

  /// Uniform snapshot of every counter (schema `abp-route-stats 1`).
  MetricsSnapshot snapshot() const;

  void render(std::ostream& out) const;
  std::string render_text() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, BackendSnapshot> backends_;
  std::uint64_t received_ = 0;
  std::uint64_t local_ = 0;
  std::uint64_t unrouted_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t write_acks_ = 0;
  std::uint64_t write_quorum_failures_ = 0;
  std::uint64_t write_dedup_hits_ = 0;
  std::uint64_t write_dedup_expired_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_invalidations_ = 0;
  std::uint64_t cache_entries_invalidated_ = 0;
  std::uint64_t filter_rejects_ = 0;
  std::uint64_t quota_sheds_ = 0;
  std::uint64_t membership_epoch_ = 0;
  std::uint64_t membership_active_ = 0;
  std::uint64_t membership_joining_ = 0;
  std::uint64_t membership_draining_ = 0;
  std::uint64_t handoff_snapshots_ = 0;
  std::uint64_t handoff_replays_ = 0;
  /// principal id -> {received, quota sheds}; anonymous traffic is id 0.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      principals_;
};

}  // namespace abp::serve
