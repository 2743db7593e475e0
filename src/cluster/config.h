/// \file config.h
/// \brief Validated configuration for `abp route`.
///
/// Same shape as `serve::ServeConfig`: one parse-and-validate path
/// (`from_flags`) so every invalid flag combination is rejected with one
/// diagnostic style before any socket is opened, plus projections onto the
/// engine option types (`BackendPoolOptions`, `Router::Options`,
/// `TransportOptions`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/router.h"
#include "common/flags.h"
#include "serve/server_transport.h"

namespace abp::cluster {

struct RouterConfig {
  /// Backends, repeated `--backend host:port` (order-insensitive: the ring
  /// sorts placement by hash, not by flag order).
  std::vector<std::string> backends;
  /// Owners per deployment (clamped to the backend count by the ring).
  std::size_t replication = 1;
  /// Owner acks required before a write is acknowledged to the client;
  /// 0 = majority of owners.
  std::size_t write_quorum = 0;
  /// Mutation-log entries retained per deployment (the replay window on
  /// circuit-breaker recovery; lag beyond it takes a full snapshot resync).
  /// Doubles as the request-id dedup window, counted in entries (id-free
  /// ones too): a retry whose id has rolled out of it is answered terminal
  /// `dedup-expired`.
  std::size_t log_retain = 64;
  /// Request-id deduplication on the write path (`--dedup 0` disables —
  /// benchmarking only; every delivery then appends).
  bool dedup = true;
  /// Version-fenced response cache for cacheable read endpoints
  /// (`--cache 0` disables; `--cache-entries` bounds the LRU).
  bool cache = true;
  std::size_t cache_entries = 1024;
  /// Per-principal token-bucket quotas (`--quota-rps`/`--quota-burst`);
  /// 0 rps = quotas off, 0 burst = defaults to rps.
  double quota_rps = 0.0;
  double quota_burst = 0.0;
  /// Membership admin plane (`--admin 0` rejects the `admin` endpoint on
  /// routers that must stay immutable).
  bool admin = true;
  /// Upper bound on a drain's wait for the victim's FIFO to empty.
  double drain_timeout_ms = 5000.0;
  /// Heartbeat probe cadence.
  double heartbeat_ms = 1000.0;
  /// Consecutive failures that trip a backend's breaker.
  std::size_t failure_threshold = 3;
  double connect_timeout_s = 2.0;

  /// The single deployment this router seeds (mirrors `abp serve`).
  std::string field_path;
  std::string name = "default";

  /// Client-facing transport (same surface as `abp serve`).
  serve::TransportKind transport = serve::TransportKind::kEpoll;
  std::uint16_t port = 0;
  std::size_t event_shards = 1;
  std::size_t max_inflight = 0;
  std::uint32_t retry_after_hint_ms = 50;
  double read_timeout_s = 30.0;
  double write_timeout_s = 5.0;

  /// Parses and validates; throws `CheckFailure` with a flag-level
  /// diagnostic on any invalid value or combination.
  static RouterConfig from_flags(const Flags& flags);

  /// Re-check invariants on a directly constructed config.
  void validate() const;

  BackendPoolOptions pool_options() const;
  Router::Options router_options() const;
  serve::TransportOptions transport_options() const;
};

}  // namespace abp::cluster
