/// \file config.h
/// \brief Validated configuration for `abp serve` and `abp query`.
///
/// The serving front-ends used to pull a dozen flags apart inline; this
/// consolidates each command's surface into one struct with a single
/// parse-and-validate path (`from_flags`), so every invalid combination is
/// rejected with one diagnostic style before any socket or field I/O
/// happens. The structs are plain data — tests construct them directly —
/// and project onto the engine option types (`Server::Options`,
/// `TransportOptions`, `ServiceConfig`) via the accessors.
///
/// Flag names predating the consolidation keep working unchanged; the
/// transport flags are `--transport epoll` (the only kind, and the
/// default), `--event-shards N`, `--retry-after-ms H` and explicit
/// `--read-timeout-s`/`--write-timeout-s`. Parsing is declarative — each
/// config binds its flags once through `abp::FlagTable` (common/flags.h),
/// so per-flag shape validation and diagnostics are shared across `serve`,
/// `query` and `route` instead of re-implemented per config.
#pragma once

#include <cstdint>
#include <string>

#include "common/flags.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/server_transport.h"
#include "serve/service.h"

namespace abp::serve {

/// `--transport` (default `epoll`, the only kind); shared by `abp serve`
/// and `abp route`. Throws `CheckFailure` on any other name.
TransportKind transport_from_flags(const Flags& flags);

struct ServeConfig {
  std::string field_path;
  std::string name = "default";
  double noise = 0.0;
  std::uint64_t seed = 1;
  /// Request ids remembered per deployment for exactly-once `add-beacon`
  /// (`--dedup-window`; 0 disables server-side dedup). It counts ids, while
  /// the router's `--log-retain` counts log entries, id-free ones too.
  std::size_t dedup_window = 64;

  // One-shot mode (stdin/file frames through the loopback; no sockets).
  bool oneshot = false;
  std::string in_path;
  std::string out_path;

  // Server engine.
  std::size_t workers = 0;  ///< 0 = manual mode (I/O threads pump)
  std::size_t batch = 16;
  std::size_t max_queue = 0;
  std::size_t max_inflight = 0;
  std::uint32_t retry_after_hint_ms = 0;

  // Multi-tenant admission (`--quota-rps`/`--quota-burst`): per-principal
  // token buckets; 0 rps = quotas off, 0 burst = defaults to rps.
  double quota_rps = 0.0;
  double quota_burst = 0.0;

  // Network transport.
  TransportKind transport = TransportKind::kEpoll;
  std::uint16_t port = 0;
  std::size_t event_shards = 1;
  double read_timeout_s = 30.0;
  double write_timeout_s = 5.0;

  /// Parses and validates; throws `CheckFailure` with a flag-level
  /// diagnostic on any invalid value or combination.
  static ServeConfig from_flags(const Flags& flags);

  /// Re-check invariants on a directly constructed config.
  void validate() const;

  ServiceConfig service_config() const;
  Server::Options server_options() const;
  TransportOptions transport_options() const;
};

struct QueryConfig {
  /// Exactly one destination per invocation.
  enum class Mode {
    kLocalField,  ///< --field: in-process loopback exchange
    kConnect,     ///< --connect HOST:PORT over TCP with retries
    kEncode,      ///< --encode-to: write the request frame to a file
    kDecode,      ///< --decode: pretty-print response frames from a file
  };

  Mode mode = Mode::kLocalField;
  Request request;

  std::string field_path;   ///< kLocalField
  double noise = 0.0;
  std::uint64_t seed = 1;
  std::size_t batch = 16;

  std::string host = "127.0.0.1";  ///< kConnect
  std::uint16_t port = 0;
  RetryPolicy retry;

  std::string encode_path;  ///< kEncode
  bool append = false;
  bool corrupt = false;

  std::string decode_path;  ///< kDecode

  static QueryConfig from_flags(const Flags& flags);
  void validate() const;
};

}  // namespace abp::serve
