/// \file quota.h
/// \brief Per-principal token-bucket admission (DESIGN.md §12).
///
/// One bucket per principal, refilled continuously at `rps` tokens per
/// second up to a `burst` capacity; every admitted request spends one
/// token. A principal that outruns its refill is shed with the existing
/// retryable `overloaded` status plus a `retry-after` hint computed from
/// its own bucket deficit — so a noisy tenant backs itself off while
/// everyone else's buckets stay full. Anonymous traffic (principal 0)
/// shares one bucket: identity is what buys an isolated budget.
///
/// The clock is injected by the caller (the server's and router's
/// `clock_ms`), so quota behavior is deterministic under the fault-
/// injection suites: tests advance a manual clock and watch tokens refill.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>

#include "serve/protocol.h"

namespace abp::serve {

/// Quota knobs (`--quota-rps`, `--quota-burst`). Plain data so configs can
/// carry it; `rps == 0` disables quota enforcement entirely.
struct QuotaOptions {
  /// Sustained admissions per second per principal; 0 = quotas off.
  double rps = 0.0;
  /// Bucket capacity (burst allowance above the sustained rate);
  /// 0 = defaults to `rps` (a one-second burst).
  double burst = 0.0;

  bool enabled() const { return rps > 0.0; }
  double capacity() const { return burst > 0.0 ? burst : rps; }
};

/// Thread-safe token buckets keyed by principal id. Buckets are created
/// lazily, full — a principal's first request is always admitted.
class PrincipalQuotas {
 public:
  struct Decision {
    bool admitted = true;
    /// When shed: milliseconds until this principal's bucket has refilled
    /// one whole token (never 0 on a shed — the hint must move the client).
    std::uint32_t retry_after_ms = 0;
  };

  explicit PrincipalQuotas(QuotaOptions options);

  /// Spend one token from `principal`'s bucket at time `now_ms`
  /// (monotonic milliseconds; the caller's injectable clock).
  Decision admit(std::uint64_t principal, double now_ms);

  /// Principals with a live bucket (observability).
  std::size_t principals() const;

  const QuotaOptions& options() const { return options_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    double updated_ms = 0.0;
  };

  QuotaOptions options_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, Bucket> buckets_;
};

/// The one quota refusal, shared by `Server` and `cluster::Router`: a
/// retryable `overloaded` answer to `request`, naming its principal, whose
/// `retry-after` hint is the bucket deficit `decision` carries.
Response quota_refusal(const Request& request,
                       const PrincipalQuotas::Decision& decision);

}  // namespace abp::serve
