#include "serve/quota.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace abp::serve {

PrincipalQuotas::PrincipalQuotas(QuotaOptions options) : options_(options) {
  ABP_CHECK(options_.enabled(), "PrincipalQuotas needs --quota-rps > 0");
  ABP_CHECK(options_.capacity() > 0.0, "quota burst must be positive");
}

PrincipalQuotas::Decision PrincipalQuotas::admit(std::uint64_t principal,
                                                 double now_ms) {
  const double capacity = options_.capacity();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, created] = buckets_.try_emplace(principal);
  Bucket& bucket = it->second;
  if (created) {
    bucket.tokens = capacity;  // first contact starts with a full burst
    bucket.updated_ms = now_ms;
  }
  // Continuous refill; a non-monotonic clock reading refills nothing
  // rather than draining the bucket.
  const double elapsed_ms = std::max(0.0, now_ms - bucket.updated_ms);
  bucket.tokens = std::min(capacity,
                           bucket.tokens + elapsed_ms * options_.rps / 1e3);
  bucket.updated_ms = now_ms;
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return {};
  }
  Decision shed;
  shed.admitted = false;
  const double deficit_ms = (1.0 - bucket.tokens) / options_.rps * 1e3;
  shed.retry_after_ms = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(deficit_ms)));
  return shed;
}

std::size_t PrincipalQuotas::principals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_.size();
}

Response quota_refusal(const Request& request,
                       const PrincipalQuotas::Decision& decision) {
  return refusal(request.seq, Status::kOverloaded,
                 "quota exceeded for principal " +
                     std::to_string(request.principal) +
                     "; retry with backoff",
                 decision.retry_after_ms);
}

}  // namespace abp::serve
