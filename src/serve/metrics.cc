#include "serve/metrics.h"

namespace abp::serve {

namespace {

/// One counter's stats name and its cell in a counts struct.
template <typename Counts>
struct Row {
  const char* name;
  std::uint64_t Counts::*cell;
};

// Each table lists its struct's counters in render order.

constexpr Row<EndpointCounts> kEndpointRows[] = {
    {"requests", &EndpointCounts::requests},
    {"errors", &EndpointCounts::errors},
    {"bytes-in", &EndpointCounts::bytes_in},
    {"bytes-out", &EndpointCounts::bytes_out},
};

constexpr Row<ServiceCounts> kServiceRows[] = {
    {"total.requests", &ServiceCounts::requests},
    {"total.errors", &ServiceCounts::errors},
    {"total.bad-frames", &ServiceCounts::bad_frames},
    {"total.batches", &ServiceCounts::batches},
    {"total.coalesced", &ServiceCounts::coalesced},
    {"admission.submitted", &ServiceCounts::submitted},
    {"admission.completed", &ServiceCounts::completed},
    {"admission.shed-overloaded", &ServiceCounts::shed_overloaded},
    {"admission.shed-unavailable", &ServiceCounts::shed_unavailable},
    {"admission.shed-deadline", &ServiceCounts::shed_deadline},
    {"admission.shed-quota", &ServiceCounts::shed_quota},
};

constexpr Row<PrincipalCounts> kServicePrincipalRows[] = {
    {"submitted", &PrincipalCounts::requests},
    {"shed-quota", &PrincipalCounts::shed_quota},
};

constexpr Row<BackendSnapshot> kBackendRows[] = {
    {"forwarded", &BackendSnapshot::forwarded},
    {"ok", &BackendSnapshot::ok},
    {"errors", &BackendSnapshot::errors},
    {"transport-failures", &BackendSnapshot::transport_failures},
    {"retries", &BackendSnapshot::retries},
    {"version-mismatches", &BackendSnapshot::version_mismatches},
    {"installs", &BackendSnapshot::installs},
    {"mutations", &BackendSnapshot::mutations},
    {"mutation-acks", &BackendSnapshot::mutation_acks},
    {"replays", &BackendSnapshot::replays},
    {"probes", &BackendSnapshot::probes},
    {"probe-failures", &BackendSnapshot::probe_failures},
    {"marked-down", &BackendSnapshot::marked_down},
    {"recovered", &BackendSnapshot::recovered},
};

constexpr Row<RouterCounts> kRouterRows[] = {
    {"router.received", &RouterCounts::received},
    {"router.local", &RouterCounts::local},
    {"router.forwarded", &RouterCounts::forwarded},
    {"router.unrouted", &RouterCounts::unrouted},
    {"router.filter-rejects", &RouterCounts::filter_rejects},
    {"writes.submitted", &RouterCounts::writes},
    {"writes.acked", &RouterCounts::write_acks},
    {"writes.quorum-failures", &RouterCounts::write_quorum_failures},
    {"writes.dedup-hits", &RouterCounts::write_dedup_hits},
    {"writes.dedup-expired", &RouterCounts::write_dedup_expired},
    {"cache.hits", &RouterCounts::cache_hits},
    {"cache.misses", &RouterCounts::cache_misses},
    {"cache.invalidations", &RouterCounts::cache_invalidations},
    {"cache.entries-invalidated", &RouterCounts::cache_entries_invalidated},
    {"quota.sheds", &RouterCounts::quota_sheds},
    {"membership.epoch", &RouterCounts::membership_epoch},
    {"membership.active", &RouterCounts::membership_active},
    {"membership.joining", &RouterCounts::membership_joining},
    {"membership.draining", &RouterCounts::membership_draining},
    {"handoff.snapshots", &RouterCounts::handoff_snapshots},
    {"handoff.replays", &RouterCounts::handoff_replays},
};

constexpr Row<PrincipalCounts> kRouterPrincipalRows[] = {
    {"received", &PrincipalCounts::requests},
    {"shed-quota", &PrincipalCounts::shed_quota},
};

/// Append one struct's counters to `snap`, each name behind `prefix`.
template <typename Counts, std::size_t N>
void put(MetricsSnapshot& snap, const std::string& prefix,
         const Counts& counts, const Row<Counts> (&rows)[N]) {
  for (const Row<Counts>& row : rows) {
    snap.set_count(prefix + row.name, counts.*row.cell);
  }
}

template <std::size_t N>
void put_principals(MetricsSnapshot& snap,
                    const std::map<std::uint64_t, PrincipalCounts>& principals,
                    const Row<PrincipalCounts> (&rows)[N]) {
  for (const auto& [id, counts] : principals) {
    put(snap, "principal." + std::to_string(id) + '.', counts, rows);
  }
}

std::size_t endpoint_slot(Endpoint endpoint) {
  for (std::size_t i = 0; i < std::size(kAllEndpoints); ++i) {
    if (kAllEndpoints[i] == endpoint) return i;
  }
  return 0;
}

/// The admission cell a shed `cause` counts in; null for any other status.
std::uint64_t ServiceCounts::*shed_cell(Status cause) {
  switch (cause) {
    case Status::kOverloaded: return &ServiceCounts::shed_overloaded;
    case Status::kUnavailable: return &ServiceCounts::shed_unavailable;
    case Status::kDeadlineExceeded: return &ServiceCounts::shed_deadline;
    default: return nullptr;
  }
}

}  // namespace

void ServiceMetrics::add(std::uint64_t ServiceCounts::*counter,
                         std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.*counter += n;
}

void ServiceMetrics::record(Endpoint endpoint, Status status,
                            std::size_t bytes_in, std::size_t bytes_out,
                            std::optional<double> latency_us) {
  std::lock_guard<std::mutex> lock(mu_);
  PerEndpoint& pe = per_endpoint_[endpoint_slot(endpoint)];
  ++pe.counts.requests;
  ++counts_.requests;
  if (status != Status::kOk) {
    ++pe.counts.errors;
    ++counts_.errors;
  }
  pe.counts.bytes_in += bytes_in;
  pe.counts.bytes_out += bytes_out;
  if (latency_us) pe.latency_us.add(*latency_us);
}

void ServiceMetrics::record_batch(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.batches;
  counts_.coalesced += n;
  counts_.completed += n;
}

void ServiceMetrics::record_submitted(std::uint64_t principal) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.submitted;
  ++principals_[principal].requests;
}

void ServiceMetrics::record_shed(Status cause) {
  std::uint64_t ServiceCounts::*cell = shed_cell(cause);
  // Unreachable by contract; counted rather than dropped.
  add(cell ? cell : &ServiceCounts::shed_unavailable);
}

void ServiceMetrics::record_quota_shed(std::uint64_t principal) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.shed_overloaded;  // quota sheds answer `overloaded`
  ++counts_.shed_quota;
  ++principals_[principal].shed_quota;
}

ServiceCounts ServiceMetrics::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

PrincipalCounts ServiceMetrics::principal(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = principals_.find(id);
  return it == principals_.end() ? PrincipalCounts{} : it->second;
}

EndpointSnapshot ServiceMetrics::endpoint_snapshot(Endpoint endpoint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const PerEndpoint& pe = per_endpoint_[endpoint_slot(endpoint)];
  EndpointSnapshot snap;
  static_cast<EndpointCounts&>(snap) = pe.counts;
  snap.latency_samples = pe.latency_us.count();
  snap.p50_us = pe.latency_us.p50();
  snap.p95_us = pe.latency_us.p95();
  snap.p99_us = pe.latency_us.p99();
  return snap;
}

std::uint64_t ServiceMetrics::shed(Status cause) const {
  std::uint64_t ServiceCounts::*cell = shed_cell(cause);
  return cell ? counts().*cell : 0;
}

std::uint64_t ServiceMetrics::shed_total() const {
  const ServiceCounts c = counts();
  return c.shed_overloaded + c.shed_unavailable + c.shed_deadline;
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap("abp-serve-stats 1");
  for (std::size_t i = 0; i < std::size(kAllEndpoints); ++i) {
    const PerEndpoint& pe = per_endpoint_[i];
    const std::string prefix =
        std::string("endpoint.") + endpoint_name(kAllEndpoints[i]) + '.';
    put(snap, prefix, pe.counts, kEndpointRows);
    snap.set_gauge(prefix + "p50us", pe.latency_us.p50());
    snap.set_gauge(prefix + "p95us", pe.latency_us.p95());
    snap.set_gauge(prefix + "p99us", pe.latency_us.p99());
  }
  put(snap, "", counts_, kServiceRows);
  put_principals(snap, principals_, kServicePrincipalRows);
  return snap;
}

std::string ServiceMetrics::render_text() const {
  return snapshot().render_text();
}

void RouterMetrics::add_backend(const std::string& backend) {
  std::lock_guard<std::mutex> lock(mu_);
  backends_.try_emplace(backend);
}

void RouterMetrics::add(std::uint64_t RouterCounts::*counter,
                        std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.*counter += n;
}

void RouterMetrics::add(const std::string& backend,
                        std::uint64_t BackendSnapshot::*counter,
                        std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  backends_[backend].*counter += n;
}

void RouterMetrics::record_received(std::uint64_t principal) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.received;
  ++principals_[principal].requests;
}

void RouterMetrics::record_forward(const std::string& backend) {
  std::lock_guard<std::mutex> lock(mu_);
  ++backends_[backend].forwarded;
  ++counts_.forwarded;
}

void RouterMetrics::record_quota_shed(std::uint64_t principal) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.quota_sheds;
  ++principals_[principal].shed_quota;
}

void RouterMetrics::record_cache_invalidation(std::size_t entries_dropped) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.cache_invalidations;
  counts_.cache_entries_invalidated += entries_dropped;
}

void RouterMetrics::set_membership(std::uint64_t epoch, std::uint64_t active,
                                   std::uint64_t joining,
                                   std::uint64_t draining) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.membership_epoch = epoch;
  counts_.membership_active = active;
  counts_.membership_joining = joining;
  counts_.membership_draining = draining;
}

RouterCounts RouterMetrics::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

PrincipalCounts RouterMetrics::principal(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = principals_.find(id);
  return it == principals_.end() ? PrincipalCounts{} : it->second;
}

BackendSnapshot RouterMetrics::backend_snapshot(
    const std::string& backend) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = backends_.find(backend);
  return it == backends_.end() ? BackendSnapshot{} : it->second;
}

MetricsSnapshot RouterMetrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap("abp-route-stats 1");
  for (const auto& [name, backend] : backends_) {
    put(snap, "backend." + name + '.', backend, kBackendRows);
  }
  put(snap, "", counts_, kRouterRows);
  put_principals(snap, principals_, kRouterPrincipalRows);
  return snap;
}

std::string RouterMetrics::render_text() const {
  return snapshot().render_text();
}

}  // namespace abp::serve
