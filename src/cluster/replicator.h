/// \file replicator.h
/// \brief Deployment state replication for the cluster router.
///
/// The router is the source of truth for which deployments exist and what
/// field each one serves; that truth lives in the `MutationLog` this
/// replicator owns. Backends are cattle: they boot empty and receive their
/// state over the ordinary wire protocol, either as versioned snapshot
/// installs (a `snapshot` request whose `text` block carries the serialized
/// field and whose `version` record stamps the deployment) or as replayed
/// `mutate` entries. Versioning closes the staleness window:
///
///  * Every forwarded query is stamped with the last *acked* version for
///    its deployment (read-your-writes).
///  * A backend whose deployment is older answers `version-mismatch`
///    (retryable) instead of silently serving stale beacons.
///  * The router repairs the mismatch by enqueueing a fresh install ahead
///    of the retried query on the same backend FIFO — ordering, not
///    locking, guarantees install-before-retry.
///
/// `sync_all()` pushes every deployment to all its ring owners and blocks
/// until each install is acknowledged or failed (startup barrier).
/// `sync_backend()` is the async recovery path: when the pool's breaker
/// closes on a recovered backend, each owned deployment is probed with a
/// cheap `version` request and then either *replayed* (the missing `mutate`
/// suffix, in order, when the lag fits the log's retained window) or
/// *resynced* (full snapshot install) — all enqueued on the backend's FIFO
/// from the probe reply, never blocking the prober.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/membership.h"
#include "cluster/mutation_log.h"
#include "cluster/ring.h"

namespace abp::cluster {

class Replicator {
 public:
  /// `replication` is the owner count per deployment (clamped to ring
  /// size); `log_retain` bounds the per-deployment replay window. Placement
  /// follows `membership`'s *published view*, so owner sets track live
  /// epoch flips without any replicator-side locking.
  Replicator(BackendPool& pool, const MembershipTable& membership,
             std::size_t replication, serve::RouterMetrics& metrics,
             std::size_t log_retain = MutationLog::kDefaultRetain);

  /// Register (or replace) a deployment's field snapshot; bumps the version
  /// and returns it. Does not push — call `sync_all`/`sync_backend`.
  std::uint64_t set_deployment(const std::string& name,
                               std::string field_text);

  /// Current version for `name`; 0 when unknown.
  std::uint64_t version(const std::string& name) const;

  /// Version reads should be fenced at: the last quorum-acked write (or the
  /// install version before any write). Never an in-flight version, so a
  /// fenced read always has a replica able to serve it.
  std::uint64_t read_version(const std::string& name) const;

  std::vector<std::string> names() const;

  /// One name per line (the router serves `list-fields` locally from this).
  std::string list_text() const;

  /// Owners of `name` under this replicator's replication factor, per the
  /// membership table's current view.
  std::vector<std::string> owners(const std::string& name) const;

  /// The configured owner count per deployment (the ring clamps it when
  /// fewer backends are active).
  std::size_t replication() const { return replication_; }

  /// Push every deployment to all its owners; blocks until each install is
  /// acknowledged or failed. Returns the number of successful installs.
  std::size_t sync_all();

  /// Async resync of every deployment `backend` owns (breaker-recovery
  /// path; runs on a pool worker thread, must not block): probe the
  /// backend's version, then replay the mutate suffix or install a full
  /// snapshot.
  void sync_backend(const std::string& backend);

  /// Build the install request for `name` at its current version, stamped
  /// with this replicator's incarnation (also used by the router's
  /// mismatch-repair path).
  serve::Request install_request(const std::string& name) const;

  /// Build the `mutate` request for one logged entry of `name`.
  serve::Request mutate_request(const std::string& name,
                                const MutationLog::Entry& entry) const;

  /// The write-ahead log backing this replicator (the router's write path
  /// appends to it and fences reads on its acked versions).
  MutationLog& log() { return log_; }
  const MutationLog& log() const { return log_; }

 private:
  /// Enqueue the replay-or-resync decision for one (backend, deployment)
  /// pair given the version the backend reported.
  void repair_backend(const std::string& backend, const std::string& name,
                      std::uint64_t have_version);

  BackendPool* pool_;
  const MembershipTable* membership_;
  std::size_t replication_;
  serve::RouterMetrics* metrics_;
  /// Stamped on every install, so backends can fence out-of-order installs
  /// of this log's versions and still accept a restarted router's.
  const std::uint64_t incarnation_;
  MutationLog log_;
};

}  // namespace abp::cluster
