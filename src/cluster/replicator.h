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
/// Every path that brings a backend's copy of a deployment up to date runs
/// through `catch_up`: it *replays* the missing `mutate` suffix when the
/// lag fits the log's retained window, or *resyncs* with one snapshot
/// install when it does not. Its callers are the startup barrier
/// `sync_all()`, breaker recovery `sync_backend()` (probe the version, then
/// catch up from it, never blocking the pool worker), the router's
/// mismatch repair, and the membership handoff via `catch_up_blocking`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
  /// backend's version, then `catch_up` from it.
  void sync_backend(const std::string& backend);

  /// What one catch-up achieved.
  struct CatchUpResult {
    std::uint64_t reached = 0;  ///< version the backend holds; 0 = failed
    bool installed = false;     ///< a snapshot install was acknowledged
    std::size_t replayed = 0;   ///< replayed entries acknowledged `ok`
  };
  using CatchUpDone = std::function<void(const CatchUpResult&)>;

  /// Bring `backend`'s copy of `name` from `have_version` to the log's
  /// version: replay the retained suffix in rounds (DESIGN.md §10), or ship
  /// one snapshot install when the gap is outside the window or
  /// `have_version` is 0. The first round is queued on the backend's FIFO
  /// before this returns, so work the caller queues next lands behind it.
  /// `done` (may be empty) runs exactly once; when the backend refuses the
  /// first enqueue, it runs with `reached == 0` before this returns false.
  bool catch_up(const std::string& backend, const std::string& name,
                std::uint64_t have_version, CatchUpDone done);

  /// `catch_up`, blocking until `done`. Never call it from a pool worker:
  /// the rounds it waits for need those threads.
  CatchUpResult catch_up_blocking(const std::string& backend,
                                  const std::string& name,
                                  std::uint64_t have_version);

  /// Build the install request for `name` at its current version, stamped
  /// with this replicator's incarnation.
  serve::Request install_request(const std::string& name) const;

  /// Build the `mutate` request for one logged entry of `name`.
  serve::Request mutate_request(const std::string& name,
                                const MutationLog::Entry& entry) const;

  /// The write-ahead log backing this replicator (the router's write path
  /// appends to it and fences reads on its acked versions).
  MutationLog& log() { return log_; }
  const MutationLog& log() const { return log_; }

 private:
  struct CatchUp;
  /// Queue one round of `state` from version `from`; false when the
  /// backend refused any of it.
  bool start_round(const std::shared_ptr<CatchUp>& state, std::uint64_t from);
  /// Settle `slots` of the round's requests with the reply to one of them
  /// (null when they failed or were refused); the last one ends the round.
  void settle(const std::shared_ptr<CatchUp>& state, std::size_t slots,
              const serve::Response* response);

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
