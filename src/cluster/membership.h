/// \file membership.h
/// \brief Live cluster membership: the epoch-numbered backend table and the
/// admin-plane controller that drives zero-downtime scale-up and drain.
///
/// The paper's premise is *adaptive, incremental* deployment — the serving
/// tier must resize the same way the placement layer does. This module turns
/// the startup-static ring into a control plane:
///
///  * `MembershipTable` owns the authoritative member set. Each member is in
///    one state — `joining` (pooled, receiving handoff, not routed),
///    `active` (in the ring), or `draining` (pooled for in-flight work, out
///    of the ring) — and every ring-changing transition bumps a monotonic
///    **epoch**. Readers never lock the table: it publishes an immutable
///    `MembershipView` (epoch + active-only `HashRing` + state map) behind a
///    `shared_ptr` swap, so the router's hot path grabs one consistent
///    placement per request.
///  * `MembershipController` executes the `admin` wire verbs. **add**: pool
///    the joiner, compute the deterministic `HashRing::transfer_set` against
///    the prospective ring, ship snapshot installs + mutation-log suffixes
///    through `Replicator::catch_up_blocking` until the joiner is
///    version-current, then — under the router's write fence, so no write
///    straddles the flip — replay the final delta, activate (epoch bump),
///    and invalidate the response cache for every remapped deployment.
///    **drain**: flip the member out of the ring first (again under the
///    write fence, with the same cache invalidation), hand its remapped
///    ranges to the owners that gained them, wait for its FIFO to empty
///    through `BackendPool`, then remove it.
///
/// Quorum during a transition: the router reads one view per write while
/// holding its write mutex, and both flips run inside that same mutex — so
/// every write's owner set, quorum and fan-out belong to exactly one epoch,
/// and a write admitted against the old epoch has fully entered the backend
/// FIFOs before the new epoch exists. Failed handoffs roll the joiner back
/// out; residual staleness is healed by the per-request version fence.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/ring.h"
#include "serve/protocol.h"

namespace abp::serve {
class RouterMetrics;
}  // namespace abp::serve

namespace abp::cluster {

class BackendPool;
class Replicator;

enum class MemberState {
  kJoining,   ///< pooled and receiving handoff; not in the routing ring
  kActive,    ///< in the routing ring, serving reads and taking writes
  kDraining,  ///< out of the ring; pooled only to finish in-flight work
};

const char* member_state_name(MemberState state);

/// One immutable published generation of the membership table. The ring
/// contains exactly the `active` members; `members` also lists joiners and
/// drainers so introspection sees the whole transition.
struct MembershipView {
  std::uint64_t epoch = 1;
  HashRing ring;
  std::map<std::string, MemberState> members;
};

/// The authoritative member table. All transitions serialize on an internal
/// mutex; reads are a shared_ptr copy of the last published view. Ring
/// epochs count ring *changes*: `activate` and `begin_drain` bump the
/// epoch, `begin_join`/`remove` republish the state map at the same epoch.
class MembershipTable {
 public:
  explicit MembershipTable(std::vector<std::string> active,
                           std::size_t vnodes = 64);

  std::shared_ptr<const MembershipView> view() const;
  std::uint64_t epoch() const;
  std::size_t count(MemberState state) const;

  /// Unknown → joining (pooled, not routed). False if already a member.
  bool begin_join(const std::string& backend);
  /// joining → active: ring rebuild + epoch bump. False otherwise.
  bool activate(const std::string& backend);
  /// active → draining: ring rebuild without it + epoch bump. Refuses to
  /// drain the last active member (the ring must never go empty).
  bool begin_drain(const std::string& backend);
  /// joining|draining → removed from the table. False for active members —
  /// an active member must drain first.
  bool remove(const std::string& backend);

 private:
  void publish_locked();

  mutable std::mutex mu_;
  std::size_t vnodes_;
  std::uint64_t epoch_ = 1;
  std::map<std::string, MemberState> members_;
  std::shared_ptr<const MembershipView> view_;
};

/// Outcome of one admin verb: `ok` with a text body, or a wire status +
/// message the router turns into an error response.
struct AdminResult {
  bool ok = false;
  serve::Status status = serve::Status::kBadRequest;
  std::string message;
  std::string text;

  static AdminResult failure(serve::Status status, std::string message);
  static AdminResult success(std::string text);
};

struct MembershipControllerOptions {
  /// Upper bound on the drain path's wait for the victim's FIFO to empty.
  /// A dead backend's queue is failed fast by its breaker, so this only
  /// bounds the healthy-but-slow case.
  double drain_timeout_ms = 5000.0;
  /// Injectable monotonic clock (milliseconds); defaults to steady_clock.
  std::function<double()> clock_ms;
};

/// Executes the admin plane. One operation at a time (`admin_mu_`); each
/// blocks its submit thread until the transition completes or rolls back,
/// so the wire response reports the final state.
class MembershipController {
 public:
  using Options = MembershipControllerOptions;

  MembershipController(MembershipTable& table, BackendPool& pool,
                       Replicator& replicator, serve::RouterMetrics& metrics,
                       Options options = {});

  /// Router hook: run `fn` while holding the router's write mutex, so a
  /// ring flip is atomic against the write path's view-read + fan-out.
  /// Unset, `fn` runs unfenced (table-only tests).
  void set_write_fence(std::function<void(const std::function<void()>&)> fence);
  /// Router hook: drop one deployment's response-cache entries (called for
  /// every remapped deployment inside the fenced flip).
  void set_invalidate(std::function<void(const std::string&)> invalidate);

  AdminResult add(const std::string& backend);
  AdminResult drain(const std::string& backend);
  AdminResult status() const;

 private:
  double now_ms() const;
  void publish_metrics() const;
  void run_fenced(const std::function<void()>& fn);
  void invalidate(const std::string& deployment);
  /// Hand `name` to `backend` from `have_version` (0 ships a snapshot)
  /// through `Replicator::catch_up_blocking`, counting the shipment as a
  /// handoff snapshot or replay. Returns the version reached, 0 on failure.
  std::uint64_t ship(const std::string& backend, const std::string& name,
                     std::uint64_t have_version);

  MembershipTable* table_;
  BackendPool* pool_;
  Replicator* replicator_;
  serve::RouterMetrics* metrics_;
  Options options_;
  std::function<void(const std::function<void()>&)> fence_;
  std::function<void(const std::string&)> invalidate_;
  mutable std::mutex admin_mu_;
};

}  // namespace abp::cluster
