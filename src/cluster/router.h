/// \file router.h
/// \brief Cluster request router: a `FrameSink` that forwards instead of
/// executing.
///
/// The router terminates client connections with the exact same transport
/// machinery as a single server — `make_server_transport` accepts any
/// `FrameSink`, and `Router` is one — so `abp query` speaks to a cluster
/// without knowing it. Per submitted payload:
///
///  * Router-local endpoints (`EndpointTraits::router_local`: stats,
///    list-fields) are answered locally (router metrics, the replicator's
///    deployment registry) — quota-exempt, so a loaded router stays
///    introspectable.
///  * With quotas on, every other request first spends a token from its
///    principal's bucket; an empty bucket sheds retryable `overloaded`
///    with a `retry-after` hint from that principal's own refill deficit.
///  * Requests naming a deployment the replicator's registry does not hold
///    (`Replicator::version` reads 0) are answered `not-found` locally.
///  * Cacheable endpoints (`EndpointTraits::cacheable`) consult the
///    version-fenced response cache: a hit at the current read fence is
///    answered from memory, byte-identical to the forwarded response it
///    was stored from; a quorum-acked write invalidates the deployment's
///    entries *before* the write ack fires (read-your-writes).
///  * Everything else is routed by deployment name: the consistent-hash
///    ring yields the replica preference order, the request is stamped with
///    the router's snapshot version, and it is forwarded to the first
///    replica whose breaker admits it.
///
/// Retry semantics, in order of what can go wrong:
///
///  * **Breaker refuses** (backend marked down): the next replica is tried
///    — the request never left the router, so this is always safe. No live
///    replica ⇒ retryable `unavailable` with a retry-after hint.
///  * **Transport dies mid-request**: the request may or may not have
///    executed. Idempotent endpoints (everything but `add-beacon`) fail
///    over to the next replica; `add-beacon` is answered `unavailable` and
///    the client decides.
///  * **Backend answers `version-mismatch`** (stale snapshot): the router
///    enqueues a fresh install followed by the original request on the
///    same backend FIFO — per-backend ordering guarantees the install
///    lands first. One repair per request; a second mismatch is forwarded
///    to the client as the retryable status it is.
///  * **Backend answers `unavailable`** (backend shutting down): treated
///    like a transport failure — fail over if idempotent.
///
/// `overloaded` and `deadline-exceeded` pass through untouched: the backend
/// answered authoritatively and the client's retry policy owns backoff.
/// Responses are re-encoded with the version record stripped, which makes
/// a routed response byte-identical to a direct single-server one.
///
/// **Writes** (`add-beacon`) take a different path: the router is the
/// deterministic primary for every deployment it fronts. The write is
/// validated exactly as a backend would, appended to the replicator's
/// mutation log (assigning the next per-deployment version and the same
/// clamped positions/beacon ids every replica will compute), fanned out to
/// all ring owners as version-fenced `mutate` requests, and acknowledged to
/// the client — with a response synthesized from the deterministic apply,
/// byte-identical to a direct server's — only once a quorum of owners has
/// acked. A replica answering `version-mismatch` gets the install-then-retry
/// repair (once per replica per write); a quorum that becomes impossible is
/// answered retryable `unavailable` (the write stays logged and converges to
/// the replicas). Reads are fenced at the last *acked* version, giving
/// read-your-writes without ever fencing on an in-flight write.
///
/// **Exactly-once writes** (DESIGN.md §11): a write carrying a `request-id`
/// is checked against the mutation log's dedup index before anything is
/// appended. A hit on an already-acked entry answers the original ack
/// immediately; a hit on an entry whose quorum was lost re-fans the *logged*
/// entry out (same version, same points — replicas ack idempotently) and
/// answers the original ack at quorum, so the client's retry completes the
/// first write instead of minting a second one. An unknown id on a retry
/// (attempt > 0) after the index has evicted anything is answered terminal
/// `dedup-expired` — never silently re-appended.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/membership.h"
#include "cluster/replicator.h"
#include "cluster/response_cache.h"
#include "cluster/ring.h"
#include "common/thread_pool.h"
#include "serve/frame_sink.h"
#include "serve/metrics.h"
#include "serve/quota.h"

namespace abp::cluster {

struct RouterOptions {
  /// Retry-after hint attached to router-side sheds (`unavailable`).
  std::uint32_t retry_after_hint_ms = 50;
  /// Owner acks required before a write is acknowledged to the client;
  /// 0 = majority of the deployment's owners (floor(R/2)+1). Clamped to
  /// the owner count.
  std::size_t write_quorum = 0;
  /// Request-id deduplication on the write path. Off, ids are ignored and
  /// every delivery appends — only for benchmarking the suppression win;
  /// production routers keep it on.
  bool dedup = true;
  /// Version-fenced response cache capacity for cacheable read endpoints
  /// (`--cache-entries`); 0 disables the cache (`--cache 0`).
  std::size_t cache_entries = 1024;
  /// Per-principal token-bucket quotas (`--quota-rps`/`--quota-burst`);
  /// `quota.rps == 0` disables enforcement. Router-local endpoints
  /// (stats / list-fields) are exempt so operators can always introspect
  /// a loaded router.
  serve::QuotaOptions quota;
  /// Injectable monotonic clock (milliseconds); defaults to steady_clock.
  std::function<double()> clock_ms;
  /// Membership admin plane (`abp route-admin`): `--admin 0` rejects the
  /// `admin` endpoint outright on routers that must stay immutable.
  bool admin = true;
  /// Upper bound on the drain path's wait for a victim's FIFO to empty.
  double drain_timeout_ms = 5000.0;
};

class Router final : public serve::FrameSink {
 public:
  using Options = RouterOptions;

  /// Placement follows `membership`'s published view, which the router's
  /// own admin plane may flip while serving — the write path reads one
  /// view per write under `write_mu_`, and membership flips run inside
  /// that same mutex, so every write belongs to exactly one ring epoch.
  Router(MembershipTable& membership, BackendPool& pool,
         Replicator& replicator, serve::RouterMetrics& metrics,
         Options options = {});

  /// The membership controller behind the `admin` endpoint (tests and the
  /// CLI may drive it directly).
  MembershipController& membership_controller() { return *admin_; }

  void submit(std::string payload,
              std::function<void(std::string)> reply) override;
  void shed_overloaded(std::string payload,
                       std::function<void(std::string)> reply,
                       const std::string& why) override;
  void record_bad_frame(std::size_t bytes_in) override;
  double now_ms() const override;

 private:
  /// Per-request routing state, owned by the callback chain. Exactly one
  /// reply reaches the client: the chain either delivers a backend
  /// response or finishes with a router-side shed.
  struct CallState {
    serve::Request request;
    std::vector<std::string> owners;  ///< replica preference order
    std::size_t next_owner = 0;       ///< index of the attempt in flight
    bool repaired = false;            ///< one version-mismatch repair spent
    /// Response-cache bookkeeping (cacheable endpoints that missed):
    /// `deliver` stores the backend's ok response under `cache_key` at the
    /// version the read was fenced at.
    bool cache_store = false;
    std::string cache_key;
    std::uint64_t cache_version = 0;
    std::function<void(std::string)> reply;
  };

  /// Per-write replication state, owned by the mutation callback chain.
  /// Exactly one reply reaches the client: the synthesized ok once `quorum`
  /// owners acked, or a retryable `unavailable` once quorum is impossible.
  struct WriteState {
    std::mutex mu;
    serve::Request mutate;           ///< the fanned-out mutation
    std::size_t quorum = 0;
    std::size_t targets = 0;         ///< owners the mutation was aimed at
    std::size_t acks = 0;            ///< guarded by mu
    std::size_t failures = 0;        ///< guarded by mu
    bool replied = false;            ///< guarded by mu
    std::set<std::string> repaired;  ///< one repair per backend; guarded by mu
    std::string ok_payload;          ///< synthesized client response
    std::function<void(std::string)> reply;
  };

  void route(std::shared_ptr<CallState> state, bool is_retry);
  void handle_reply(const std::shared_ptr<CallState>& state,
                    const std::string& backend, std::string payload);
  void handle_failure(const std::shared_ptr<CallState>& state,
                      const std::string& backend);
  void deliver(const std::shared_ptr<CallState>& state,
               const std::string& backend, serve::Response response);
  /// The retryable `unavailable` refusal payload (no live replica, no
  /// write quorum, backend failure), carrying the router's hint.
  std::string unavailable(std::uint64_t seq, std::string why) const;
  /// The one exit of every request the router answers itself (stats,
  /// list-fields, admin, cache hits, refusals, sheds, acked dedup hits):
  /// counts `router.local` once, then replies with `response`.
  void answer_local(const serve::Response& response,
                    const std::function<void(std::string)>& reply);

  /// Membership admin plane: verb in `algorithm`, backend address in the
  /// text block. `status` answers inline. `add` and `drain` block until
  /// their handoff completes or rolls back, so they run on `admin_worker_`
  /// and reply from there: the submitting transport thread (an epoll
  /// shard serving other connections) never waits on a handoff.
  void handle_admin(const serve::Request& request,
                    const std::function<void(std::string)>& reply);
  void answer_admin(std::uint64_t seq, AdminResult result,
                    const std::function<void(std::string)>& reply);

  /// Write path: append to the mutation log, fan the mutation out to all
  /// owners, ack the client on quorum.
  void route_write(serve::Request request,
                   std::function<void(std::string)> reply);
  void send_mutation(const std::shared_ptr<WriteState>& state,
                     const std::string& backend);
  void handle_mutation_reply(const std::shared_ptr<WriteState>& state,
                             const std::string& backend, std::string payload);
  void write_ack(const std::shared_ptr<WriteState>& state,
                 const std::string& backend);
  void write_failure(const std::shared_ptr<WriteState>& state,
                     const std::string& backend);

  MembershipTable* membership_;
  BackendPool* pool_;
  Replicator* replicator_;
  serve::RouterMetrics* metrics_;
  Options options_;
  std::unique_ptr<ResponseCache> cache_;          ///< null when disabled
  std::unique_ptr<serve::PrincipalQuotas> quotas_;  ///< null when off
  /// The admin plane, fenced on write_mu_ for its ring flips.
  std::unique_ptr<MembershipController> admin_;
  /// Serializes append + fan-out so mutations enter every backend FIFO in
  /// version order (the backends' fences would self-heal a reorder, but
  /// in-order delivery keeps the common path repair-free).
  std::mutex write_mu_;
  /// Runs admin `add`/`drain`. Declared last so it is destroyed first:
  /// its queued ops finish while `admin_` and `write_mu_` still exist.
  ThreadPool admin_worker_{1};
};

}  // namespace abp::cluster
