#include "cluster/router.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/stopwatch.h"

namespace abp::cluster {

using serve::RouterCounts;

namespace {

serve::Response text_response(std::uint64_t seq, std::string text) {
  serve::Response response;
  response.seq = seq;
  response.text = std::move(text);
  return response;
}

/// A backend reply counts as `ok` or as an error by its status.
std::uint64_t serve::BackendSnapshot::*result_cell(serve::Status status) {
  return status == serve::Status::kOk ? &serve::BackendSnapshot::ok
                                      : &serve::BackendSnapshot::errors;
}

/// The client's `add-beacon` ack, synthesized from the logged apply: the
/// same clamp + id allocation every replica performs, so it is
/// byte-identical to what a direct single server with this history would
/// have answered. The client holds seq constant across retries, so a
/// duplicate's re-synthesis matches the first ack's bytes too.
serve::Response ack_response(std::uint64_t seq,
                             const serve::WriteAck& logged) {
  serve::Response ok;
  ok.seq = seq;
  ok.positions = logged.positions;
  ok.beacon_ids = logged.beacon_ids;
  return ok;
}

}  // namespace

Router::Router(MembershipTable& membership, BackendPool& pool,
               Replicator& replicator, serve::RouterMetrics& metrics,
               Options options)
    : membership_(&membership),
      pool_(&pool),
      replicator_(&replicator),
      metrics_(&metrics),
      options_(std::move(options)) {
  if (options_.cache_entries > 0) {
    cache_ = std::make_unique<ResponseCache>(options_.cache_entries);
  }
  if (options_.quota.enabled()) {
    quotas_ = std::make_unique<serve::PrincipalQuotas>(options_.quota);
  }
  MembershipController::Options admin_options;
  admin_options.drain_timeout_ms = options_.drain_timeout_ms;
  admin_options.clock_ms = options_.clock_ms;
  admin_ = std::make_unique<MembershipController>(
      *membership_, *pool_, *replicator_, *metrics_,
      std::move(admin_options));
  // Ring flips run inside the write mutex: a write reads its membership
  // view under the same lock, so the owner set, quorum and fan-out of
  // every write belong to exactly one epoch.
  admin_->set_write_fence([this](const std::function<void()>& fn) {
    std::lock_guard<std::mutex> lock(write_mu_);
    fn();
  });
  admin_->set_invalidate([this](const std::string& deployment) {
    if (cache_) {
      metrics_->record_cache_invalidation(cache_->invalidate(deployment));
    }
  });
}

double Router::now_ms() const {
  return options_.clock_ms ? options_.clock_ms() : steady_now_ms();
}

void Router::record_bad_frame(std::size_t /*bytes_in*/) {
  metrics_->record_received();
  metrics_->add(&RouterCounts::local);
}

void Router::answer_local(const serve::Response& response,
                          const std::function<void(std::string)>& reply) {
  metrics_->add(&RouterCounts::local);
  reply(serve::format_response_capped(response));
}

void Router::submit(std::string payload,
                    std::function<void(std::string)> reply) {
  std::optional<serve::Request> request =
      serve::parse_or_refuse(*this, payload, reply);
  if (!request) return;
  metrics_->record_received(request->principal);
  const std::uint64_t seq = request->seq;
  const serve::EndpointTraits& traits = endpoint_traits(request->endpoint);
  if (traits.router_local) {
    // Quota-exempt: operators can always introspect a loaded router.
    switch (request->endpoint) {
      case serve::Endpoint::kStats:
        answer_local(text_response(seq, metrics_->render_text()), reply);
        return;
      case serve::Endpoint::kAdmin:
        handle_admin(*request, reply);
        return;
      default:
        answer_local(text_response(seq, replicator_->list_text()), reply);
        return;
    }
  }
  if (traits.internal_only) {
    // Mutations are minted by the router's own log; accepting one from a
    // client would fork a replica's version history.
    answer_local(serve::refusal(seq, serve::Status::kBadRequest,
                                "mutations are managed by the router"),
                 reply);
    return;
  }
  if (request->endpoint == serve::Endpoint::kSnapshot &&
      !request->text.empty()) {
    // Snapshot *installs* are router-internal: accepting one from a client
    // would mutate a single backend behind the replicator's back and
    // desynchronize the version registry. (Snapshot *fetches* route
    // normally.)
    answer_local(
        serve::refusal(seq, serve::Status::kBadRequest,
                       "snapshot installs are managed by the router"),
        reply);
    return;
  }
  if (quotas_) {
    const serve::PrincipalQuotas::Decision decision =
        quotas_->admit(request->principal, now_ms());
    if (!decision.admitted) {
      metrics_->record_quota_shed(request->principal);
      answer_local(serve::quota_refusal(*request, decision), reply);
      return;
    }
  }
  if (replicator_->version(request->field) == 0) {
    metrics_->add(&RouterCounts::filter_rejects);
    answer_local(serve::refusal(seq, serve::Status::kNotFound,
                                "unknown deployment '" + request->field + "'"),
                 reply);
    return;
  }
  if (traits.mutating) {
    route_write(std::move(*request), std::move(reply));
    return;
  }
  auto state = std::make_shared<CallState>();
  state->request = std::move(*request);
  // Fence reads at the last quorum-acked write, never an in-flight one:
  // read-your-writes for everything the client has seen acknowledged, with
  // a quorum of replicas guaranteed able to serve it.
  state->request.version = replicator_->read_version(state->request.field);
  if (cache_ && traits.cacheable) {
    state->cache_key = ResponseCache::key_for(state->request);
    state->cache_version = state->request.version;
    if (std::optional<serve::Response> hit = cache_->lookup(
            state->request.field, state->cache_version, state->cache_key)) {
      // Cached responses store seq 0; re-stamp the requester's seq so the
      // bytes match an uncached forward of this exact request.
      metrics_->add(&RouterCounts::cache_hits);
      hit->seq = seq;
      answer_local(*hit, reply);
      return;
    }
    metrics_->add(&RouterCounts::cache_misses);
    state->cache_store = true;
  }
  state->owners = replicator_->owners(state->request.field);
  state->reply = std::move(reply);
  route(std::move(state), /*is_retry=*/false);
}

void Router::handle_admin(const serve::Request& request,
                          const std::function<void(std::string)>& reply) {
  const std::uint64_t seq = request.seq;
  if (!options_.admin) {
    answer_local(serve::refusal(seq, serve::Status::kBadRequest,
                                "admin endpoint disabled on this router"),
                 reply);
    return;
  }
  std::string backend = request.text;
  while (!backend.empty() &&
         (backend.back() == '\n' || backend.back() == '\r' ||
          backend.back() == ' ')) {
    backend.pop_back();
  }
  if (request.algorithm == "status") {
    answer_admin(seq, admin_->status(), reply);
  } else if (request.algorithm == "add") {
    admin_worker_.submit([this, seq, backend, reply] {
      answer_admin(seq, admin_->add(backend), reply);
    });
  } else if (request.algorithm == "drain") {
    admin_worker_.submit([this, seq, backend, reply] {
      answer_admin(seq, admin_->drain(backend), reply);
    });
  } else {
    answer_local(serve::refusal(seq, serve::Status::kBadRequest,
                                "admin verb must be add|drain|status (got '" +
                                    request.algorithm + "')"),
                 reply);
  }
}

void Router::answer_admin(std::uint64_t seq, AdminResult result,
                          const std::function<void(std::string)>& reply) {
  answer_local(result.ok ? text_response(seq, std::move(result.text))
                         : serve::refusal(seq, result.status,
                                          std::move(result.message)),
               reply);
}

void Router::shed_overloaded(std::string payload,
                             std::function<void(std::string)> reply,
                             const std::string& why) {
  const std::optional<serve::Request> request =
      serve::parse_or_refuse(*this, payload, reply);
  if (!request) return;
  metrics_->record_received(request->principal);
  answer_local(serve::refusal(request->seq, serve::Status::kOverloaded, why,
                              options_.retry_after_hint_ms),
               reply);
}

void Router::route(std::shared_ptr<CallState> state, bool is_retry) {
  while (state->next_owner < state->owners.size()) {
    const std::string backend = state->owners[state->next_owner];
    BackendPool::Forward forward;
    forward.request = state->request;
    forward.on_reply = [this, state, backend](std::string payload) {
      handle_reply(state, backend, std::move(payload));
    };
    forward.on_failure = [this, state, backend] {
      handle_failure(state, backend);
    };
    if (pool_->enqueue(backend, std::move(forward))) {
      metrics_->record_forward(backend);
      if (is_retry) metrics_->add(backend, &serve::BackendSnapshot::retries);
      return;
    }
    // Breaker refused — the request never left the router, so moving on is
    // safe even for non-idempotent endpoints.
    ++state->next_owner;
  }
  metrics_->add(&RouterCounts::unrouted);
  state->reply(unavailable(state->request.seq,
                           "no live replica for deployment '" +
                               state->request.field + "'"));
}

void Router::handle_failure(const std::shared_ptr<CallState>& state,
                            const std::string& backend) {
  // The transport died with the request possibly executed. Idempotent
  // endpoints fail over; add-beacon must not risk double execution.
  if (serve::endpoint_traits(state->request.endpoint).idempotent &&
      state->next_owner + 1 < state->owners.size()) {
    ++state->next_owner;
    route(state, /*is_retry=*/true);
    return;
  }
  state->reply(unavailable(state->request.seq,
                           "backend '" + backend +
                               "' failed before replying; retry"));
}

void Router::handle_reply(const std::shared_ptr<CallState>& state,
                          const std::string& backend, std::string payload) {
  std::optional<serve::Response> response = serve::parse_response(payload);
  if (!response) {
    handle_failure(state, backend);
    return;
  }
  switch (response->status) {
    case serve::Status::kVersionMismatch: {
      metrics_->add(backend, &serve::BackendSnapshot::version_mismatches);
      if (state->repaired) {
        // Repair already spent: hand the (retryable) status to the client
        // rather than loop.
        metrics_->add(backend, result_cell(response->status));
        deliver(state, backend, std::move(*response));
        return;
      }
      state->repaired = true;
      // Install-then-retry on the same backend FIFO: a catch-up from
      // version 0 queues the fresh snapshot before it returns, so
      // per-backend ordering lands it before the retried request.
      if (!replicator_->catch_up(backend, state->request.field, 0, nullptr)) {
        handle_failure(state, backend);
        return;
      }
      BackendPool::Forward retry;
      retry.request = state->request;
      retry.on_reply = [this, state, backend](std::string retry_payload) {
        handle_reply(state, backend, std::move(retry_payload));
      };
      retry.on_failure = [this, state, backend] {
        handle_failure(state, backend);
      };
      if (!pool_->enqueue(backend, std::move(retry))) {
        handle_failure(state, backend);
        return;
      }
      metrics_->record_forward(backend);
      return;
    }
    case serve::Status::kUnavailable:
      // The backend is draining or shutting down — same recovery as a
      // transport failure.
      metrics_->add(backend, result_cell(response->status));
      if (serve::endpoint_traits(state->request.endpoint).idempotent &&
          state->next_owner + 1 < state->owners.size()) {
        ++state->next_owner;
        route(state, /*is_retry=*/true);
        return;
      }
      deliver(state, backend, std::move(*response));
      return;
    default:
      metrics_->add(backend, result_cell(response->status));
      deliver(state, backend, std::move(*response));
      return;
  }
}

void Router::deliver(const std::shared_ptr<CallState>& state,
                     const std::string& backend,
                     serve::Response response) {
  (void)backend;
  // Strip the router↔backend version record so a routed response is
  // byte-identical to a direct single-server one. `version` requests are
  // the exception: the version record *is* their answer.
  if (state->request.endpoint != serve::Endpoint::kVersion) {
    response.version = 0;
  }
  if (cache_ && state->cache_store &&
      response.status == serve::Status::kOk) {
    // Store post-strip with seq 0 so any requester's hit re-stamps its own
    // seq and the bytes match an uncached forward. A stale store racing a
    // concurrent invalidation is benign: the entry is pinned to the fence
    // version this read ran at, and a later lookup fenced at the bumped
    // version treats it as a miss and drops it.
    serve::Response cached = response;
    cached.seq = 0;
    cache_->insert(state->request.field, state->cache_version,
                   state->cache_key, std::move(cached));
  }
  state->reply(serve::format_response_capped(response));
}

std::string Router::unavailable(std::uint64_t seq, std::string why) const {
  return serve::format_response(
      serve::refusal(seq, serve::Status::kUnavailable, std::move(why),
                     options_.retry_after_hint_ms));
}

void Router::route_write(serve::Request request,
                         std::function<void(std::string)> reply) {
  // Validate exactly as a backend would *before* touching the log: a write
  // any replica would reject must never be appended.
  if (request.points.empty()) {
    answer_local(serve::refusal(request.seq, serve::Status::kBadRequest,
                                "add-beacon needs at least one point"),
                 reply);
    return;
  }
  if (request.points.size() > serve::kMaxPointsPerRequest) {
    answer_local(serve::refusal(request.seq, serve::Status::kBadRequest,
                                "too many points in one request"),
                 reply);
    return;
  }
  const std::uint64_t request_id =
      options_.dedup ? request.request_id : 0;
  // Dedup lookup, append and fan-out share one lock: two concurrent
  // deliveries of the same id must serialize into "one appends, the other
  // hits the index", and concurrent writes must enter every backend FIFO
  // in version order.
  std::lock_guard<std::mutex> lock(write_mu_);
  // One membership view per write, read under the same mutex the admin
  // plane's ring flips hold: the owner set, quorum and fan-out all belong
  // to a single epoch, and a write admitted against the old epoch has
  // fully entered the backend FIFOs before the flip can proceed.
  const std::shared_ptr<const MembershipView> view = membership_->view();
  const std::vector<std::string> owners =
      view->ring.owners(request.field, replicator_->replication());
  const std::size_t majority = owners.size() / 2 + 1;
  const std::size_t quorum =
      options_.write_quorum == 0
          ? majority
          : std::min(options_.write_quorum, owners.size());
  std::size_t live = 0;
  for (const std::string& backend : owners) {
    if (pool_->health(backend) != BackendHealth::kOpen) ++live;
  }
  MutationLog& log = replicator_->log();
  MutationLog::DedupHit hit;
  const serve::DedupIndex::Verdict verdict =
      log.dedup_verdict(request.field, request_id, request.attempt, &hit);
  const bool duplicate = verdict == serve::DedupIndex::Verdict::kDuplicate;
  if (duplicate) {
    // Duplicate delivery of a write already in the log: answer the
    // *original* ack. If its fan-out lost quorum after the append, the
    // retry's job is to finish that write, not to mint a new one: it
    // re-fans the logged entry out below (same version — replicas that
    // took it already ack idempotently) and answers at quorum.
    metrics_->add(&RouterCounts::write_dedup_hits);
    if (hit.acked) {
      answer_local(ack_response(request.seq, hit), reply);
      return;
    }
  } else if (verdict == serve::DedupIndex::Verdict::kExpired) {
    // A *retry* whose id is unknown after the index has evicted entries:
    // the first delivery may have appended and aged out, so appending
    // again risks the duplicate this whole path exists to prevent.
    // Terminal by design — see DESIGN.md §11.
    metrics_->add(&RouterCounts::write_dedup_expired);
    answer_local(
        serve::refusal(request.seq, serve::Status::kDedupExpired,
                       serve::DedupIndex::expired_message(request.field)),
        reply);
    return;
  }
  // Feasibility check before the append: if fewer owners are live than the
  // quorum needs, shed now — the log stays untouched, so the client's
  // retry cannot duplicate anything. (Races with breaker transitions fall
  // through to the post-append quorum accounting below.)
  if (live < quorum) {
    metrics_->add(&RouterCounts::unrouted);
    reply(unavailable(request.seq,
                      "write quorum of " + std::to_string(quorum) +
                          " unreachable for '" + request.field + "' (" +
                          std::to_string(live) + " live owners)"));
    return;
  }
  const serve::WriteAck logged =
      duplicate ? std::move(hit)
                : log.append(request.field, request.points, request_id);
  if (!duplicate) metrics_->add(&RouterCounts::writes);
  auto state = std::make_shared<WriteState>();
  state->quorum = quorum;
  state->targets = owners.size();
  state->reply = std::move(reply);
  state->ok_payload =
      serve::format_response_capped(ack_response(request.seq, logged));
  state->mutate.endpoint = serve::Endpoint::kMutate;
  state->mutate.seq = request.seq;
  state->mutate.field = request.field;
  state->mutate.points = logged.positions;
  state->mutate.version = logged.version;
  state->mutate.request_id = request_id;
  for (const std::string& backend : owners) {
    send_mutation(state, backend);
  }
}

void Router::send_mutation(const std::shared_ptr<WriteState>& state,
                           const std::string& backend) {
  BackendPool::Forward forward;
  forward.request = state->mutate;
  forward.on_reply = [this, state, backend](std::string payload) {
    handle_mutation_reply(state, backend, std::move(payload));
  };
  forward.on_failure = [this, state, backend] {
    write_failure(state, backend);
  };
  if (pool_->enqueue(backend, std::move(forward))) {
    metrics_->add(backend, &serve::BackendSnapshot::mutations);
  } else {
    write_failure(state, backend);
  }
}

void Router::handle_mutation_reply(const std::shared_ptr<WriteState>& state,
                                   const std::string& backend,
                                   std::string payload) {
  const std::optional<serve::Response> response =
      serve::parse_response(payload);
  if (!response) {
    write_failure(state, backend);
    return;
  }
  if (response->status == serve::Status::kOk) {
    write_ack(state, backend);
    return;
  }
  if (response->status == serve::Status::kVersionMismatch) {
    metrics_->add(backend, &serve::BackendSnapshot::version_mismatches);
    bool first_repair = false;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      first_repair = state->repaired.insert(backend).second;
    }
    // Install-then-retry on the same backend FIFO: the snapshot (at the
    // log's *current* version, ≥ this mutation's) lands first, then the
    // retried mutation collects an idempotent ack.
    if (first_repair &&
        replicator_->catch_up(backend, state->mutate.field, 0, nullptr)) {
      send_mutation(state, backend);
      return;
    }
    write_failure(state, backend);
    return;
  }
  write_failure(state, backend);
}

void Router::write_ack(const std::shared_ptr<WriteState>& state,
                       const std::string& backend) {
  metrics_->add(backend, &serve::BackendSnapshot::mutation_acks);
  bool reached_quorum = false;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->acks;
    if (state->acks == state->quorum) {
      reached_quorum = true;
      if (!state->replied) {
        state->replied = true;
        fire = true;
      }
    }
  }
  if (reached_quorum) {
    // Advance the read fence even on a late quorum (after an `unavailable`
    // reply): the write is now served by a quorum either way.
    replicator_->log().record_acked(state->mutate.field,
                                    state->mutate.version);
    if (cache_) {
      // Invalidate *between* fence advance and ack release: once the
      // client observes this ack, no pre-write cached response can be
      // served for the deployment (read-your-writes; the chaos suite pins
      // this ordering).
      metrics_->record_cache_invalidation(
          cache_->invalidate(state->mutate.field));
    }
    metrics_->add(&RouterCounts::write_acks);
  }
  if (fire) state->reply(state->ok_payload);
}

void Router::write_failure(const std::shared_ptr<WriteState>& state,
                           const std::string& backend) {
  (void)backend;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->failures;
    // Quorum impossible: even if every still-outstanding owner acks, the
    // ack count cannot reach the quorum.
    if (!state->replied &&
        state->targets - state->failures < state->quorum) {
      state->replied = true;
      fire = true;
    }
  }
  if (fire) {
    metrics_->add(&RouterCounts::write_quorum_failures);
    state->reply(unavailable(
        state->mutate.seq,
        "write quorum lost for deployment '" + state->mutate.field +
            "'; the mutation is logged and will converge to the replicas"));
  }
}

}  // namespace abp::cluster
