#include "serve/service.h"

#include <optional>
#include <sstream>
#include <utility>

#include "io/field_io.h"
#include "loc/survey_data.h"
#include "loc/survey_kernel.h"
#include "placement/coverage_placement.h"
#include "placement/grid_placement.h"
#include "placement/locus_placement.h"
#include "placement/max_placement.h"
#include "placement/random_placement.h"
#include "rng/hash.h"
#include "serve/dedup_index.h"

namespace abp::serve {

namespace {

/// What `localize`, `error-at` and `version` read: one immutable generation
/// of a deployment, published after every write.
struct ReadView {
  SurveyKernel kernel;  ///< over the field and the deployment's model
  Vec2 fallback;        ///< the field's active centroid
  std::uint64_t version = 0;
};

/// The retryable refusal of a deployment held at `held` to a request whose
/// version it has not reached; `relation` names what that version is.
Response version_mismatch(const Request& request, std::uint64_t held,
                          const char* relation) {
  Response mismatch = refusal(
      request.seq, Status::kVersionMismatch,
      "deployment '" + request.field + "' is at version " +
          std::to_string(held) + ", " + relation + " " +
          std::to_string(request.version));
  mismatch.version = held;
  return mismatch;
}

/// The point queries `localize` and `error-at` share, answered from one
/// published view: the read fence is checked against the view's version,
/// then the whole request resolves in one batched kernel call, and a point
/// that hears no beacon takes the view's fallback as its estimate.
/// `localize` answers each estimate, `error-at` its distance to the point.
Response read_points(const ReadView& view, const Request& request) {
  if (request.version != 0 && view.version < request.version) {
    return version_mismatch(request, view.version, "request expects");
  }
  Response response;
  response.seq = request.seq;
  SurveyBatch batch;
  batch.reserve(request.points.size());
  for (const Vec2 p : request.points) batch.push(p);
  view.kernel.evaluate(batch);
  const bool localize = request.endpoint == Endpoint::kLocalize;
  if (localize) {
    response.estimates.reserve(batch.size());
  } else {
    response.errors.reserve(batch.size());
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ConnectedSum cs = batch.result(i);
    const Vec2 est = cs.count == 0 ? view.fallback
                                   : cs.sum / static_cast<double>(cs.count);
    if (localize) {
      response.estimates.push_back({est, static_cast<std::uint32_t>(cs.count)});
    } else {
      response.errors.push_back(distance(est, batch.point(i)));
    }
  }
  return response;
}

const PlacementAlgorithm* algorithm_by_name(const std::string& name) {
  static const RandomPlacement random;
  static const MaxPlacement max;
  static const GridPlacement grid;
  static const GridPlacement grid_norm(400, 2.0, true);
  static const CoveragePlacement coverage;
  static const LocusPlacement locus;
  if (name == "random") return &random;
  if (name == "max") return &max;
  if (name == "grid") return &grid;
  if (name == "grid-norm") return &grid_norm;
  if (name == "coverage") return &coverage;
  if (name == "locus") return &locus;
  return nullptr;
}

constexpr std::uint32_t kMaxProposalsPerRequest = 64;

/// Stable 64-bit digest of a deployment name, so each named field gets an
/// independent noise landscape and RNG stream from one service seed.
std::uint64_t name_seed(const std::string& name) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const unsigned char c : name) h = stable_hash64(h, c);
  return h;
}

/// The part of a deployment an install replaces, built whole before it
/// touches the deployment. `model` is only borrowed for the error map.
struct DeploymentState {
  DeploymentState(BeaconField f, double lattice_step,
                  const PropagationModel& model, std::uint64_t rng_seed)
      : field(std::move(f)),
        map(Lattice2D(field.bounds(), lattice_step)),
        rng(rng_seed) {
    map.compute(field, model);
  }

  BeaconField field;
  ErrorMap map;
  Rng rng;
};

}  // namespace

struct LocalizationService::Deployment {
  Deployment(const PerBeaconNoiseModel& m, DeploymentState s)
      : model(m), state(std::move(s)) {}

  /// Depends only on the config and the name, so it is built once and never
  /// reassigned: every published kernel points at it.
  const PerBeaconNoiseModel model;

  /// Serializes writes, `propose` and `snapshot`, and guards the members
  /// below; point queries and version probes never take it.
  std::mutex mu;
  DeploymentState state;
  /// Replication version; 0 = unversioned.
  std::uint64_t version = 0;
  /// Incarnation of the router whose install set `version`; 0 = not
  /// installed by a router, or by an unfenced one.
  std::uint64_t incarnation = 0;
  /// Exactly-once write state, at most `ServiceConfig::dedup_window` ids.
  /// Both client `add-beacon` applies and replicated `mutate` applies
  /// record here, so a replica that replays the log reconstructs the same
  /// index the primary built.
  DedupIndex dedup;

  /// Finish an install whose state was just assigned: take its version,
  /// incarnation and dedup completeness, and publish it.
  void commit_install(std::uint64_t installed_version,
                      std::uint64_t installed_by, bool dedup_complete) {
    version = installed_version;
    incarnation = installed_by;
    dedup.reset(dedup_complete);
    publish(SurveyKernel(state.field, model));
  }

  /// Publish `state` as the view readers load, with `mu` held or before
  /// the deployment is in the map; `kernel` is a snapshot of `state.field`
  /// over `model`.
  void publish(SurveyKernel kernel) {
    auto next = std::make_shared<const ReadView>(
        ReadView{std::move(kernel), state.field.active_centroid(), version});
    std::lock_guard<std::mutex> lock(view_mu_);
    view_.swap(next);  // the old view dies after the unlock
  }

  std::shared_ptr<const ReadView> view() const {
    std::lock_guard<std::mutex> lock(view_mu_);
    return view_;
  }

 private:
  mutable std::mutex view_mu_;  ///< held only to copy or swap `view_`
  std::shared_ptr<const ReadView> view_;
};

LocalizationService::LocalizationService(ServiceConfig config)
    : config_(config) {}

LocalizationService::~LocalizationService() = default;

void LocalizationService::add_field(const std::string& name,
                                    BeaconField field, std::uint64_t version) {
  install(name, std::move(field), version, 0, true);
}

std::uint64_t LocalizationService::install(const std::string& name,
                                           BeaconField field,
                                           std::uint64_t version,
                                           std::uint64_t incarnation,
                                           bool dedup_complete) {
  ABP_CHECK(valid_field_name(name), "invalid deployment name: " + name);
  const std::uint64_t seed = derive_seed(config_.seed, name_seed(name));
  const PerBeaconNoiseModel model(config_.nominal_range, config_.noise,
                                  derive_seed(seed, 2));
  // A field that cannot be served throws here, before anything is touched.
  DeploymentState next(std::move(field), config_.lattice_step, model,
                       derive_seed(seed, 9));
  Deployment* deployment = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = deployments_.find(name);
    if (it == deployments_.end()) {
      // Published before it enters the map: no one sees it without a view.
      auto created = std::make_unique<Deployment>(model, std::move(next));
      created->commit_install(version, incarnation, dedup_complete);
      deployments_.emplace(name, std::move(created));
      return version;
    }
    deployment = it->second.get();
  }
  std::lock_guard<std::mutex> lock(deployment->mu);
  if (incarnation != 0 && incarnation == deployment->incarnation &&
      version < deployment->version) {
    // Stale: this router's versions only grow, so it already installed or
    // replayed everything this snapshot holds. Pipelined installs (or an
    // install and a later mutate) that a multi-worker server ran out of
    // order land here; applying it would move the replica back. Ack at the
    // version held, like an idempotent mutate.
    return deployment->version;
  }
  deployment->state = std::move(next);
  deployment->commit_install(version, incarnation, dedup_complete);
  return version;
}

std::uint64_t LocalizationService::field_version(
    const std::string& name) const {
  const Deployment* deployment = find_deployment(name);
  return deployment == nullptr ? 0 : deployment->view()->version;
}

std::vector<std::string> LocalizationService::field_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(deployments_.size());
  for (const auto& [name, unused] : deployments_) names.push_back(name);
  return names;
}

LocalizationService::Deployment* LocalizationService::find_deployment(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(name);
  return it == deployments_.end() ? nullptr : it->second.get();
}

Response LocalizationService::handle(const Request& request) {
  switch (request.endpoint) {
    case Endpoint::kStats: {
      Response response;
      response.seq = request.seq;
      response.text = metrics_.render_text();
      return response;
    }
    case Endpoint::kListFields: {
      Response response;
      response.seq = request.seq;
      for (const std::string& name : field_names()) {
        response.text += name;
        response.text += '\n';
      }
      return response;
    }
    default:
      break;
  }
  if (request.endpoint == Endpoint::kAdmin) {
    // Membership is a router concern; a direct server has no table to
    // mutate. Terminal bad-request, never retryable.
    return refusal(request.seq, Status::kBadRequest,
                   "admin is a router-only endpoint");
  }
  if (request.endpoint == Endpoint::kSnapshot && !request.text.empty()) {
    return install_snapshot(request);
  }
  Deployment* deployment = find_deployment(request.field);
  if (request.endpoint == Endpoint::kVersion) {
    // Cheap replication probe: answer the deployment's current version
    // without the snapshot body. Unknown deployments answer `ok` with the
    // version record omitted (real versions start at 1), so the replicator
    // can distinguish "never installed" from "lagging" in one round trip.
    Response response;
    response.seq = request.seq;
    if (deployment != nullptr) response.version = deployment->view()->version;
    return response;
  }
  if (deployment == nullptr) {
    if (request.endpoint == Endpoint::kMutate) {
      // A mutation for a deployment this replica has never seen: answer the
      // retryable mismatch (at version 0) so the sender's install-then-retry
      // repair path ships a full snapshot first.
      return refusal(request.seq, Status::kVersionMismatch,
                     "mutate for unknown field: " + request.field);
    }
    return refusal(request.seq, Status::kNotFound,
                   "unknown field: " + request.field);
  }
  if (request.points.size() > kMaxPointsPerRequest) {
    return refusal(request.seq, Status::kBadRequest,
                   "too many points in one request");
  }
  if (endpoint_traits(request.endpoint).batchable) {
    return read_points(*deployment->view(), request);
  }
  std::lock_guard<std::mutex> lock(deployment->mu);
  return handle_locked(*deployment, request);
}

Response LocalizationService::handle_locked(Deployment& deployment,
                                            const Request& request) {
  // Version-fenced mutation: handled before the read fence because a mutate
  // carries the version it *establishes*, not the version it expects.
  if (request.endpoint == Endpoint::kMutate) {
    return apply_mutation_locked(deployment, request);
  }
  // Version fencing (cluster routing): a request stamped with an expected
  // version must not be served from an *older* snapshot. The fence is
  // one-sided — a replica that is ahead of the fence has absorbed every
  // write the fence guarantees, so it serves the request; only a lagging
  // replica answers the retryable mismatch (the router re-syncs the
  // deployment and re-sends).
  if (request.version != 0 && deployment.version < request.version) {
    return version_mismatch(request, deployment.version, "request expects");
  }
  Response response;
  response.seq = request.seq;
  try {
    switch (request.endpoint) {
      case Endpoint::kPropose: {
        const std::string name =
            request.algorithm.empty() ? "grid" : request.algorithm;
        const PlacementAlgorithm* algorithm = algorithm_by_name(name);
        if (algorithm == nullptr) {
          return refusal(request.seq, Status::kNotFound,
                         "unknown algorithm: " + name);
        }
        if (request.count > kMaxProposalsPerRequest) {
          return refusal(request.seq, Status::kBadRequest,
                         "too many proposals in one request");
        }
        // Propose against the current survey; successive proposals suppress
        // the previous pick's neighbourhood (one-shot batch idiom) so k
        // proposals target k distinct hot spots without mutating the field.
        DeploymentState& state = deployment.state;
        SurveyData survey = SurveyData::from_error_map(state.map);
        PlacementContext ctx = PlacementContext::basic(
            survey, state.field.bounds(), config_.nominal_range);
        ctx.field = &state.field;
        ctx.model = &deployment.model;
        ctx.truth = &state.map;
        for (std::uint32_t k = 0; k < request.count; ++k) {
          const Vec2 pos = state.field.bounds().clamp(
              algorithm->propose(ctx, state.rng));
          response.positions.push_back(pos);
          survey.suppress_disk(pos, config_.nominal_range);
        }
        break;
      }
      case Endpoint::kAddBeacon: {
        if (request.points.empty()) {
          return refusal(request.seq, Status::kBadRequest,
                         "add-beacon needs at least one point");
        }
        switch (deployment.dedup.verdict(request.request_id,
                                         request.attempt)) {
          case DedupIndex::Verdict::kDuplicate: {
            // Duplicate delivery (lost ack, duplicated frame): answer the
            // original ack; the beacons are already deployed.
            const WriteAck& first = *deployment.dedup.find(request.request_id);
            response.positions = first.positions;
            response.beacon_ids = first.beacon_ids;
            break;
          }
          case DedupIndex::Verdict::kExpired:
            // A retry whose id may have aged out of the window: appending
            // again could double-deploy, so refuse definitively instead.
            return refusal(request.seq, Status::kDedupExpired,
                           DedupIndex::expired_message(request.field));
          case DedupIndex::Verdict::kFresh:
            apply_write_locked(deployment, request, deployment.version,
                               response);
            break;
        }
        break;
      }
      case Endpoint::kSnapshot: {
        std::ostringstream os;
        write_field(os, deployment.state.field);
        response.text = os.str();
        response.version = deployment.version;
        break;
      }
      case Endpoint::kLocalize:
      case Endpoint::kErrorAt:
      case Endpoint::kStats:
      case Endpoint::kListFields:
      case Endpoint::kAdmin:
      case Endpoint::kVersion:
      case Endpoint::kMutate:
        // Answered before the deployment lock; unreachable.
        return refusal(request.seq, Status::kInternal,
                       "endpoint misrouted to a deployment");
    }
  } catch (const CheckFailure& e) {
    return refusal(request.seq, Status::kInternal, e.what());
  }
  return response;
}

Response LocalizationService::apply_mutation_locked(Deployment& deployment,
                                                    const Request& request) {
  if (request.version == 0) {
    return refusal(request.seq, Status::kBadRequest,
                   "mutate requires the version it establishes");
  }
  if (request.points.empty()) {
    return refusal(request.seq, Status::kBadRequest,
                   "mutate needs at least one point");
  }
  Response response;
  response.seq = request.seq;
  if (deployment.version >= request.version) {
    // Already absorbed — via this very mutation on a prior delivery, a later
    // one, or a snapshot that included it. Ack idempotently at the version
    // actually held; re-applying would double-deploy the beacons.
    response.version = deployment.version;
    response.mutation_ack = deployment.version;
    return response;
  }
  if (deployment.version + 1 != request.version) {
    // Lagging: this replica is missing at least one earlier mutation. The
    // retryable mismatch (carrying the held version) routes the sender into
    // the install-then-retry / replay repair path.
    return version_mismatch(request, deployment.version,
                            "mutation establishes");
  }
  // The mutate carries the client write's request id; recording it is what
  // makes live fan-out, recovery replay, and a later direct retry all see
  // the same dedup state. (Idempotent acks above don't record: a mutation
  // absorbed via snapshot has no reconstructible ack, which the snapshot
  // path accounts for by marking the index incomplete.)
  try {
    apply_write_locked(deployment, request, request.version, response);
  } catch (const CheckFailure& e) {
    return refusal(request.seq, Status::kInternal, e.what());
  }
  response.version = request.version;
  response.mutation_ack = request.version;
  return response;
}

void LocalizationService::apply_write_locked(Deployment& deployment,
                                             const Request& request,
                                             std::uint64_t version,
                                             Response& response) {
  DeploymentState& state = deployment.state;
  std::optional<SurveyKernel> kernel;
  for (const Vec2 p : request.points) {
    const Vec2 pos = state.field.bounds().clamp(p);
    const BeaconId id = state.field.add(pos);
    kernel.emplace(state.field, deployment.model);
    state.map.apply_addition(state.field, *kernel, *state.field.get(id));
    response.positions.push_back(pos);
    response.beacon_ids.push_back(id);
  }
  deployment.version = version;
  // Callers refuse a write without points, so `kernel` holds the snapshot
  // of the field after its last addition.
  deployment.publish(std::move(*kernel));
  if (request.request_id == 0 || config_.dedup_window == 0) return;
  deployment.dedup.record(request.request_id,
                          {version, response.positions, response.beacon_ids});
  while (deployment.dedup.size() > config_.dedup_window) {
    deployment.dedup.evict_oldest();
  }
}

Response LocalizationService::install_snapshot(const Request& request) {
  // Parse and build outside any lock; a body that cannot be served must
  // neither wedge serving nor touch the deployment.
  Response response;
  response.seq = request.seq;
  try {
    std::istringstream is(request.text);
    // A snapshot carries no request-id history. At version 1 there can
    // have been no prior writes, so the empty index is complete; past that,
    // ids may have been folded into the snapshot and unknown-id retries are
    // ambiguous.
    response.version = install(request.field, read_field(is), request.version,
                               request.incarnation, request.version <= 1);
  } catch (const CheckFailure& e) {
    return refusal(request.seq, Status::kBadRequest,
                   std::string("snapshot install rejected: ") + e.what());
  }
  return response;
}

std::vector<Response> LocalizationService::handle_batch(
    std::span<const Request> requests) {
  std::vector<Response> responses(requests.size());
  // Fast path: all requests are point queries against one known deployment
  // — load its view once, then answer each request from it. A request over
  // the point cap takes the slow path, where `handle` refuses it.
  bool coalescable = !requests.empty();
  for (const Request& request : requests) {
    if (!endpoint_traits(request.endpoint).batchable ||
        request.field != requests.front().field ||
        request.points.size() > kMaxPointsPerRequest) {
      coalescable = false;
      break;
    }
  }
  if (coalescable) {
    if (const Deployment* deployment =
            find_deployment(requests.front().field)) {
      const std::shared_ptr<const ReadView> view = deployment->view();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        responses[i] = read_points(*view, requests[i]);
      }
      return responses;
    }
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses[i] = handle(requests[i]);
  }
  return responses;
}

}  // namespace abp::serve
