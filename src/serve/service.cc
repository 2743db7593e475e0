#include "serve/service.h"

#include <sstream>
#include <utility>

#include "io/field_io.h"
#include "loc/localizer.h"
#include "loc/survey_data.h"
#include "placement/coverage_placement.h"
#include "placement/grid_placement.h"
#include "placement/locus_placement.h"
#include "placement/max_placement.h"
#include "placement/random_placement.h"
#include "rng/hash.h"
#include "serve/dedup_index.h"

namespace abp::serve {

namespace {

/// The point queries `localize` and `error-at` share: the whole request
/// resolves in one batched kernel call against the deployment's cached
/// field snapshot, and a point that hears no beacon takes `fallback` (the
/// field's active centroid) as its estimate. `localize` answers each
/// estimate, `error-at` its distance to the point.
void answer_points(const SurveyKernel& kernel, Vec2 fallback,
                   const Request& request, Response& response) {
  SurveyBatch batch;
  batch.reserve(request.points.size());
  for (const Vec2 p : request.points) batch.push(p);
  kernel.evaluate(batch);
  const bool localize = request.endpoint == Endpoint::kLocalize;
  if (localize) {
    response.estimates.reserve(batch.size());
  } else {
    response.errors.reserve(batch.size());
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ConnectedSum cs = batch.result(i);
    const Vec2 est =
        cs.count == 0 ? fallback : cs.sum / static_cast<double>(cs.count);
    if (localize) {
      response.estimates.push_back({est, static_cast<std::uint32_t>(cs.count)});
    } else {
      response.errors.push_back(distance(est, batch.point(i)));
    }
  }
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

}  // namespace

struct LocalizationService::Deployment {
  Deployment(BeaconField f, const ServiceConfig& config, std::uint64_t seed)
      : field(std::move(f)),
        model(config.nominal_range, config.noise, derive_seed(seed, 2)),
        lattice(field.bounds(), config.lattice_step),
        map(lattice),
        rng(derive_seed(seed, 9)),
        localizer(field, model) {
    map.compute(field, localizer.kernel());
  }

  std::mutex mu;
  BeaconField field;
  PerBeaconNoiseModel model;
  Lattice2D lattice;
  ErrorMap map;
  Rng rng;
  /// Revision-cached survey kernel over `field`/`model` (guarded by `mu`
  /// like everything else). `install_snapshot` rebuilds field and model in
  /// place, so the pointers stay valid and the field's fresh revision
  /// invalidates the cached snapshot automatically.
  CentroidLocalizer localizer;
  /// Replication version (guarded by `mu`); 0 = unversioned.
  std::uint64_t version = 0;
  /// Incarnation of the router whose install set `version` (guarded by
  /// `mu`); 0 = not installed by a router, or by an unfenced one.
  std::uint64_t incarnation = 0;

  /// Exactly-once write state (guarded by `mu`), at most
  /// `ServiceConfig::dedup_window` ids. Both client `add-beacon` applies
  /// and replicated `mutate` applies record here, so a replica that replays
  /// the log reconstructs the same index the primary built.
  DedupIndex dedup;
};

LocalizationService::LocalizationService(ServiceConfig config)
    : config_(config) {}

LocalizationService::~LocalizationService() = default;

void LocalizationService::add_field(const std::string& name,
                                    BeaconField field, std::uint64_t version) {
  ABP_CHECK(valid_field_name(name), "invalid deployment name: " + name);
  auto deployment = std::make_unique<Deployment>(
      std::move(field), config_, derive_seed(config_.seed, name_seed(name)));
  deployment->version = version;
  std::lock_guard<std::mutex> lock(mu_);
  deployments_[name] = std::move(deployment);
}

std::uint64_t LocalizationService::field_version(
    const std::string& name) const {
  Deployment* deployment = find_deployment(name);
  if (deployment == nullptr) return 0;
  std::lock_guard<std::mutex> lock(deployment->mu);
  return deployment->version;
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
    if (deployment != nullptr) {
      std::lock_guard<std::mutex> lock(deployment->mu);
      response.version = deployment->version;
    }
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
  return handle_field_request(*deployment, request);
}

Response LocalizationService::handle_field_request(Deployment& deployment,
                                                   const Request& request) {
  std::lock_guard<std::mutex> lock(deployment.mu);
  return handle_locked(deployment, request);
}

Response LocalizationService::handle_locked(Deployment& deployment,
                                            const Request& request) {
  if (request.points.size() > kMaxPointsPerRequest) {
    return refusal(request.seq, Status::kBadRequest,
                   "too many points in one request");
  }
  // Version-fenced mutation: handled before the read fence because a mutate
  // carries the version it *establishes*, not the version it expects.
  if (request.endpoint == Endpoint::kMutate) {
    return apply_mutation_locked(deployment, request);
  }
  // Version fencing (cluster routing): a request stamped with an expected
  // version must not be served from an *older* snapshot. The fence is
  // one-sided — a replica that is ahead of the fence has absorbed every
  // write the fence guarantees, so it serves the read; only a lagging
  // replica answers the retryable mismatch (the router re-syncs the
  // deployment and re-sends).
  if (request.version != 0 && deployment.version < request.version) {
    Response mismatch = refusal(
        request.seq, Status::kVersionMismatch,
        "deployment '" + request.field + "' is at version " +
            std::to_string(deployment.version) + ", request expects " +
            std::to_string(request.version));
    mismatch.version = deployment.version;
    return mismatch;
  }
  Response response;
  response.seq = request.seq;
  try {
    switch (request.endpoint) {
      case Endpoint::kLocalize:
      case Endpoint::kErrorAt:
        answer_points(deployment.localizer.kernel(),
                      deployment.field.active_centroid(), request, response);
        break;
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
        SurveyData survey = SurveyData::from_error_map(deployment.map);
        PlacementContext ctx = PlacementContext::basic(
            survey, deployment.field.bounds(), config_.nominal_range);
        ctx.field = &deployment.field;
        ctx.model = &deployment.model;
        ctx.truth = &deployment.map;
        for (std::uint32_t k = 0; k < request.count; ++k) {
          const Vec2 pos = deployment.field.bounds().clamp(
              algorithm->propose(ctx, deployment.rng));
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
        write_field(os, deployment.field);
        response.text = os.str();
        response.version = deployment.version;
        break;
      }
      case Endpoint::kStats:
      case Endpoint::kListFields:
      case Endpoint::kAdmin:
      case Endpoint::kVersion:
      case Endpoint::kMutate:
        // Handled before deployment lookup / before the fence; unreachable.
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
    Response mismatch = refusal(
        request.seq, Status::kVersionMismatch,
        "deployment '" + request.field + "' is at version " +
            std::to_string(deployment.version) + ", mutation establishes " +
            std::to_string(request.version));
    mismatch.version = deployment.version;
    return mismatch;
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
  deployment.version = request.version;
  response.version = request.version;
  response.mutation_ack = request.version;
  return response;
}

void LocalizationService::apply_write_locked(Deployment& deployment,
                                             const Request& request,
                                             std::uint64_t version,
                                             Response& response) {
  for (const Vec2 p : request.points) {
    const Vec2 pos = deployment.field.bounds().clamp(p);
    const BeaconId id = deployment.field.add(pos);
    deployment.map.apply_addition(deployment.field,
                                  deployment.localizer.kernel(),
                                  *deployment.field.get(id));
    response.positions.push_back(pos);
    response.beacon_ids.push_back(id);
  }
  if (request.request_id == 0 || config_.dedup_window == 0) return;
  deployment.dedup.record(request.request_id,
                          {version, response.positions, response.beacon_ids});
  while (deployment.dedup.size() > config_.dedup_window) {
    deployment.dedup.evict_oldest();
  }
}

Response LocalizationService::install_snapshot(const Request& request) {
  // Parse outside any lock; a malformed body must not wedge serving.
  std::optional<BeaconField> parsed;
  try {
    std::istringstream is(request.text);
    parsed = read_field(is);
  } catch (const CheckFailure& e) {
    return refusal(request.seq, Status::kBadRequest,
                   std::string("snapshot install rejected: ") +
                       e.what());
  }
  const std::uint64_t seed =
      derive_seed(config_.seed, name_seed(request.field));
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = deployments_.find(request.field);
    if (it == deployments_.end()) {
      auto created =
          std::make_unique<Deployment>(std::move(*parsed), config_, seed);
      created->version = request.version;
      created->incarnation = request.incarnation;
      // A snapshot carries no request-id history. At version 1 there can
      // have been no prior writes, so the empty index is complete; past
      // that, ids may have been folded into the snapshot and unknown-id
      // retries are ambiguous.
      created->dedup.reset(request.version <= 1);
      deployments_.emplace(request.field, std::move(created));
      Response response;
      response.seq = request.seq;
      response.version = request.version;
      return response;
    }
  }
  // Existing deployment: rebuild its state in place under its own lock, so
  // concurrent requests holding the Deployment pointer stay valid (the map
  // entry is never replaced once created).
  Deployment& deployment = *find_deployment(request.field);
  std::lock_guard<std::mutex> lock(deployment.mu);
  if (request.incarnation != 0 &&
      request.incarnation == deployment.incarnation &&
      request.version < deployment.version) {
    // Stale: this router's versions only grow, so it already installed or
    // replayed everything this snapshot holds. Pipelined installs (or an
    // install and a later mutate) that a multi-worker server ran out of
    // order land here; applying it would move the replica back. Ack at the
    // version held, like an idempotent mutate.
    Response response;
    response.seq = request.seq;
    response.version = deployment.version;
    return response;
  }
  try {
    deployment.field = std::move(*parsed);
    deployment.model = PerBeaconNoiseModel(config_.nominal_range,
                                           config_.noise,
                                           derive_seed(seed, 2));
    deployment.lattice = Lattice2D(deployment.field.bounds(),
                                   config_.lattice_step);
    deployment.map = ErrorMap(deployment.lattice);
    deployment.rng = Rng(derive_seed(seed, 9));
    deployment.map.compute(deployment.field, deployment.localizer.kernel());
    deployment.version = request.version;
    deployment.incarnation = request.incarnation;
    // The snapshot discards id history: any write folded into it is no
    // longer answerable from the index, so unknown-id retries become
    // ambiguous (same rule as the fresh-install path above).
    deployment.dedup.reset(request.version <= 1);
  } catch (const CheckFailure& e) {
    return refusal(request.seq, Status::kInternal, e.what());
  }
  Response response;
  response.seq = request.seq;
  response.version = request.version;
  return response;
}

std::vector<Response> LocalizationService::handle_batch(
    std::span<const Request> requests) {
  std::vector<Response> responses(requests.size());
  // Fast path: all requests are point queries against one known deployment —
  // lock once, then handle each request under that lock.
  bool coalescable = !requests.empty();
  for (const Request& request : requests) {
    if (!endpoint_traits(request.endpoint).batchable ||
        request.field != requests.front().field) {
      coalescable = false;
      break;
    }
  }
  if (coalescable) {
    Deployment* deployment = find_deployment(requests.front().field);
    if (deployment != nullptr) {
      std::lock_guard<std::mutex> lock(deployment->mu);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        responses[i] = handle_locked(*deployment, requests[i]);
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
