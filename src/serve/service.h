/// \file service.h
/// \brief The localization query service: named `BeaconField` deployments
/// answering localization/placement requests.
///
/// This is the serving-side counterpart of the batch reproduction: the same
/// substrate (centroid localization over a spatially indexed field, the
/// incremental error map, the §3.2 placement algorithms) behind a
/// request/response API. Each named deployment keeps its mutable state
/// (field, error map, `propose` RNG, version, dedup index) under one mutex,
/// which writes, `propose` and `snapshot` take. After every write it
/// publishes an immutable read view: the field's survey kernel, its
/// fallback centroid and its version. `localize`, `error-at` and `version`
/// answer from the last published view without the deployment mutex, so
/// reads never wait behind a write; a batch of point queries against one
/// deployment loads the view once (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "field/beacon_field.h"
#include "geom/lattice.h"
#include "loc/error_map.h"
#include "radio/noise_model.h"
#include "rng/rng.h"
#include "serve/metrics.h"
#include "serve/protocol.h"

namespace abp::serve {

struct ServiceConfig {
  double nominal_range = 15.0;  ///< radio range R (Table 1)
  double noise = 0.0;           ///< paper Noise parameter
  double lattice_step = 1.0;    ///< survey lattice spacing (m)
  std::uint64_t seed = 20010421;
  /// Request ids remembered per deployment for exactly-once `add-beacon`
  /// (oldest forgotten first; 0 remembers none). A duplicate within the
  /// window collects the original ack; a *retry* whose id has been
  /// forgotten is answered `dedup-expired`. The window counts ids, while
  /// the router's `--log-retain` counts log entries, id-free ones too.
  std::size_t dedup_window = 64;
};

class LocalizationService {
 public:
  explicit LocalizationService(ServiceConfig config = {});
  ~LocalizationService();

  LocalizationService(const LocalizationService&) = delete;
  LocalizationService& operator=(const LocalizationService&) = delete;

  /// Install (or replace) a deployment under `name`. Computes the initial
  /// error map — O(lattice · beacons-in-range) once per install. `version`
  /// tags the deployment for cluster replication; 0 (the default) means
  /// unversioned — version records never appear on the wire and requests
  /// are never version-checked. Throws `CheckFailure` on an invalid name or
  /// a field whose lattice cannot be built, leaving the service unchanged.
  void add_field(const std::string& name, BeaconField field,
                 std::uint64_t version = 0);

  std::vector<std::string> field_names() const;

  /// Current version of a deployment; 0 if unknown or unversioned.
  std::uint64_t field_version(const std::string& name) const;

  /// Handle one request; never throws on untrusted request content.
  Response handle(const Request& request);

  /// Handle point-query requests (localize / error-at) that all target the
  /// same deployment: its read view is loaded once, and each request is
  /// then evaluated on its own, in one kernel call over its points.
  /// Responses are returned in request order. Other requests fall back to
  /// `handle` individually.
  std::vector<Response> handle_batch(std::span<const Request> requests);

  ServiceMetrics& metrics() { return metrics_; }
  const ServiceConfig& config() const { return config_; }

 private:
  struct Deployment;

  Deployment* find_deployment(const std::string& name) const;
  /// The one install `add_field` and snapshot installs share. It builds the
  /// whole next state (field, error map, RNG) before it touches anything,
  /// so a field that cannot be served throws `CheckFailure` and changes
  /// nothing; then it swaps that state in under the deployment's mutex,
  /// creating the deployment if `name` is new. An install from router
  /// `incarnation` (0 = unfenced) below the version the same incarnation
  /// already set is skipped. Returns the version held afterwards.
  std::uint64_t install(const std::string& name, BeaconField field,
                        std::uint64_t version, std::uint64_t incarnation,
                        bool dedup_complete);
  /// Snapshot request carrying a field body: install it (replica sync).
  Response install_snapshot(const Request& request);
  /// Every deployment request but the point queries, under the deployment
  /// mutex; the version fence is checked against the locked state.
  Response handle_locked(Deployment& deployment, const Request& request);
  /// Version-fenced `mutate`: apply (at exactly version-1), ack idempotently
  /// (at or past the version), or answer the retryable mismatch (lagging).
  Response apply_mutation_locked(Deployment& deployment,
                                 const Request& request);
  /// The apply `add-beacon` and `mutate` share: clamp and deploy
  /// `request.points` into `response`, move the deployment to `version`
  /// and publish it, then remember that ack under the request's id, within
  /// `dedup_window`.
  void apply_write_locked(Deployment& deployment, const Request& request,
                          std::uint64_t version, Response& response);

  ServiceConfig config_;
  ServiceMetrics metrics_;
  /// Guards the deployment map. A deployment enters it published and is
  /// never replaced or erased, so a found pointer stays valid.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Deployment>> deployments_;
};

}  // namespace abp::serve
