/// \file cluster_harness.h
/// \brief Shared in-process cluster fixture for the cluster test suites.
///
/// Builds N named backends (each a real `LocalizationService` + manual-mode
/// `Server`) and wires a `BackendPool` transport factory that speaks to
/// them through `LoopbackTransport` — the full wire codec, zero sockets,
/// fully deterministic. Each backend has a kill switch: flipping it makes
/// every transport operation throw `ServeError`, which is what a dead TCP
/// peer looks like to the pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/membership.h"
#include "common/assert.h"
#include "cluster/replicator.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "field/beacon_field.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/transport.h"

namespace abp::cluster {

inline BeaconField harness_field() {
  BeaconField field(AABB({0, 0}, {60, 60}));
  field.add({10, 10});
  field.add({30, 10});
  field.add({10, 30});
  field.add({45, 45});
  return field;
}

inline serve::ServiceConfig harness_service_config() {
  serve::ServiceConfig config;
  config.noise = 0.0;
  config.lattice_step = 2.0;
  return config;
}

/// The `admin` request `abp route-admin <verb> [--backend <backend>]` sends.
inline serve::Request admin_request(const std::string& verb,
                                    const std::string& backend = "") {
  serve::Request request;
  request.endpoint = serve::Endpoint::kAdmin;
  request.algorithm = verb;
  if (!backend.empty()) request.text = backend + "\n";
  return request;
}

/// A test's handle on one backend's wire, consulted on every send:
///  * `close()` holds sends until `open()`, pinning the backend's traffic
///    at a chosen point;
///  * `hold_next_flush()` keeps the next pool batch from finishing, after
///    its replies are in, until `release_flush()`, so the work queued
///    meanwhile reaches the backend as one pipelined batch;
///  * `reverse_next_burst()` sends the replica writes (mutates and
///    snapshot installs) of the next batch that carries two or more in
///    reverse order, as a backend with several workers may run a
///    pipelined burst, made deterministic.
class WireControl {
 public:
  void close() { set(closed_, true); }
  void open() { set(closed_, false); }
  void hold_next_flush() { set(hold_flush_, true); }
  /// Ends the hold, or cancels it if that flush has not been reached yet.
  void release_flush() {
    std::lock_guard<std::mutex> lock(mu_);
    hold_flush_ = false;
    flush_held_ = false;
    cv_.notify_all();
  }
  void reverse_next_burst() { set(reverse_, true); }

  /// Number of sends currently held by `close()`.
  std::size_t held() const {
    std::lock_guard<std::mutex> lock(mu_);
    return held_;
  }
  bool reversing() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reverse_;
  }

  // Transport side.
  void before_send() {
    std::unique_lock<std::mutex> lock(mu_);
    ++held_;
    cv_.wait(lock, [this] { return !closed_; });
    --held_;
  }
  void after_flush() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!hold_flush_) return;
    hold_flush_ = false;
    flush_held_ = true;
    cv_.wait(lock, [this] { return !flush_held_; });
  }
  /// Claims the armed reversal, once.
  bool take_reversal() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(reverse_, false);
  }

 private:
  void set(bool& flag, bool value) {
    std::lock_guard<std::mutex> lock(mu_);
    flag = value;
    cv_.notify_all();
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  bool hold_flush_ = false;
  bool flush_held_ = false;
  bool reverse_ = false;
  std::size_t held_ = 0;
};

/// Delegates to a loopback transport until the kill switch flips, then
/// throws like a reset TCP connection — once the requests already handed
/// to the server are answered, so no reply reaches a batch the pool has
/// given up on.
class SwitchableTransport final : public serve::ClientTransport {
 public:
  SwitchableTransport(serve::Server& server, std::atomic<bool>& dead,
                      WireControl& wire)
      : inner_(server), dead_(&dead), wire_(&wire) {}

  serve::Response roundtrip(const serve::Request& request) override {
    check_alive();
    wire_->before_send();
    return inner_.roundtrip(request);
  }
  void send_async(const serve::Request& request,
                  std::function<void(std::string)> on_reply) override {
    check_alive();
    wire_->before_send();
    if (writes_replica(request) && wire_->reversing()) {
      burst_.emplace_back(request, std::move(on_reply));
      return;
    }
    inner_.send_async(request, std::move(on_reply));
  }
  void flush() override {
    check_alive();
    if (burst_.size() > 1 && wire_->take_reversal()) {
      std::reverse(burst_.begin(), burst_.end());
    }
    for (auto& [request, on_reply] : burst_) {
      inner_.send_async(request, std::move(on_reply));
    }
    burst_.clear();
    inner_.flush();
    wire_->after_flush();
  }
  std::string name() const override { return "switchable"; }

 private:
  void check_alive() {
    if (!dead_->load()) return;
    inner_.flush();
    throw serve::ServeError("backend killed");
  }
  static bool writes_replica(const serve::Request& request) {
    return request.endpoint == serve::Endpoint::kMutate ||
           (request.endpoint == serve::Endpoint::kSnapshot &&
            !request.text.empty());
  }

  serve::LoopbackTransport inner_;
  std::atomic<bool>* dead_;
  WireControl* wire_;
  /// This batch's replica writes while a reversal is armed, sent at
  /// `flush()`.
  std::vector<std::pair<serve::Request, std::function<void(std::string)>>>
      burst_;
};

/// One in-process backend: service + server (manual unless `options` asks
/// for workers) + kill switch + wire control.
struct BackendSim {
  explicit BackendSim(serve::ServiceConfig config = harness_service_config(),
                      serve::Server::Options options = {})
      : service(config), server(service, std::move(options)) {}

  serve::LocalizationService service;
  serve::Server server;
  std::atomic<bool> dead{false};
  WireControl wire;
};

/// N backends plus membership/pool/replicator/router wired like `abp route`.
struct ClusterSim {
  explicit ClusterSim(std::vector<std::string> names,
                      std::size_t replication = 1,
                      BackendPoolOptions pool_options = {},
                      RouterOptions router_options = {},
                      std::size_t log_retain = MutationLog::kDefaultRetain)
      : backend_names(names), membership(names) {
    for (const std::string& name : names) {
      sims.emplace(name, std::make_unique<BackendSim>());
    }
    pool = std::make_unique<BackendPool>(
        names, std::move(pool_options), metrics,
        [this](const std::string& backend) {
          BackendSim& sim = *sims.at(backend);
          return std::make_unique<SwitchableTransport>(sim.server, sim.dead,
                                                       sim.wire);
        });
    replicator = std::make_unique<Replicator>(*pool, membership, replication,
                                              metrics, log_retain);
    pool->set_recovery_callback([this](const std::string& backend) {
      replicator->sync_backend(backend);
    });
    router = std::make_unique<Router>(membership, *pool, *replicator,
                                      metrics, std::move(router_options));
    pool->start();
  }

  ~ClusterSim() { pool->stop(); }

  /// Route one request through the router, blocking for the reply payload.
  std::string call(const serve::Request& request) {
    auto done = std::make_shared<std::promise<std::string>>();
    auto future = done->get_future();
    router->submit(serve::format_request(request),
                   [done](std::string payload) {
                     done->set_value(std::move(payload));
                   });
    return future.get();
  }

  /// Register a backend sim so the pool's transport factory can reach it.
  /// Must run before `admin("add", name)` — the joining backend's first
  /// snapshot install creates the transport.
  BackendSim& add_sim(const std::string& name,
                      serve::Server::Options options = {}) {
    auto [it, inserted] = sims.emplace(
        name, std::make_unique<BackendSim>(harness_service_config(),
                                           std::move(options)));
    (void)inserted;
    return *it->second;
  }

  /// Drive the membership admin plane over the wire (the same payload the
  /// `abp route-admin` CLI sends), returning the parsed response.
  serve::Response admin(const std::string& verb,
                        const std::string& backend = "") {
    const auto response =
        serve::parse_response(call(admin_request(verb, backend)));
    ABP_CHECK(response.has_value(), "unparseable admin response");
    return *response;
  }

  BackendSim& sim(const std::string& name) { return *sims.at(name); }

  /// Wait until nothing is queued or in flight for `name`, in the pool or
  /// on its server. Router counters for it (installs, replays) are final
  /// only then: a replica's version reads current as soon as a change is
  /// applied, before the reply that counts it arrives.
  bool quiesce(const std::string& name);

  std::vector<std::string> backend_names;
  MembershipTable membership;
  serve::RouterMetrics metrics;
  std::map<std::string, std::unique_ptr<BackendSim>> sims;
  std::unique_ptr<BackendPool> pool;
  std::unique_ptr<Replicator> replicator;
  std::unique_ptr<Router> router;
};

/// Poll `pred` until true or ~2 s pass (worker threads are asynchronous).
template <typename Pred>
bool wait_until(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// True when nothing is queued or in flight for `backend`: its pool FIFO
/// is empty with no batch running, and its server has nothing queued or
/// executing.
inline bool backend_quiescent(const BackendPool& pool,
                              const std::string& backend,
                              const serve::Server& server) {
  return pool.queue_idle(backend) && server.queue_depth() == 0 &&
         server.in_flight() == 0;
}

inline bool ClusterSim::quiesce(const std::string& name) {
  return wait_until(
      [&] { return backend_quiescent(*pool, name, sim(name).server); });
}

}  // namespace abp::cluster
