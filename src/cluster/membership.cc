#include "cluster/membership.h"

#include <chrono>
#include <thread>
#include <utility>

#include "cluster/backend_pool.h"
#include "cluster/replicator.h"
#include "common/stopwatch.h"
#include "serve/metrics.h"

namespace abp::cluster {

/// Suffix catch-up rounds shipped to a joiner *before* the fenced flip; the
/// flip itself replays any final delta with writes fenced out, so this only
/// bounds how much of the catch-up happens without blocking writers.
constexpr std::size_t kHandoffRounds = 4;

const char* member_state_name(MemberState state) {
  switch (state) {
    case MemberState::kJoining: return "joining";
    case MemberState::kActive: return "active";
    case MemberState::kDraining: return "draining";
  }
  return "unknown";
}

// ---- MembershipTable ----------------------------------------------------

MembershipTable::MembershipTable(std::vector<std::string> active,
                                 std::size_t vnodes)
    : vnodes_(vnodes ? vnodes : 1) {
  for (std::string& backend : active) {
    members_.emplace(std::move(backend), MemberState::kActive);
  }
  std::lock_guard<std::mutex> lock(mu_);
  publish_locked();
}

void MembershipTable::publish_locked() {
  auto view = std::make_shared<MembershipView>();
  view->epoch = epoch_;
  view->ring = HashRing(vnodes_);
  view->members = members_;
  for (const auto& [backend, state] : members_) {
    if (state == MemberState::kActive) view->ring.add_node(backend);
  }
  view_ = std::move(view);
}

std::shared_ptr<const MembershipView> MembershipTable::view() const {
  std::lock_guard<std::mutex> lock(mu_);
  return view_;
}

std::uint64_t MembershipTable::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

std::size_t MembershipTable::count(MemberState state) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [backend, s] : members_) {
    if (s == state) ++n;
  }
  return n;
}

bool MembershipTable::begin_join(const std::string& backend) {
  std::lock_guard<std::mutex> lock(mu_);
  if (members_.count(backend) != 0) return false;
  members_.emplace(backend, MemberState::kJoining);
  publish_locked();  // same epoch: the ring is unchanged
  return true;
}

bool MembershipTable::activate(const std::string& backend) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = members_.find(backend);
  if (it == members_.end() || it->second != MemberState::kJoining) {
    return false;
  }
  it->second = MemberState::kActive;
  ++epoch_;
  publish_locked();
  return true;
}

bool MembershipTable::begin_drain(const std::string& backend) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = members_.find(backend);
  if (it == members_.end() || it->second != MemberState::kActive) {
    return false;
  }
  std::size_t active = 0;
  for (const auto& [name, state] : members_) {
    if (state == MemberState::kActive) ++active;
  }
  if (active <= 1) return false;  // the ring must never go empty
  it->second = MemberState::kDraining;
  ++epoch_;
  publish_locked();
  return true;
}

bool MembershipTable::remove(const std::string& backend) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = members_.find(backend);
  if (it == members_.end() || it->second == MemberState::kActive) {
    return false;
  }
  members_.erase(it);
  publish_locked();  // same epoch: joiners/drainers were not in the ring
  return true;
}

// ---- MembershipController -----------------------------------------------

AdminResult AdminResult::failure(serve::Status status, std::string message) {
  AdminResult result;
  result.ok = false;
  result.status = status;
  result.message = std::move(message);
  return result;
}

AdminResult AdminResult::success(std::string text) {
  AdminResult result;
  result.ok = true;
  result.status = serve::Status::kOk;
  result.text = std::move(text);
  return result;
}

MembershipController::MembershipController(MembershipTable& table,
                                           BackendPool& pool,
                                           Replicator& replicator,
                                           serve::RouterMetrics& metrics,
                                           Options options)
    : table_(&table),
      pool_(&pool),
      replicator_(&replicator),
      metrics_(&metrics),
      options_(std::move(options)) {
  publish_metrics();
}

void MembershipController::set_write_fence(
    std::function<void(const std::function<void()>&)> fence) {
  fence_ = std::move(fence);
}

void MembershipController::set_invalidate(
    std::function<void(const std::string&)> invalidate) {
  invalidate_ = std::move(invalidate);
}

double MembershipController::now_ms() const {
  return options_.clock_ms ? options_.clock_ms() : steady_now_ms();
}

void MembershipController::publish_metrics() const {
  metrics_->set_membership(table_->epoch(),
                           table_->count(MemberState::kActive),
                           table_->count(MemberState::kJoining),
                           table_->count(MemberState::kDraining));
}

void MembershipController::run_fenced(const std::function<void()>& fn) {
  if (fence_) {
    fence_(fn);
  } else {
    fn();
  }
}

void MembershipController::invalidate(const std::string& deployment) {
  if (invalidate_) invalidate_(deployment);
}

std::uint64_t MembershipController::ship(const std::string& backend,
                                         const std::string& name,
                                         std::uint64_t have_version) {
  const Replicator::CatchUpResult result =
      replicator_->catch_up_blocking(backend, name, have_version);
  if (result.reached == 0) return 0;
  if (result.installed) {
    metrics_->add(&serve::RouterCounts::handoff_snapshots);
  } else if (result.replayed != 0) {
    metrics_->add(&serve::RouterCounts::handoff_replays);
  }
  return result.reached;
}

AdminResult MembershipController::add(const std::string& backend) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  if (backend.empty()) {
    return AdminResult::failure(serve::Status::kBadRequest,
                                "admin add needs a backend address");
  }
  if (!pool_->add_backend(backend)) {
    return AdminResult::failure(
        serve::Status::kBadRequest,
        "backend '" + backend + "' is already pooled");
  }
  if (!table_->begin_join(backend)) {
    pool_->remove_backend(backend);
    return AdminResult::failure(
        serve::Status::kBadRequest,
        "backend '" + backend + "' is already a member");
  }
  publish_metrics();

  // The transfer plan is a pure function of (old ring, new ring, names):
  // restart the controller and it computes the identical handoff.
  const auto before = table_->view();
  HashRing next = before->ring;
  next.add_node(backend);
  const std::vector<std::string> names = replicator_->names();
  const std::vector<HashRing::Transfer> transfers = HashRing::transfer_set(
      before->ring, next, names, replicator_->replication());
  std::vector<std::string> gained;
  for (const HashRing::Transfer& transfer : transfers) {
    if (transfer.gained_by(backend)) gained.push_back(transfer.key);
  }

  const auto rollback = [&](const std::string& why) {
    table_->remove(backend);
    pool_->remove_backend(backend);
    publish_metrics();
    return AdminResult::failure(serve::Status::kUnavailable, why);
  };

  // Phase 1: full snapshots of everything the joiner will own.
  std::size_t snapshots = 0;
  std::size_t replays = 0;
  std::map<std::string, std::uint64_t> shipped;  // deployment → version
  for (const std::string& name : gained) {
    const std::uint64_t version = ship(backend, name, 0);
    if (version == 0) {
      return rollback("handoff snapshot of '" + name + "' to '" + backend +
                      "' failed; join rolled back");
    }
    ++snapshots;
    shipped[name] = version;
  }
  // Phase 2: chase the write stream without blocking it — replay the
  // suffix that accumulated behind each snapshot, a bounded number of
  // rounds, so the fenced flip below has almost nothing left to ship.
  for (std::size_t round = 0; round < kHandoffRounds; ++round) {
    bool current = true;
    for (auto& [name, version] : shipped) {
      if (replicator_->version(name) == version) continue;
      current = false;
      const std::uint64_t reached = ship(backend, name, version);
      if (reached == 0) {
        return rollback("handoff replay of '" + name + "' to '" + backend +
                        "' failed; join rolled back");
      }
      if (reached > version) ++replays;
      version = reached;
    }
    if (current) break;
  }
  // Phase 3: the atomic flip. Writes are fenced out, so one final replay
  // makes the joiner version-current; then activate (epoch bump) and drop
  // every remapped deployment's cached responses in the same critical
  // section — no request ever sees the new ring with a pre-flip cache.
  bool flipped = false;
  std::string flip_error;
  run_fenced([&] {
    for (auto& [name, version] : shipped) {
      if (replicator_->version(name) == version) continue;
      const std::uint64_t reached = ship(backend, name, version);
      if (reached == 0 || replicator_->version(name) != reached) {
        flip_error = "final catch-up of '" + name + "' on '" + backend +
                     "' failed; join rolled back";
        return;
      }
      ++replays;
      version = reached;
    }
    table_->activate(backend);
    for (const HashRing::Transfer& transfer : transfers) {
      invalidate(transfer.key);
    }
    flipped = true;
  });
  if (!flipped) return rollback(flip_error);
  publish_metrics();

  std::string text = "abp-membership 1\n";
  text += "epoch " + std::to_string(table_->epoch()) + '\n';
  text += "added " + backend + '\n';
  text += "snapshots " + std::to_string(snapshots) + '\n';
  text += "replays " + std::to_string(replays) + '\n';
  return AdminResult::success(std::move(text));
}

AdminResult MembershipController::drain(const std::string& backend) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  if (backend.empty()) {
    return AdminResult::failure(serve::Status::kBadRequest,
                                "admin drain needs a backend address");
  }
  const auto before = table_->view();
  const auto member = before->members.find(backend);
  if (member == before->members.end()) {
    return AdminResult::failure(serve::Status::kNotFound,
                                "unknown backend '" + backend + "'");
  }
  if (member->second != MemberState::kActive) {
    return AdminResult::failure(
        serve::Status::kBadRequest,
        "backend '" + backend + "' is " +
            member_state_name(member->second) + ", not active");
  }
  HashRing next = before->ring;
  next.remove_node(backend);
  if (next.node_count() == 0) {
    return AdminResult::failure(serve::Status::kBadRequest,
                                "cannot drain the last active backend");
  }
  const std::vector<HashRing::Transfer> transfers = HashRing::transfer_set(
      before->ring, next, replicator_->names(),
      replicator_->replication());

  // Flip first: new work stops routing here the instant the epoch bumps,
  // and the remapped deployments' cache entries die in the same fenced
  // section. In-flight work already sits in the backend's FIFO.
  run_fenced([&] {
    table_->begin_drain(backend);
    for (const HashRing::Transfer& transfer : transfers) {
      invalidate(transfer.key);
    }
  });
  publish_metrics();

  // Hand off the ranges it owned: every owner that *gained* a deployment
  // gets a fresh snapshot. A dead gaining owner is skipped — the version
  // fence and breaker-recovery resync heal it when it returns.
  std::size_t snapshots = 0;
  for (const HashRing::Transfer& transfer : transfers) {
    for (const std::string& owner : transfer.new_owners) {
      if (!transfer.gained_by(owner)) continue;
      if (ship(owner, transfer.key, 0) != 0) ++snapshots;
    }
  }

  // Let the in-flight FIFO empty through the pool. Idle must hold for a
  // few consecutive polls so a just-dequeued batch still counts. The
  // iteration cap keeps an injected manual clock from spinning forever.
  const double deadline = now_ms() + options_.drain_timeout_ms;
  int stable = 0;
  for (long iteration = 0; stable < 3 && iteration < 100000; ++iteration) {
    if (pool_->queue_idle(backend)) {
      ++stable;
    } else {
      stable = 0;
    }
    if (now_ms() >= deadline) break;
    if (stable < 3) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  table_->remove(backend);
  pool_->remove_backend(backend);
  publish_metrics();

  std::string text = "abp-membership 1\n";
  text += "epoch " + std::to_string(table_->epoch()) + '\n';
  text += "drained " + backend + '\n';
  text += "snapshots " + std::to_string(snapshots) + '\n';
  return AdminResult::success(std::move(text));
}

AdminResult MembershipController::status() const {
  // Lock-free on purpose: status must answer *during* a long handoff, so
  // it reads the published view instead of waiting on admin_mu_.
  const auto view = table_->view();
  std::string text = "abp-membership 1\n";
  text += "epoch " + std::to_string(view->epoch) + '\n';
  for (const auto& [name, state] : view->members) {
    text += "member " + name + ' ' + member_state_name(state) + ' ' +
            backend_health_name(pool_->health(name)) + '\n';
  }
  const serve::RouterCounts counts = metrics_->counts();
  text += "handoff-snapshots " + std::to_string(counts.handoff_snapshots) +
          '\n';
  text += "handoff-replays " + std::to_string(counts.handoff_replays) + '\n';
  return AdminResult::success(std::move(text));
}

}  // namespace abp::cluster
