#include "cluster/replicator.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <utility>

#include "common/assert.h"

namespace abp::cluster {

namespace {

/// A random non-zero id, fresh for each replicator (router process).
std::uint64_t fresh_incarnation() {
  std::random_device device;
  std::uint64_t id = 0;
  while (id == 0) id = (std::uint64_t{device()} << 32) ^ device();
  return id;
}

}  // namespace

Replicator::Replicator(BackendPool& pool, const MembershipTable& membership,
                       std::size_t replication,
                       serve::RouterMetrics& metrics, std::size_t log_retain)
    : pool_(&pool),
      membership_(&membership),
      replication_(replication ? replication : 1),
      metrics_(&metrics),
      incarnation_(fresh_incarnation()),
      log_(log_retain) {}

std::uint64_t Replicator::set_deployment(const std::string& name,
                                         std::string field_text) {
  return log_.install(name, std::move(field_text));
}

std::uint64_t Replicator::version(const std::string& name) const {
  return log_.version(name);
}

std::uint64_t Replicator::read_version(const std::string& name) const {
  return log_.last_acked(name);
}

std::vector<std::string> Replicator::names() const { return log_.names(); }

std::string Replicator::list_text() const {
  std::string out;
  for (const std::string& name : names()) {
    out += name;
    out += '\n';
  }
  return out;
}

std::vector<std::string> Replicator::owners(const std::string& name) const {
  return membership_->view()->ring.owners(name, replication_);
}

serve::Request Replicator::install_request(const std::string& name) const {
  MutationLog::Snapshot snapshot = log_.snapshot(name);
  serve::Request request;
  request.endpoint = serve::Endpoint::kSnapshot;
  request.field = name;
  request.text = std::move(snapshot.text);
  request.version = snapshot.version;
  request.incarnation = incarnation_;
  return request;
}

serve::Request Replicator::mutate_request(
    const std::string& name, const MutationLog::Entry& entry) const {
  serve::Request request;
  request.endpoint = serve::Endpoint::kMutate;
  request.field = name;
  request.points = entry.points;
  request.version = entry.version;
  // Replays carry the write's request id, so a recovering replica rebuilds
  // the same dedup state the live fan-out gave its peers.
  request.request_id = entry.request_id;
  return request;
}

std::size_t Replicator::sync_all() {
  // Counting latch: every accepted enqueue must come back (reply or
  // failure) before startup proceeds, so the first forwarded query never
  // races its own deployment's install.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t outstanding = 0;
    std::size_t ok = 0;
  };
  auto latch = std::make_shared<Latch>();
  for (const std::string& name : names()) {
    for (const std::string& backend : owners(name)) {
      BackendPool::Forward forward;
      forward.request = install_request(name);
      forward.on_reply = [this, latch, backend](std::string payload) {
        const auto response = serve::parse_response(payload);
        const bool ok =
            response && response->status == serve::Status::kOk;
        if (ok) metrics_->record_install(backend);
        std::lock_guard<std::mutex> lock(latch->mu);
        if (ok) ++latch->ok;
        --latch->outstanding;
        latch->cv.notify_all();
      };
      forward.on_failure = [latch] {
        std::lock_guard<std::mutex> lock(latch->mu);
        --latch->outstanding;
        latch->cv.notify_all();
      };
      {
        std::lock_guard<std::mutex> lock(latch->mu);
        ++latch->outstanding;
      }
      if (!pool_->enqueue(backend, std::move(forward))) {
        std::lock_guard<std::mutex> lock(latch->mu);
        --latch->outstanding;
      }
    }
  }
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->cv.wait(lock, [&latch] { return latch->outstanding == 0; });
  return latch->ok;
}

void Replicator::sync_backend(const std::string& backend) {
  for (const std::string& name : names()) {
    bool owned = false;
    for (const std::string& owner : owners(name)) {
      if (owner == backend) {
        owned = true;
        break;
      }
    }
    if (!owned) continue;
    // Probe the backend's version first: the replay-vs-resync decision
    // needs to know how far behind it actually is. The probe reply runs on
    // a pool worker and enqueues the repair on the same backend FIFO.
    BackendPool::Forward probe;
    probe.request.endpoint = serve::Endpoint::kVersion;
    probe.request.field = name;
    probe.on_reply = [this, backend, name](std::string payload) {
      const auto response = serve::parse_response(payload);
      if (!response || response->status != serve::Status::kOk) {
        // Unparseable or errored probe: fall back to a full install.
        repair_backend(backend, name, 0);
        return;
      }
      repair_backend(backend, name, response->version);
    };
    // Best-effort: a failed probe leaves the backend stale, and the
    // per-query version fence catches that on the next forward.
    probe.on_failure = [] {};
    pool_->enqueue(backend, std::move(probe));
  }
}

void Replicator::repair_backend(const std::string& backend,
                                const std::string& name,
                                std::uint64_t have_version) {
  const auto entries = log_.suffix(name, have_version);
  if (entries && entries->empty()) return;  // already current
  if (entries) {
    // Replay the missing suffix in order on the backend's FIFO. A backend
    // with several workers may still run two of these mutates out of
    // order: the later one answers `version-mismatch` with the version it
    // holds, and so does every entry after the gap. The first such reply
    // restarts the replay from that version, queued behind this one; the
    // entry right above the held version always applies, so every replay
    // advances and the restarts end. Any other reply means the backend
    // raced a newer install; the fence on live traffic repairs that case.
    auto restarted = std::make_shared<std::atomic<bool>>(false);
    for (const MutationLog::Entry& entry : *entries) {
      BackendPool::Forward forward;
      forward.request = mutate_request(name, entry);
      forward.on_reply = [this, backend, name,
                          restarted](std::string payload) {
        const auto response = serve::parse_response(payload);
        if (!response) return;
        if (response->status == serve::Status::kOk) {
          metrics_->record_mutation_ack(backend);
          metrics_->record_replay(backend);
        } else if (response->status == serve::Status::kVersionMismatch &&
                   !restarted->exchange(true)) {
          repair_backend(backend, name, response->version);
        }
      };
      forward.on_failure = [] {};
      if (pool_->enqueue(backend, std::move(forward))) {
        metrics_->record_mutation(backend);
      }
    }
    return;
  }
  // Behind the retained window (or the probe failed): full snapshot
  // install truncates the lag in one round trip.
  BackendPool::Forward forward;
  forward.request = install_request(name);
  forward.on_reply = [this, backend](std::string payload) {
    const auto response = serve::parse_response(payload);
    if (response && response->status == serve::Status::kOk) {
      metrics_->record_install(backend);
    }
  };
  forward.on_failure = [] {};
  pool_->enqueue(backend, std::move(forward));
}

}  // namespace abp::cluster
