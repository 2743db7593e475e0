#include "cluster/replicator.h"

#include <algorithm>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
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

/// A catch-up `done` that fulfils `*future`.
Replicator::CatchUpDone fulfil(std::future<Replicator::CatchUpResult>* future) {
  auto promise = std::make_shared<std::promise<Replicator::CatchUpResult>>();
  *future = promise->get_future();
  return [promise](const Replicator::CatchUpResult& result) {
    promise->set_value(result);
  };
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
  // Queue every install before waiting on any, then wait for all of them:
  // the first forwarded query never races its own deployment's install.
  std::vector<std::future<CatchUpResult>> installs;
  for (const std::string& name : names()) {
    for (const std::string& backend : owners(name)) {
      catch_up(backend, name, 0, fulfil(&installs.emplace_back()));
    }
  }
  std::size_t installed = 0;
  for (std::future<CatchUpResult>& install : installs) {
    if (install.get().installed) ++installed;
  }
  return installed;
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
    // a pool worker and queues the catch-up on the same backend FIFO.
    BackendPool::Forward probe;
    probe.request.endpoint = serve::Endpoint::kVersion;
    probe.request.field = name;
    probe.on_reply = [this, backend, name](std::string payload) {
      const auto response = serve::parse_response(payload);
      // An unparseable or errored probe falls back to a full install.
      const bool ok = response && response->status == serve::Status::kOk;
      catch_up(backend, name, ok ? response->version : 0, nullptr);
    };
    // Best-effort: a failed probe leaves the backend stale, and the
    // per-query version fence catches that on the next forward.
    probe.on_failure = [] {};
    pool_->enqueue(backend, std::move(probe));
  }
}

/// One catch-up in flight, shared by the callbacks of its current round.
struct Replicator::CatchUp {
  std::string backend;
  std::string name;
  CatchUpDone done;
  std::mutex mu;
  /// Guarded by mu. The round in flight: the version it started from, the
  /// highest version its replies reported, its requests not yet settled,
  /// whether it installs, whether any request failed. Then the last
  /// version of the first replay round, and the tally so far.
  std::uint64_t from = 0;
  std::uint64_t high = 0;
  std::size_t pending = 0;
  bool install = false;
  bool failed = false;
  std::uint64_t target = 0;
  CatchUpResult result;
};

bool Replicator::catch_up(const std::string& backend, const std::string& name,
                          std::uint64_t have_version, CatchUpDone done) {
  auto state = std::make_shared<CatchUp>();
  state->backend = backend;
  state->name = name;
  state->done = std::move(done);
  return start_round(state, have_version);
}

Replicator::CatchUpResult Replicator::catch_up_blocking(
    const std::string& backend, const std::string& name,
    std::uint64_t have_version) {
  std::future<CatchUpResult> result;
  catch_up(backend, name, have_version, fulfil(&result));
  return result.get();
}

bool Replicator::start_round(const std::shared_ptr<CatchUp>& state,
                             std::uint64_t from) {
  std::optional<std::vector<MutationLog::Entry>> entries;
  if (from != 0) entries = log_.suffix(state->name, from);
  if (entries && entries->empty()) {  // current (or ahead)
    state->result.reached = from;
    if (state->done) state->done(state->result);
    return true;
  }
  std::vector<serve::Request> requests;
  if (entries) {
    for (const MutationLog::Entry& entry : *entries) {
      requests.push_back(mutate_request(state->name, entry));
    }
  } else {
    // Behind the retained window, or asked to install: one snapshot
    // truncates the lag in one round trip.
    requests.push_back(install_request(state->name));
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->from = from;
    state->high = from;
    state->pending = requests.size();
    state->install = !entries;
    state->failed = false;
    if (entries && state->target == 0) state->target = entries->back().version;
  }
  std::size_t queued = 0;
  for (serve::Request& request : requests) {
    BackendPool::Forward forward;
    forward.request = std::move(request);
    forward.on_reply = [this, state](std::string payload) {
      const std::optional<serve::Response> response =
          serve::parse_response(payload);
      settle(state, 1, response ? &*response : nullptr);
    };
    forward.on_failure = [this, state] { settle(state, 1, nullptr); };
    if (!pool_->enqueue(state->backend, std::move(forward))) break;
    if (entries) {
      metrics_->add(state->backend, &serve::BackendSnapshot::mutations);
    }
    ++queued;
  }
  if (queued == requests.size()) return true;
  settle(state, requests.size() - queued, nullptr);
  return false;
}

void Replicator::settle(const std::shared_ptr<CatchUp>& state,
                        std::size_t slots, const serve::Response* response) {
  std::uint64_t reached = 0;
  bool resume = false;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    const bool ok = response && response->status == serve::Status::kOk;
    if (ok || (response && response->status ==
                               serve::Status::kVersionMismatch)) {
      state->high = std::max(state->high, response->version);
    } else {
      state->failed = true;
    }
    if (ok && state->install) {
      state->result.installed = true;
      metrics_->add(state->backend, &serve::BackendSnapshot::installs);
    } else if (ok) {
      ++state->result.replayed;
      metrics_->add(state->backend, &serve::BackendSnapshot::mutation_acks);
      metrics_->add(state->backend, &serve::BackendSnapshot::replays);
    }
    state->pending -= slots;
    if (state->pending != 0) return;
    // The round is over. One that advanced resumes from the highest
    // version reported until it passes the first replay round's last
    // entry; an install already holds the log's version.
    if (!state->failed && state->high > state->from) reached = state->high;
    resume = reached != 0 && reached < state->target;
  }
  if (resume) {
    start_round(state, reached);
    return;
  }
  state->result.reached = reached;
  if (state->done) state->done(state->result);
}

}  // namespace abp::cluster
