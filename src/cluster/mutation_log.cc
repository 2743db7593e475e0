#include "cluster/mutation_log.h"

#include <sstream>
#include <utility>

#include "common/assert.h"
#include "io/field_io.h"
#include "serve/protocol.h"

namespace abp::cluster {

MutationLog::MutationLog(std::size_t retain)
    : retain_(retain ? retain : 1) {}

std::uint64_t MutationLog::install(const std::string& name,
                                   std::string field_text) {
  ABP_CHECK(serve::valid_field_name(name),
            "bad deployment name: '" + name + "'");
  // Parse outside the lock; a bad snapshot must not wedge the log.
  std::istringstream is(field_text);
  BeaconField field = read_field(is);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = deployments_.find(name);
  if (it == deployments_.end()) {
    it = deployments_
             .emplace(name, std::make_unique<Deployment>(std::move(field)))
             .first;
  } else {
    it->second->field = std::move(field);
  }
  Deployment& deployment = *it->second;
  deployment.text = std::move(field_text);
  deployment.text_dirty = false;
  deployment.entries.clear();
  if (deployment.dedup.size() != 0) {
    // Re-install over an id-bearing history: those ids are gone for good,
    // so unknown-id retries are ambiguous from here on.
    deployment.dedup.reset(false);
  }
  ++deployment.version;
  // A fresh install is fully replicated by sync before reads are fenced on
  // it, so the read fence starts at the install version.
  deployment.last_acked = deployment.version;
  return deployment.version;
}

MutationLog::AppendResult MutationLog::append(const std::string& name,
                                              const std::vector<Vec2>& points,
                                              std::uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(name);
  ABP_CHECK(it != deployments_.end(), "unknown deployment: " + name);
  Deployment& deployment = *it->second;
  AppendResult result;
  for (const Vec2 p : points) {
    // Same clamp + sequential id allocation a replica's own apply performs.
    const Vec2 pos = deployment.field.bounds().clamp(p);
    result.beacon_ids.push_back(deployment.field.add(pos));
    result.positions.push_back(pos);
  }
  deployment.text_dirty = true;
  result.version = ++deployment.version;
  if (request_id != 0) {
    const bool fresh = deployment.dedup.record(request_id, result);
    ABP_CHECK(fresh, "request id appended twice to deployment '" + name +
                         "' — callers must ask dedup_verdict first");
  }
  deployment.entries.push_back({result.version, result.positions, request_id});
  while (deployment.entries.size() > retain_) {
    // Entries and index share one order: an evicted id-bearing entry's id
    // is the index's oldest.
    if (deployment.entries.front().request_id != 0) {
      deployment.dedup.evict_oldest();
    }
    deployment.entries.pop_front();
  }
  return result;
}

serve::DedupIndex::Verdict MutationLog::dedup_verdict(
    const std::string& name, std::uint64_t request_id, std::uint32_t attempt,
    DedupHit* hit) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(name);
  if (it == deployments_.end()) return serve::DedupIndex::Verdict::kFresh;
  const Deployment& deployment = *it->second;
  const serve::DedupIndex::Verdict verdict =
      deployment.dedup.verdict(request_id, attempt);
  if (verdict == serve::DedupIndex::Verdict::kDuplicate) {
    const serve::WriteAck& first = *deployment.dedup.find(request_id);
    *hit = {first, first.version <= deployment.last_acked};
  }
  return verdict;
}

std::optional<MutationLog::DedupHit> MutationLog::dedup_lookup(
    const std::string& name, std::uint64_t request_id) const {
  DedupHit hit;
  if (dedup_verdict(name, request_id, 0, &hit) !=
      serve::DedupIndex::Verdict::kDuplicate) {
    return std::nullopt;
  }
  return hit;
}

bool MutationLog::dedup_complete(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(name);
  // An unknown deployment has no id history at all, which is (vacuously)
  // complete.
  return it == deployments_.end() || it->second->dedup.complete();
}

std::uint64_t MutationLog::version(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(name);
  return it == deployments_.end() ? 0 : it->second->version;
}

std::uint64_t MutationLog::last_acked(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(name);
  return it == deployments_.end() ? 0 : it->second->last_acked;
}

void MutationLog::record_acked(const std::string& name,
                               std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(name);
  if (it == deployments_.end()) return;
  if (version > it->second->last_acked) it->second->last_acked = version;
}

MutationLog::Snapshot MutationLog::snapshot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(name);
  ABP_CHECK(it != deployments_.end(), "unknown deployment: " + name);
  Deployment& deployment = *it->second;
  if (deployment.text_dirty) {
    std::ostringstream os;
    write_field(os, deployment.field);
    deployment.text = os.str();
    deployment.text_dirty = false;
  }
  return {deployment.text, deployment.version};
}

std::optional<std::vector<MutationLog::Entry>> MutationLog::suffix(
    const std::string& name, std::uint64_t have_version) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = deployments_.find(name);
  if (it == deployments_.end()) return std::nullopt;
  const Deployment& deployment = *it->second;
  std::vector<Entry> out;
  if (have_version >= deployment.version) return out;  // current (or ahead)
  // Replay is possible only if every version in (have_version, version] is
  // retained — the oldest retained entry must be have_version + 1 or older.
  if (deployment.entries.empty() ||
      deployment.entries.front().version > have_version + 1) {
    return std::nullopt;
  }
  for (const Entry& entry : deployment.entries) {
    if (entry.version > have_version) out.push_back(entry);
  }
  return out;
}

std::vector<std::string> MutationLog::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(deployments_.size());
  for (const auto& [name, unused] : deployments_) out.push_back(name);
  return out;
}

}  // namespace abp::cluster
