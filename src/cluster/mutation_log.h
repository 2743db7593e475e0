/// \file mutation_log.h
/// \brief Per-deployment, version-fenced write-ahead log of mutations.
///
/// The router is the source of truth for every deployment's beacon set; the
/// mutation log is where that truth lives once writes flow. Each deployment
/// holds the authoritative parsed field, a monotonically increasing version,
/// and a bounded window of recent mutation entries:
///
///  * `install` resets a deployment to a full snapshot (operator load or
///    replace) at a fresh version and clears its log — a snapshot subsumes
///    every entry before it.
///  * `append` is the write path: clamp the new beacon positions against the
///    field bounds, apply them to the authoritative field (allocating the
///    same ids any replica will allocate), bump the version, and retain the
///    entry for replay. The returned positions/ids are exactly what a
///    backend applying the same mutation produces, which is what lets the
///    router synthesize the client's `add-beacon` response locally and keep
///    it byte-identical to a direct server's.
///  * `suffix` answers the replay-vs-resync decision on circuit-breaker
///    recovery: a replica behind by at most the retained window replays the
///    missing `mutate` entries in order; one behind the window (or holding
///    nothing) takes a full snapshot install and truncates its lag in one
///    round trip.
///  * `record_acked` tracks the highest quorum-acknowledged version per
///    deployment — the router's read fence (read-your-writes: reads are
///    stamped with the last *acked* version, never an in-flight one).
///  * `dedup_verdict` consults the deployment's exactly-once index, a
///    `serve::DedupIndex` like the one a direct server keeps: entries
///    appended with a client request id are findable by that id, with the
///    positions/ids needed to re-synthesize the original ack, for as long
///    as the entry stays in the retained window. The window counts every
///    retained entry, id-free ones included; when an id-bearing entry
///    leaves it, its id leaves the index and the index is incomplete for
///    good, so an unknown id on a retry is answered `dedup-expired` instead
///    of re-appended. The index is derived state: replaying the same
///    appends rebuilds the same index.
///
/// All methods are thread-safe under one internal mutex; the apply path is
/// deterministic (clamp + sequential id allocation over a canonically
/// serialized field), so every replica that processes the same prefix of
/// the log holds a byte-identical snapshot.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "field/beacon_field.h"
#include "geom/vec2.h"
#include "serve/dedup_index.h"

namespace abp::cluster {

class MutationLog {
 public:
  /// Default retained-entry window per deployment (replay horizon).
  static constexpr std::size_t kDefaultRetain = 64;

  /// One logged mutation: the version it establishes, the (clamped) beacon
  /// positions it deploys, and the client request id that wrote it (0 =
  /// id-free).
  struct Entry {
    std::uint64_t version = 0;
    std::vector<Vec2> points;
    std::uint64_t request_id = 0;
  };

  /// Deterministic result of applying one mutation to the authoritative
  /// field — mirrors what every replica's own apply produces.
  using AppendResult = serve::WriteAck;

  explicit MutationLog(std::size_t retain = kDefaultRetain);

  /// Install (or replace) a deployment from a serialized field snapshot at
  /// the next version; clears any retained entries (the snapshot subsumes
  /// them) and fences reads at the new version. Returns the version.
  /// Throws `CheckFailure` on an unparseable snapshot (operator input).
  std::uint64_t install(const std::string& name, std::string field_text);

  /// Append one mutation: clamp `points`, apply them to the authoritative
  /// field, bump the version, retain the entry. The deployment must exist.
  /// A non-zero `request_id` is persisted with the entry and indexed;
  /// appending an id already in the index is a caller bug (the caller must
  /// ask `dedup_verdict` first, under its own write serialization).
  AppendResult append(const std::string& name, const std::vector<Vec2>& points,
                      std::uint64_t request_id = 0);

  /// One retained, id-bearing entry resolved by client request id: exactly
  /// what the first append returned, enough to answer the duplicate with
  /// the original ack, and whether that ack was ever quorum-confirmed.
  struct DedupHit : serve::WriteAck {
    bool acked = false;  ///< version <= last_acked at lookup time
  };

  /// The index's verdict on delivery `attempt` of `request_id`
  /// (`serve::DedupIndex::verdict`); on a duplicate, `*hit` receives the
  /// logged apply. An unknown deployment's index is empty and complete.
  serve::DedupIndex::Verdict dedup_verdict(const std::string& name,
                                           std::uint64_t request_id,
                                           std::uint32_t attempt,
                                           DedupHit* hit) const;

  /// The retained entry written under `request_id`; nullopt when the id is
  /// unknown — either never appended, or evicted with the window
  /// (disambiguate via `dedup_complete`).
  std::optional<DedupHit> dedup_lookup(const std::string& name,
                                       std::uint64_t request_id) const;

  /// True while no id-bearing entry has ever left the retained window (or
  /// been cleared by a re-install), i.e. the dedup index still covers the
  /// deployment's entire id history and an unknown id is provably fresh.
  bool dedup_complete(const std::string& name) const;

  /// Current version of `name`; 0 when unknown.
  std::uint64_t version(const std::string& name) const;

  /// Highest quorum-acked version of `name`; 0 when unknown. Equals the
  /// install version until the first write is acked.
  std::uint64_t last_acked(const std::string& name) const;

  /// Record a quorum acknowledgement; monotonic (stale acks are ignored).
  void record_acked(const std::string& name, std::uint64_t version);

  /// Serialized field + the version it represents, read atomically (an
  /// install built from a torn text/version pair would stamp a snapshot
  /// with the wrong version and silently diverge a replica).
  struct Snapshot {
    std::string text;
    std::uint64_t version = 0;
  };

  /// Canonical serialized snapshot of the authoritative field at the
  /// current version (re-serialized lazily after appends).
  Snapshot snapshot(const std::string& name) const;

  /// Entries a replica at `have_version` is missing, oldest first; an empty
  /// vector when it is current (or ahead). nullopt when the gap reaches
  /// behind the retained window or the deployment is unknown — the caller
  /// must fall back to a full snapshot install.
  std::optional<std::vector<Entry>> suffix(const std::string& name,
                                           std::uint64_t have_version) const;

  std::vector<std::string> names() const;

  std::size_t retain() const { return retain_; }

 private:
  struct Deployment {
    explicit Deployment(BeaconField f) : field(std::move(f)) {}

    BeaconField field;          ///< authoritative beacon set
    std::string text;           ///< serialized cache (valid iff !text_dirty)
    bool text_dirty = false;
    std::uint64_t version = 0;
    std::uint64_t last_acked = 0;
    std::deque<Entry> entries;  ///< retained window, ascending version
    /// Holds exactly the ids of the id-bearing retained entries, in their
    /// order; complete while none was ever evicted or cleared.
    serve::DedupIndex dedup;
  };

  const std::size_t retain_;
  mutable std::mutex mu_;
  /// unique_ptr keeps Deployment addresses stable across map rehash-free
  /// inserts and lets the non-default-constructible field live in a node.
  std::map<std::string, std::unique_ptr<Deployment>> deployments_;
};

}  // namespace abp::cluster
