/// \file dedup_index.h
/// \brief The exactly-once index of one deployment (DESIGN.md §11).
///
/// Maps each remembered client request id to the first ack its write got,
/// in insertion order, so a duplicate delivery is answered with that ack
/// instead of deploying the beacons again. The router's `MutationLog` and
/// the direct server's `LocalizationService` each own one per deployment
/// and differ only in when they forget an id. Forgetting any id makes the
/// index *incomplete* for good: an unknown id on a retry may then be one it
/// forgot, so the write must not apply again.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "geom/vec2.h"

namespace abp::serve {

/// The first ack of a write: the version it was applied at, and the
/// clamped positions and beacon ids it deployed.
struct WriteAck {
  std::uint64_t version = 0;
  std::vector<Vec2> positions;
  std::vector<std::uint32_t> beacon_ids;
};

/// Not thread-safe: each owner guards it with its deployment's lock.
class DedupIndex {
 public:
  /// What one delivery of a write is.
  enum class Verdict {
    kFresh,      ///< apply it
    kDuplicate,  ///< answer the remembered first ack (`find`)
    kExpired,    ///< refuse with `dedup-expired`: it may have been forgotten
  };

  /// Remember `id`'s first ack. Returns false, and changes nothing, for id
  /// 0 (no id) or an id the index already holds.
  bool record(std::uint64_t id, WriteAck ack) {
    if (id == 0 || !acks_.emplace(id, std::move(ack)).second) return false;
    order_.push_back(id);
    return true;
  }

  /// The first ack remembered for `id`; null when unknown.
  const WriteAck* find(std::uint64_t id) const {
    const auto it = acks_.find(id);
    return it == acks_.end() ? nullptr : &it->second;
  }

  /// A remembered id is a duplicate, whatever the attempt. An unknown id
  /// is fresh on a first delivery (attempt 0), and on a retry while the
  /// index is complete; a retry of it into an incomplete index has
  /// expired. Id 0 is always fresh.
  Verdict verdict(std::uint64_t id, std::uint32_t attempt) const {
    if (id == 0) return Verdict::kFresh;
    if (acks_.count(id) != 0) return Verdict::kDuplicate;
    return attempt > 0 && !complete_ ? Verdict::kExpired : Verdict::kFresh;
  }

  /// Forget the oldest remembered id; the index is incomplete from then on.
  void evict_oldest() {
    if (!order_.empty()) {
      acks_.erase(order_.front());
      order_.pop_front();
    }
    complete_ = false;
  }

  /// Forget every id. `complete` says whether the dropped history was the
  /// whole of it (a snapshot at version 1 follows no write).
  void reset(bool complete) {
    acks_.clear();
    order_.clear();
    complete_ = complete;
  }

  std::size_t size() const { return order_.size(); }
  bool complete() const { return complete_; }

  /// The message of a `dedup-expired` answer for `deployment`.
  static std::string expired_message(const std::string& deployment) {
    return "request id unknown and the dedup window for '" + deployment +
           "' has rolled over; verify the write and mint a fresh id";
  }

 private:
  std::map<std::uint64_t, WriteAck> acks_;
  std::deque<std::uint64_t> order_;  ///< remembered ids, oldest first
  bool complete_ = true;
};

}  // namespace abp::serve
