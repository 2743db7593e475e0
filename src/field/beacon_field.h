/// \file beacon_field.h
/// \brief The deployed set of beacons, spatially indexed.
///
/// The adaptive-placement loop repeatedly adds a candidate beacon, measures
/// the effect, and possibly removes it again; `BeaconField` supports those
/// operations in O(1)–O(log) amortized time while keeping a spatial index
/// for range queries (the inner loop of every error-map computation).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "field/beacon.h"
#include "geom/aabb.h"
#include "geom/spatial_hash.h"

namespace abp {

class BeaconField {
 public:
  /// `bounds` is the deployment region; `index_cell` the spatial-hash cell
  /// size (use the radio model's max range; defaults to a reasonable cell
  /// for the paper's R=15 m).
  explicit BeaconField(AABB bounds, double index_cell = 20.0);

  const AABB& bounds() const { return bounds_; }

  /// Deploy a beacon; returns its stable id. Position must lie in bounds.
  BeaconId add(Vec2 pos);

  /// Deploy a beacon with an explicit id (deserialization support). The id
  /// must be >= every id handed out so far; skipped ids become permanently
  /// unused, mirroring removals in the original field.
  BeaconId add_with_id(BeaconId id, Vec2 pos, bool active = true);

  /// Remove a beacon entirely. Returns false if the id is unknown/removed.
  bool remove(BeaconId id);

  /// Toggle transmissions without removing the node (density control).
  /// Returns false if the id is unknown/removed.
  bool set_active(BeaconId id, bool active);

  /// Look up a live beacon; nullopt if removed/unknown.
  std::optional<Beacon> get(BeaconId id) const;

  /// The id the next `add` will return (allocation high-water mark).
  BeaconId next_id() const { return static_cast<BeaconId>(slots_.size()); }

  /// Advance the allocation mark so ids below `next` are never handed out
  /// (deserialization support; ids already allocated are unaffected).
  void reserve_ids(BeaconId next);

  /// Number of live beacons (active + passive).
  std::size_t size() const { return live_; }
  /// Number of live, actively transmitting beacons.
  std::size_t active_count() const { return active_; }

  /// Deployment density in beacons per square meter (live active beacons).
  double density() const;

  /// Invoke `fn` for every live, active beacon.
  void for_each_active(const std::function<void(const Beacon&)>& fn) const;

  /// Invoke `fn` for every live, active beacon within `radius` of `center`.
  void query_disk(Vec2 center, double radius,
                  const std::function<void(const Beacon&)>& fn) const;

  /// Centroid of all live active beacons; `bounds().center()` if none.
  /// This is the localization fallback when a client hears no beacon (see
  /// DESIGN.md interpretation table).
  Vec2 active_centroid() const;

  /// Ids of all live active beacons (ascending).
  std::vector<BeaconId> active_ids() const;

 private:
  struct Slot {
    Beacon beacon;
    bool live = false;
  };

  AABB bounds_;
  std::vector<Slot> slots_;  // indexed by id
  SpatialHash index_;        // contains live *active* beacons only
  std::size_t live_ = 0;
  std::size_t active_ = 0;
  // Running sum of active positions for O(1) centroid.
  Vec2 active_sum_;
};

}  // namespace abp
