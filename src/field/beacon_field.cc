#include "field/beacon_field.h"

#include "common/assert.h"

namespace abp {

BeaconField::BeaconField(AABB bounds, double index_cell)
    : bounds_(bounds), index_(index_cell) {}

BeaconId BeaconField::add(Vec2 pos) {
  return add_with_id(static_cast<BeaconId>(slots_.size()), pos, true);
}

BeaconId BeaconField::add_with_id(BeaconId id, Vec2 pos, bool active) {
  ABP_CHECK(bounds_.contains(pos), "beacon position outside field bounds");
  ABP_CHECK(id >= slots_.size(), "id already allocated (ids are never reused)");
  slots_.resize(id);  // dead slots for skipped ids
  slots_.push_back({Beacon{id, pos, active}, true});
  ++live_;
  if (active) {
    index_.insert(id, pos);
    ++active_;
    active_sum_ += pos;
  }
  return id;
}

bool BeaconField::remove(BeaconId id) {
  if (id >= slots_.size() || !slots_[id].live) return false;
  Slot& slot = slots_[id];
  if (slot.beacon.active) {
    index_.remove(id, slot.beacon.pos);
    --active_;
    active_sum_ -= slot.beacon.pos;
  }
  slot.live = false;
  --live_;
  return true;
}

bool BeaconField::set_active(BeaconId id, bool active) {
  if (id >= slots_.size() || !slots_[id].live) return false;
  Slot& slot = slots_[id];
  if (slot.beacon.active == active) return true;
  slot.beacon.active = active;
  if (active) {
    index_.insert(id, slot.beacon.pos);
    ++active_;
    active_sum_ += slot.beacon.pos;
  } else {
    index_.remove(id, slot.beacon.pos);
    --active_;
    active_sum_ -= slot.beacon.pos;
  }
  return true;
}

void BeaconField::reserve_ids(BeaconId next) {
  if (next > slots_.size()) slots_.resize(next);
}

std::optional<Beacon> BeaconField::get(BeaconId id) const {
  if (id >= slots_.size() || !slots_[id].live) return std::nullopt;
  return slots_[id].beacon;
}

double BeaconField::density() const {
  const double area = bounds_.area();
  return area > 0.0 ? static_cast<double>(active_) / area : 0.0;
}

void BeaconField::for_each_active(
    const std::function<void(const Beacon&)>& fn) const {
  for (const Slot& slot : slots_) {
    if (slot.live && slot.beacon.active) fn(slot.beacon);
  }
}

void BeaconField::query_disk(
    Vec2 center, double radius,
    const std::function<void(const Beacon&)>& fn) const {
  index_.query_disk(center, radius, [&](std::uint32_t id, Vec2) {
    const Slot& slot = slots_[id];
    ABP_DCHECK(slot.live && slot.beacon.active,
               "index out of sync with slots");
    fn(slot.beacon);
  });
}

Vec2 BeaconField::active_centroid() const {
  if (active_ == 0) return bounds_.center();
  return active_sum_ / static_cast<double>(active_);
}

std::vector<BeaconId> BeaconField::active_ids() const {
  std::vector<BeaconId> out;
  out.reserve(active_);
  for (const Slot& slot : slots_) {
    if (slot.live && slot.beacon.active) out.push_back(slot.beacon.id);
  }
  return out;
}

}  // namespace abp
