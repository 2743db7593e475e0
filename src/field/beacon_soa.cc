#include "field/beacon_soa.h"

namespace abp {

BeaconSoA BeaconSoA::snapshot(const BeaconField& field) {
  BeaconSoA out;
  const std::size_t n = field.active_count();
  out.ids.reserve(n);
  out.xs.reserve(n);
  out.ys.reserve(n);
  // for_each_active walks slots in id order, so the arrays come out
  // ascending without a sort.
  field.for_each_active([&](const Beacon& b) {
    out.ids.push_back(b.id);
    out.xs.push_back(b.pos.x);
    out.ys.push_back(b.pos.y);
  });
  return out;
}

}  // namespace abp
