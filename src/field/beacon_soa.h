/// \file beacon_soa.h
/// \brief Structure-of-arrays snapshot of a `BeaconField`.
///
/// The survey kernel (loc/survey_kernel.h) evaluates batches of points
/// against the whole active beacon set; a SoA layout — one contiguous
/// array per coordinate, in ascending beacon-id order — is what lets the
/// inner loop broadcast one beacon against a vector of points with unit
/// stride loads and no pointer chasing. Ascending id order is load-bearing:
/// it is the documented accumulation order of `connected_sum`, so every
/// kernel arm that walks the snapshot front-to-back reproduces the scalar
/// centroid sums bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "field/beacon_field.h"

namespace abp {

struct BeaconSoA {
  /// Parallel arrays over live *active* beacons, ascending id.
  std::vector<BeaconId> ids;
  std::vector<double> xs;
  std::vector<double> ys;

  std::size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }

  Beacon beacon(std::size_t i) const {
    return Beacon{ids[i], {xs[i], ys[i]}, true};
  }

  /// Snapshot the live active beacons of `field` (ascending id).
  static BeaconSoA snapshot(const BeaconField& field);
};

}  // namespace abp
