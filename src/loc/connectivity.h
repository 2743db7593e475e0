/// \file connectivity.h
/// \brief Connectivity evaluation: which beacons does a client hear? (§2.2)
///
/// The localization algorithm's observable is the *connected set*: beacons
/// whose messages arrive above the CMthresh reception threshold. In the
/// analytic model that reduces to the propagation predicate; the DES
/// substrate (`src/des/`) validates the reduction packet-by-packet.
///
/// These free functions are the cold-path convenience API: each call
/// snapshots the field into a one-shot `SurveyKernel` and evaluates one
/// point. Hot loops hold one kernel instead: error maps and coverage sweep
/// the lattice with `evaluate_lattice`, serving evaluates each request's
/// points as one `SurveyBatch`, and placement search reuses the kernel
/// across candidates. Results are bit-identical either way (same
/// ascending-id accumulation, same predicate arithmetic).
#pragma once

#include <vector>

#include "field/beacon_field.h"
#include "loc/survey_kernel.h"
#include "radio/propagation.h"

namespace abp {

/// All live, active beacons connected to a client at `point`, in ascending
/// id order (deterministic regardless of index iteration order).
std::vector<Beacon> connected_beacons(const BeaconField& field,
                                      const PropagationModel& model,
                                      Vec2 point);

/// Number of connected beacons at `point`.
std::size_t connected_count(const BeaconField& field,
                            const PropagationModel& model, Vec2 point);

/// Position sum and count of the connected set (`ConnectedSum` lives in
/// loc/survey_kernel.h with the batch API).
ConnectedSum connected_sum(const BeaconField& field,
                           const PropagationModel& model, Vec2 point);

}  // namespace abp
