#include "loc/coverage.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/assert.h"
#include "loc/connectivity.h"

namespace abp {

namespace {

/// Minimal union-find over dense indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

CoverageStats analyze_coverage(const BeaconField& field,
                               const PropagationModel& model,
                               const Lattice2D& lattice, std::size_t k_max) {
  ABP_CHECK(k_max >= 1, "k_max must be at least 1");
  CoverageStats stats;
  stats.covered_fraction.assign(k_max, 0.0);

  // k-coverage over the lattice: one lattice sweep for the counts.
  const SurveyKernel kernel(field, model);
  std::vector<double> sum_x(lattice.size()), sum_y(lattice.size());
  std::vector<std::uint32_t> counts(lattice.size());
  kernel.evaluate_lattice(lattice, {0, lattice.nx()}, {0, lattice.ny()},
                          sum_x, sum_y, counts);
  std::vector<std::size_t> hits(k_max, 0);
  for (const std::size_t n : counts) {
    for (std::size_t k = 1; k <= k_max; ++k) {
      if (n >= k) ++hits[k - 1];
    }
  }
  for (std::size_t k = 0; k < k_max; ++k) {
    stats.covered_fraction[k] =
        static_cast<double>(hits[k]) / static_cast<double>(lattice.size());
  }

  // Beacon communication graph: beacons are "linked" when one hears the
  // other's transmissions (we use b→a reachability; with symmetric models
  // this is an undirected edge).
  std::vector<Beacon> beacons;
  field.for_each_active([&](const Beacon& b) { beacons.push_back(b); });
  if (beacons.empty()) return stats;

  std::unordered_map<BeaconId, std::size_t> dense;
  for (std::size_t i = 0; i < beacons.size(); ++i) {
    dense[beacons[i].id] = i;
  }
  UnionFind uf(beacons.size());
  std::vector<std::size_t> degree(beacons.size(), 0);
  for (std::size_t i = 0; i < beacons.size(); ++i) {
    field.query_disk(beacons[i].pos, model.max_range(),
                     [&](const Beacon& other) {
                       if (other.id == beacons[i].id) return;
                       if (!model.connected(other, beacons[i].pos)) return;
                       uf.unite(i, dense[other.id]);
                       ++degree[i];
                     });
  }

  std::unordered_map<std::size_t, std::size_t> component_size;
  for (std::size_t i = 0; i < beacons.size(); ++i) {
    ++component_size[uf.find(i)];
    if (degree[i] == 0) ++stats.isolated_beacons;
  }
  stats.components = component_size.size();
  for (const auto& [root, size] : component_size) {
    stats.largest_component = std::max(stats.largest_component, size);
  }
  return stats;
}

}  // namespace abp
