/// bench_micro — google-benchmark microbenchmarks backing the §3.2
/// complexity claims (Random O(1), Max O(PT), Grid O(NG·PG)) and the
/// performance-critical primitives of the evaluation pipeline.
#include <benchmark/benchmark.h>

#include "eval/config.h"
#include "eval/trial.h"
#include "field/generators.h"
#include "loc/error_map.h"
#include "placement/grid_placement.h"
#include "placement/max_placement.h"
#include "placement/random_placement.h"
#include "radio/noise_model.h"

namespace abp {
namespace {

struct World {
  AABB bounds = AABB::square(100.0);
  BeaconField field;
  PerBeaconNoiseModel model;
  Lattice2D lattice;
  ErrorMap map;
  SurveyData survey;

  World(std::size_t beacons, double noise, double step = 1.0)
      : field(bounds, 15.0 * (1.0 + noise)),
        model(15.0, noise, 99),
        lattice(bounds, step),
        map(lattice),
        survey(lattice) {
    Rng rng(42);
    scatter_uniform(field, beacons, rng);
    map.compute(field, model);
    survey = SurveyData::from_error_map(map);
  }

  PlacementContext ctx() {
    PlacementContext c = PlacementContext::basic(survey, bounds, 15.0);
    c.field = &field;
    c.model = &model;
    c.truth = &map;
    return c;
  }
};

// ---- §3.2 complexity claims ------------------------------------------

void BM_ProposeRandom(benchmark::State& state) {
  World world(60, 0.0);
  const RandomPlacement alg;
  Rng rng(1);
  auto ctx = world.ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg.propose(ctx, rng));
  }
}
BENCHMARK(BM_ProposeRandom);  // O(1): independent of PT and NG

void BM_ProposeMax(benchmark::State& state) {
  // Vary PT via the lattice step: 2 m → 2601 points, 1 → 10201, 0.5 → 40401.
  const double step = static_cast<double>(state.range(0)) / 100.0;
  World world(60, 0.0, step);
  const MaxPlacement alg;
  Rng rng(1);
  auto ctx = world.ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg.propose(ctx, rng));
  }
  state.counters["PT"] = static_cast<double>(world.lattice.size());
}
BENCHMARK(BM_ProposeMax)->Arg(200)->Arg(100)->Arg(50);  // O(PT)

void BM_ProposeGrid(benchmark::State& state) {
  // Vary NG at fixed PT: O(NG · PG).
  World world(60, 0.0);
  const GridPlacement alg(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  auto ctx = world.ctx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(alg.propose(ctx, rng));
  }
  state.counters["NG"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ProposeGrid)->Arg(100)->Arg(400)->Arg(1600);

// ---- evaluation pipeline primitives ----------------------------------

void BM_ErrorMapFullCompute(benchmark::State& state) {
  const auto beacons = static_cast<std::size_t>(state.range(0));
  World world(beacons, 0.3);
  for (auto _ : state) {
    world.map.compute(world.field, world.model);
  }
  state.counters["beacons"] = static_cast<double>(beacons);
}
BENCHMARK(BM_ErrorMapFullCompute)->Arg(20)->Arg(120)->Arg(240);

void BM_ErrorMapIncrementalAdd(benchmark::State& state) {
  World world(static_cast<std::size_t>(state.range(0)), 0.3);
  Rng rng(7);
  for (auto _ : state) {
    const Vec2 pos{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    const BeaconId id = world.field.add(pos);
    world.map.apply_addition(world.field, world.model, *world.field.get(id));
    world.field.remove(id);
    world.map.apply_removal(world.field, world.model, pos);
  }
}
BENCHMARK(BM_ErrorMapIncrementalAdd)->Arg(20)->Arg(120)->Arg(240);

void BM_MeanIfAdded(benchmark::State& state) {
  World world(60, 0.3);
  Rng rng(9);
  for (auto _ : state) {
    const Vec2 pos{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    benchmark::DoNotOptimize(
        world.map.mean_if_added(world.field, world.model, pos));
  }
}
BENCHMARK(BM_MeanIfAdded);

void BM_SurveyBatch(benchmark::State& state) {
  // The batch path on its own: 120 beacons, Noise=0.3, one batch size per
  // instance — 1 (a node read), 101 (a survey tour: one lattice row) and
  // 1024 (a large batch). Throughput counter is points per second.
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  World world(120, 0.3);
  const SurveyKernel kernel(world.field, world.model);
  SurveyBatch batch;
  batch.reserve(batch_size);
  // Row-major lattice prefix: the spatially coherent batches real callers
  // (survey tours, serve requests) produce.
  world.lattice.for_each([&](std::size_t flat, Vec2 p) {
    if (flat < batch_size) batch.push(p);
  });
  for (auto _ : state) {
    kernel.evaluate(batch);
    benchmark::DoNotOptimize(batch.sum_x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_SurveyBatch)->Arg(1)->Arg(101)->Arg(1024);

void BM_ConnectivityQuery(benchmark::State& state) {
  const double noise = static_cast<double>(state.range(0)) / 10.0;
  World world(120, noise);
  Rng rng(11);
  for (auto _ : state) {
    const Vec2 p{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    std::size_t n = 0;
    world.field.query_disk(p, world.model.max_range(), [&](const Beacon& b) {
      n += world.model.connected(b, p);
    });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_ConnectivityQuery)->Arg(0)->Arg(5);  // ideal vs Noise=0.5

void BM_SpatialHashVsBrute(benchmark::State& state) {
  const bool use_index = state.range(0) != 0;
  World world(240, 0.0);
  Rng rng(13);
  std::vector<Beacon> all;
  world.field.for_each_active([&](const Beacon& b) { all.push_back(b); });
  for (auto _ : state) {
    const Vec2 p{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    std::size_t n = 0;
    if (use_index) {
      world.field.query_disk(p, 15.0, [&](const Beacon&) { ++n; });
    } else {
      for (const Beacon& b : all) {
        if (distance_sq(b.pos, p) <= 225.0) ++n;
      }
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetLabel(use_index ? "spatial-hash" : "brute-force");
}
BENCHMARK(BM_SpatialHashVsBrute)->Arg(1)->Arg(0);

void BM_FullTrial(benchmark::State& state) {
  // One end-to-end §4.1 trial with the three paper algorithms.
  static const RandomPlacement random;
  static const MaxPlacement max;
  static const GridPlacement grid;
  static const PlacementAlgorithm* const algs[] = {&random, &max, &grid};
  const PaperParams params;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_trial(params, static_cast<std::size_t>(state.range(0)), 0.3,
                  {algs, 3}, ++seed));
  }
}
BENCHMARK(BM_FullTrial)->Arg(20)->Arg(120);

}  // namespace
}  // namespace abp

BENCHMARK_MAIN();
