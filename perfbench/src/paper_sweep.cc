// paper_sweep: the paper's §4 protocol through `run_sweep`, one call per
// (noise, count) cell, Random/Max/Grid on uniform fields. Closed loop,
// fixed work per pass; passes repeat until the run's time is spent.
//
// The traced run composes each trial from the same `ErrorMap` and
// `PlacementAlgorithm` calls `run_trial` makes, times each call, and
// checks the composed trial against `run_trial` bit for bit.
#include <algorithm>
#include <array>
#include <cstdio>
#include <span>

#include "bench.h"
#include "common/thread_pool.h"
#include "eval/runner.h"
#include "eval/trial.h"
#include "field/generators.h"
#include "host.h"
#include "loc/error_map.h"
#include "loc/survey_data.h"
#include "placement/grid_placement.h"
#include "placement/max_placement.h"
#include "placement/random_placement.h"
#include "radio/noise_model.h"
#include "rng/rng.h"
#include "stats.h"

namespace perfbench {
namespace {

using abp::PlacementAlgorithm;

// Seed-derivation tags of eval/trial.cc; the bit-for-bit check against
// `run_trial` fails if they drift.
constexpr std::uint64_t kPurposeField = 1;
constexpr std::uint64_t kPurposeNoise = 2;
constexpr std::uint64_t kPurposeAlgorithm = 3;

/// Seed of the fixed reference cell timed as set-up; its digest is
/// `kReferenceDigest`.
constexpr std::uint64_t kReferenceSeed = 20010421;
constexpr std::size_t kReferenceBeacons = 120;
constexpr double kReferenceNoise = 0.5;
/// Set-ups timed before each pass.
constexpr int kSetupsPerPass = 2;

struct Cell {
  std::size_t beacons = 0;
  double noise = 0.0;
  std::uint64_t seed = 0;
};

struct Algorithms {
  abp::RandomPlacement random;
  abp::MaxPlacement max;
  abp::GridPlacement grid{400};
  std::array<const PlacementAlgorithm*, 3> list{&random, &max, &grid};
  std::span<const PlacementAlgorithm* const> span() const { return list; }
};

abp::SweepConfig cell_config(const Cell& cell, std::size_t trials,
                             std::size_t threads) {
  abp::SweepConfig config;
  config.beacon_counts = {cell.beacons};
  config.noise_levels = {cell.noise};
  config.trials = trials;
  config.threads = threads;
  config.seed = cell.seed;
  return config;
}

void digest_summary(Digest& d, const abp::Summary& s) {
  d.add(static_cast<std::uint64_t>(s.count));
  d.add(s.mean);
  d.add(s.stddev);
  d.add(s.min);
  d.add(s.max);
  d.add(s.median);
}

void digest_cell(Digest& d, const abp::CellResult& c) {
  d.add(static_cast<std::uint64_t>(c.beacons));
  d.add(c.noise);
  digest_summary(d, c.mean_error);
  digest_summary(d, c.median_error);
  digest_summary(d, c.uncovered);
  for (const abp::Summary& s : c.improvement_mean) digest_summary(d, s);
  for (const abp::Summary& s : c.improvement_median) digest_summary(d, s);
}

/// Per-call times of one composed trial, in ms.
struct TrialTimes {
  double trial = 0.0;
  double compute = 0.0;
  std::vector<double> summaries;  ///< mean+median per measurement
  std::array<double, 3> propose{};
  std::array<double, 3> apply{};
  double self() const {
    double children = compute;
    for (const double s : summaries) children += s;
    for (std::size_t a = 0; a < 3; ++a) children += propose[a] + apply[a];
    return trial - children;
  }
};

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// `run_trial` for uniform fields, composed from the same calls, with a
/// span around each call into `loc` and `placement`.
abp::TrialResult traced_trial(const abp::PaperParams& params,
                              std::size_t beacon_count, double noise,
                              std::span<const PlacementAlgorithm* const> algs,
                              std::uint64_t trial_seed, TrialTimes& times) {
  const std::int64_t trial_t0 = now_ns();
  const abp::AABB bounds = params.bounds();
  const abp::Lattice2D lattice = params.lattice();
  const abp::PerBeaconNoiseModel model(
      params.range, noise, abp::derive_seed(trial_seed, kPurposeNoise));
  abp::BeaconField field(bounds, model.max_range());
  abp::Rng field_rng(abp::derive_seed(trial_seed, kPurposeField));
  abp::scatter_uniform(field, beacon_count, field_rng);

  abp::ErrorMap map(lattice);
  std::int64_t t0 = now_ns();
  map.compute(field, model);
  times.compute = ms_since(t0);

  abp::TrialResult result;
  t0 = now_ns();
  result.mean_before = map.mean();
  result.median_before = map.median();
  times.summaries.push_back(ms_since(t0));
  result.uncovered_before = map.uncovered_fraction();

  const abp::SurveyData survey = abp::SurveyData::from_error_map(map);
  const abp::ErrorMap before = map;
  for (std::size_t a = 0; a < algs.size(); ++a) {
    const PlacementAlgorithm& alg = *algs[a];
    abp::PlacementContext ctx =
        abp::PlacementContext::basic(survey, bounds, params.range);
    ctx.field = &field;
    ctx.model = &model;
    ctx.truth = &map;
    abp::Rng alg_rng(abp::derive_seed(trial_seed, kPurposeAlgorithm, a));
    t0 = now_ns();
    const abp::Vec2 proposed = alg.propose(ctx, alg_rng);
    times.propose[a] = ms_since(t0);
    const abp::Vec2 pos = bounds.clamp(proposed);

    const abp::BeaconId id = field.add(pos);
    t0 = now_ns();
    map.apply_addition(field, model, *field.get(id));
    times.apply[a] = ms_since(t0);

    abp::AlgorithmOutcome outcome;
    outcome.name = alg.name();
    outcome.position = pos;
    t0 = now_ns();
    outcome.mean_after = map.mean();
    outcome.median_after = map.median();
    times.summaries.push_back(ms_since(t0));
    result.outcomes.push_back(std::move(outcome));

    field.remove(id);
    map = before;
  }
  times.trial = ms_since(trial_t0);
  return result;
}

bool same_result(const abp::TrialResult& a, const abp::TrialResult& b) {
  if (a.mean_before != b.mean_before || a.median_before != b.median_before ||
      a.uncovered_before != b.uncovered_before ||
      a.outcomes.size() != b.outcomes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const abp::AlgorithmOutcome& x = a.outcomes[i];
    const abp::AlgorithmOutcome& y = b.outcomes[i];
    if (x.name != y.name || !(x.position == y.position) ||
        x.mean_after != y.mean_after || x.median_after != y.median_after) {
      return false;
    }
  }
  return true;
}

/// One untraced pass: every cell through `run_sweep`.
struct PassResult {
  double seconds = 0.0;
  std::size_t trials = 0;
  std::string digest;
};

PassResult sweep_pass(const std::vector<Cell>& cells, std::size_t trials,
                      std::size_t threads, const Algorithms& algs) {
  PassResult pass;
  Digest digest;
  const std::int64_t start = now_ns();
  for (const Cell& cell : cells) {
    const abp::SweepOutcome outcome =
        abp::run_sweep(cell_config(cell, trials, threads), algs.span());
    digest_cell(digest, outcome.cell(0, 0));
    pass.trials += trials;
  }
  pass.seconds = static_cast<double>(now_ns() - start) / 1e9;
  pass.digest = digest.hex();
  return pass;
}

std::vector<Cell> sweep_cells(const Args& args) {
  std::vector<std::size_t> counts = abp::SweepConfig::paper_beacon_counts();
  if (args.tiny) counts = {20, 240};
  std::vector<Cell> cells;
  const std::array<double, 2> noises{0.0, 0.5};
  for (std::size_t ni = 0; ni < noises.size(); ++ni) {
    for (std::size_t ci = 0; ci < counts.size(); ++ci) {
      cells.push_back({counts[ci], noises[ni],
                       abp::derive_seed(args.seed, ni, ci)});
    }
  }
  return cells;
}

}  // namespace

void run_paper_sweep(const Args& args, Result& result) {
  const std::size_t threads =
      std::max<std::size_t>(1, std::min(kSweepThreads, cpu_count()));
  const std::size_t trials = args.tiny ? 1 : kSweepTrials;
  const Algorithms algs;
  const std::vector<Cell> cells = sweep_cells(args);
  const abp::PaperParams params;

  const double stall = host_stall_ms_per_s();

  // Set-up: a one-cell sweep at a fixed seed (a fresh thread pool and one
  // cell), timed before every pass so that one slow stretch of the host
  // does not set the median. Its digest is the stored reference.
  const Cell reference{kReferenceBeacons, kReferenceNoise, kReferenceSeed};
  std::vector<double> setup_s;
  auto time_setup = [&] {
    const std::int64_t t0 = now_ns();
    const abp::SweepOutcome outcome = abp::run_sweep(
        cell_config(reference, 2 * threads, threads), algs.span());
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    Digest d;
    digest_cell(d, outcome.cell(0, 0));
    if (d.hex() != kReferenceDigest) {
      result.fail("reference sweep digest " + d.hex() + " != stored " +
                  kReferenceDigest);
    }
  };

  // Untimed warm-up: one cheap cell.
  abp::run_sweep(cell_config(cells.front(), trials, threads), algs.span());

  const std::int64_t run_start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(
      args.seconds * 1e9 * (args.trace ? 0.45 : 1.0));

  // Untimed-by-tracing passes (the whole run when untraced).
  std::vector<PassResult> passes;
  double cpu_s = 0.0;
  do {
    for (int i = 0; i < kSetupsPerPass; ++i) time_setup();
    const double cpu0 = process_cpu_s();
    passes.push_back(sweep_pass(cells, trials, threads, algs));
    cpu_s += process_cpu_s() - cpu0;
    if (passes.back().digest != passes.front().digest) {
      result.fail("sweep pass " + std::to_string(passes.size()) +
                  " digest differs from pass 1");
    }
  } while (now_ns() - run_start < budget_ns);

  std::vector<double> pass_rates;
  std::size_t trials_run = 0;
  for (const PassResult& pass : passes) {
    pass_rates.push_back(static_cast<double>(pass.trials) / pass.seconds);
    trials_run += pass.trials;
  }
  const double untraced_rate = median(pass_rates);
  std::fprintf(stderr,
               "paper_sweep: %zu passes x %zu cells x %zu trials on %zu "
               "threads, digest %s\n",
               passes.size(), cells.size(), trials, threads,
               passes.front().digest.c_str());
  if (!args.tiny && args.seed == kDigestSeed &&
      passes.front().digest != kSweepDigest) {
    result.fail("sweep digest " + passes.front().digest + " != stored " +
                kSweepDigest);
  }
  result.attempted += trials_run;

  if (!args.trace) {
    result.add("setup_s", median(setup_s), "s");
    result.add("rate_per_s", untraced_rate, "1/s");
    result.add("cpu_us_per_op",
               cpu_s / static_cast<double>(trials_run) * 1e6, "us");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced passes: composed trials, same cells, seeds and threading.
  std::vector<TrialTimes> times;
  std::vector<abp::TrialResult> first_pass;
  std::vector<double> traced_rates;
  const std::int64_t traced_start = now_ns();
  std::size_t pass_no = 0;
  do {
    const std::int64_t pass_t0 = now_ns();
    std::size_t pass_trials = 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Cell& cell = cells[c];
      std::vector<TrialTimes> cell_times(trials);
      std::vector<abp::TrialResult> cell_results(trials);
      abp::ThreadPool pool(threads);
      pool.parallel_for(trials, [&](std::size_t t) {
        const std::uint64_t trial_seed = abp::derive_seed(cell.seed, 0, 0, t);
        cell_results[t] = traced_trial(params, cell.beacons, cell.noise,
                                       algs.span(), trial_seed, cell_times[t]);
      });
      pass_trials += trials;
      times.insert(times.end(), cell_times.begin(), cell_times.end());
      for (std::size_t t = 0; t < trials; ++t) {
        const std::size_t k = c * trials + t;
        if (pass_no == 0) {
          first_pass.push_back(std::move(cell_results[t]));
        } else if (!same_result(cell_results[t], first_pass[k])) {
          result.fail("composed trial differs between passes");
        }
      }
    }
    traced_rates.push_back(static_cast<double>(pass_trials) /
                           (static_cast<double>(now_ns() - pass_t0) / 1e9));
    ++pass_no;
  } while (now_ns() - traced_start < budget_ns);

  // Output check, untimed: every composed trial equals `run_trial`.
  {
    std::vector<char> equal(first_pass.size(), 0);
    abp::ThreadPool pool(threads);
    pool.parallel_for(first_pass.size(), [&](std::size_t k) {
      const Cell& cell = cells[k / trials];
      const std::uint64_t trial_seed =
          abp::derive_seed(cell.seed, 0, 0, k % trials);
      equal[k] = same_result(abp::run_trial(params, cell.beacons, cell.noise,
                                            algs.span(), trial_seed),
                             first_pass[k])
                     ? 1
                     : 0;
    });
    const auto mismatches =
        static_cast<std::size_t>(std::count(equal.begin(), equal.end(), 0));
    if (mismatches != 0) {
      result.fail(std::to_string(mismatches) + " of " +
                  std::to_string(first_pass.size()) +
                  " composed trials differ from run_trial");
    }
  }
  result.attempted += pass_no * cells.size() * trials;

  std::vector<double> trial_ms, self_ms, compute_ms, apply_ms, summary_ms;
  std::array<std::vector<double>, 3> propose_ms;
  double compute_total_ms = 0.0;
  for (const TrialTimes& t : times) {
    trial_ms.push_back(t.trial);
    self_ms.push_back(t.self());
    compute_ms.push_back(t.compute);
    compute_total_ms += t.compute;
    summary_ms.insert(summary_ms.end(), t.summaries.begin(),
                      t.summaries.end());
    for (std::size_t a = 0; a < 3; ++a) {
      propose_ms[a].push_back(t.propose[a]);
      apply_ms.push_back(t.apply[a]);
    }
  }
  const double points = static_cast<double>(params.pt()) *
                        static_cast<double>(times.size());
  result.add("eval.trial_ms", median(trial_ms), "ms");
  result.add("eval.self_ms", median(self_ms), "ms");
  result.add("loc.compute_ms", median(compute_ms), "ms");
  result.add("loc.apply_ms", median(apply_ms), "ms");
  result.add("loc.summary_ms", median(summary_ms), "ms");
  result.add("loc.points_per_s", points / (compute_total_ms / 1e3), "1/s");
  result.add("placement.random_ms", median(propose_ms[0]), "ms");
  result.add("placement.max_ms", median(propose_ms[1]), "ms");
  result.add("placement.grid_ms", median(propose_ms[2]), "ms");
  result.add("bench.host_stall_ms_per_s", stall, "ms/s");
  result.add("bench.trace_overhead", untraced_rate / median(traced_rates) - 1.0,
             "ratio");
}

}  // namespace perfbench
