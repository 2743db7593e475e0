// Shared types of the benchmark: parsed arguments, the calibration, the
// result that becomes the final JSON line, and the workload entry points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Arguments as `run.py` passes them. Generated field files go to the
/// working directory, which `run.py` points inside the checkout's build
/// dir.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Self-test scale: everything tiny, every check on.
  bool tiny = false;
};

// Calibration, fixed once from the seed commit on a 4-vCPU KVM guest.

/// paper_sweep: trials per (noise, count) cell and worker threads (capped
/// at nproc).
inline constexpr std::size_t kSweepTrials = 12;
inline constexpr std::size_t kSweepThreads = 2;
/// Digest of the fixed one-cell reference sweep timed as set-up, checked
/// on every run whatever `--seed` is.
inline constexpr const char* kReferenceDigest = "27a89ed3b5d85b89";
/// Digest of the full sweep at `kDigestSeed`, checked on runs at that seed.
inline constexpr std::uint64_t kDigestSeed = 1;
inline constexpr const char* kSweepDigest = "ef276c6bd527e4d5";

/// node_reads and routed_survey: the open-loop rate (requests/s) at which
/// CPU per op and latencies are measured, well below capacity.
inline constexpr double kNodeNominalRate = 5000.0;
inline constexpr double kRoutedNominalRate = 2000.0;
/// Closed-loop capacity segments: ops per segment and requests kept in
/// flight per connection. A segment takes about 0.9 s at the seed. With 8
/// (routed) or 16 (node) in flight per connection the loop was bound by
/// round trips, not by the program, and segments of one run varied 2x;
/// at these depths they stay within about 10% of their median.
inline constexpr std::size_t kNodeCapacityOps = 180000;
inline constexpr std::size_t kNodeWindow = 64;
inline constexpr std::size_t kRoutedCapacityOps = 20000;
inline constexpr std::size_t kRoutedWindow = 32;

/// The run's outcome; printed as the final stdout line by `print_result`.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// A failed output check: the run is reported incorrect.
  void fail(std::string why);
};

void print_result(const Result& result);

void run_paper_sweep(const Args& args, Result& result);
void run_node_reads(const Args& args, Result& result);
void run_routed_survey(const Args& args, Result& result);
/// Timing decorators pass bytes through unchanged: direct, routed and
/// cached replies are byte-identical with and without tracing.
void run_passthrough_selftest(const Args& args, Result& result);

}  // namespace perfbench
