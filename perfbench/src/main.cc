// Benchmark binary: runs one workload and prints one JSON result line.
//
//   perfbench --workload paper_sweep|node_reads|routed_survey|selftest
//             --seed N --seconds S --trace 0|1 [--tiny 1]
//
// `perfbench/run.py` builds this binary, runs it in a scratch directory
// inside the build dir and checks the line against BENCHMARK.json.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "common/flags.h"

namespace perfbench {

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::fail(std::string why) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  correct = false;
}

void print_result(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              result.correct ? "true" : "false", result.attempted,
              result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Result::Metric& m = result.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

Args parse_args(int argc, char** argv) {
  const abp::Flags flags(argc, argv);
  Args a;
  a.workload = flags.get_string("workload", "");
  a.seed = flags.get_u64("seed", 1);
  a.seconds = flags.get_double("seconds", 20.0);
  a.trace = flags.get_int("trace", 0) != 0;
  a.tiny = flags.get_bool("tiny", false);
  flags.check_unused();
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    Result result;
    if (args.workload == "paper_sweep") {
      run_paper_sweep(args, result);
    } else if (args.workload == "node_reads") {
      run_node_reads(args, result);
    } else if (args.workload == "routed_survey") {
      run_routed_survey(args, result);
    } else if (args.workload == "selftest") {
      run_passthrough_selftest(args, result);
    } else {
      std::fprintf(stderr, "unknown --workload '%s'\n", args.workload.c_str());
      return 2;
    }
    if (!args.trace) {
      result.add("ok_ratio",
                 result.attempted == 0
                     ? 0.0
                     : static_cast<double>(result.attempted - result.failed) /
                           static_cast<double>(result.attempted),
                 "ratio");
    }
    print_result(result);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
