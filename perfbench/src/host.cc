#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>

#include "stats.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

double clock_s(clockid_t clock) {
  timespec t{};
  ::clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::size_t cpu_count() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

double host_stall_ms_per_s() {
  constexpr std::int64_t kGapNs = 200'000;
  constexpr std::int64_t kSpinNs = 200'000'000;
  const std::int64_t start = now_ns();
  const std::int64_t end = start + kSpinNs;
  std::int64_t last = start;
  std::int64_t stalled = 0;
  for (;;) {
    const std::int64_t t = now_ns();
    if (t - last > kGapNs) stalled += t - last;
    last = t;
    if (t >= end) break;
  }
  const double ms_per_s = static_cast<double>(stalled) / 1e6 /
                          (static_cast<double>(last - start) / 1e9);
  std::fprintf(stderr, "host stall %.1f ms/s\n", ms_per_s);
  return ms_per_s;
}

}  // namespace perfbench
