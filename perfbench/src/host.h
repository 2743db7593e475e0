// Facts about the host a run needs to be judged valid.
#pragma once

#include <cstddef>

namespace perfbench {

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// CPU time (user + system) this process has used so far, in seconds.
double process_cpu_s();

/// CPU time the calling thread has used so far, in seconds.
double thread_cpu_s();

/// Online CPUs (at least 1).
std::size_t cpu_count();

/// Spin one thread for 0.2 s reading the steady clock and return the time
/// lost to gaps longer than 0.2 ms, in ms per second spun; also logged to
/// stderr, so untraced runs record it too. A quiet host reads near 0; a
/// contended VM reads tens.
double host_stall_ms_per_s();

}  // namespace perfbench
