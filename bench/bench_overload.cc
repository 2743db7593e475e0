/// bench_overload — goodput and tail latency of the query service under
/// overload, with and without admission control.
///
/// Method: first calibrate the server's closed-loop capacity (windowed
/// pipelined load, all replies awaited), then drive paced open-loop load at
/// 0.5×, 1× and 2× of that capacity for a fixed measurement window. Each
/// load point runs twice: admission control off (unbounded queue) and on
/// (`--max-queue`). Reported per cell: offered and achieved rate, goodput
/// (ok replies/sec), client-observed p50/p99 latency, and the shed
/// counters.
///
/// The claim this bench demonstrates: without admission control, overload
/// (2× capacity) grows the queue without bound, so every request pays an
/// ever-increasing queueing delay — goodput may look fine but p99 explodes
/// and keeps growing with the window length. With a bounded queue the
/// excess is shed immediately as `overloaded` (cheap, retryable), goodput
/// stays at capacity and p99 stays near the 1× value.
/// A second section sweeps concurrent-connection counts (64/256/1024 by
/// default) over real TCP through the epoll server transport (2 shards).
/// Each cell drives closed-loop windowed pipelining per connection, reports
/// goodput and client latency, and reconciles the admission ledger
/// (`submitted == completed + shed`) plus the transport's open-connection
/// gauge (must be 0 after stop) — the same invariants the chaos suite
/// asserts, here checked at scale. The process fd limit is raised to the
/// hard limit up front; sweep points that still do not fit are skipped
/// with a note, never silently clamped. Each sweep cell also samples the
/// process's open-fd count (`/proc/self/fd`) throughout the run and
/// reports the high-water mark, so the claim "epoll really held N
/// concurrent sockets" is auditable from the numbers (and from the
/// machine-readable dump written by `--json PATH`) instead of taken on
/// faith from the connection count requested.
#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"
#include "field/generators.h"
#include "serve/server.h"
#include "serve/server_transport.h"
#include "serve/tcp_transport.h"
#include "serve/transport.h"

namespace abp::serve {
namespace {

constexpr std::size_t kBeacons = 60;

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

BeaconField make_field() {
  BeaconField field(AABB::square(100.0), 15.0);
  Rng rng(42);
  scatter_uniform(field, kBeacons, rng);
  return field;
}

ServiceConfig bench_config() {
  ServiceConfig config;
  config.lattice_step = 2.0;
  return config;
}

Request localize_request(std::uint64_t seq, std::uint32_t deadline_ms) {
  Request request;
  request.seq = seq;
  request.endpoint = Endpoint::kLocalize;
  const double t = static_cast<double>(seq % 257) / 257.0;
  request.points = {{100.0 * t, 100.0 * (1.0 - t)}};
  request.deadline_ms = deadline_ms;
  return request;
}

struct RunConfig {
  std::size_t workers = 2;
  std::size_t max_batch = 16;
  std::size_t max_queue = 0;  ///< 0 = admission control off
  std::uint32_t deadline_ms = 0;
};

/// Closed-loop calibration: windows of pipelined requests, every reply
/// awaited before the next window. The resulting rate is the service
/// capacity the open-loop cells are scaled against.
double calibrate_capacity_qps(double probe_s, const RunConfig& config) {
  LocalizationService service(bench_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = config.workers;
  options.max_batch = config.max_batch;
  Server server(service, options);
  LoopbackTransport transport(server);

  constexpr std::size_t kWindow = 256;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;
  std::uint64_t seq = 0;
  std::uint64_t done = 0;

  const double start = steady_now_s();
  while (steady_now_s() - start < probe_s) {
    {
      std::lock_guard<std::mutex> lock(mu);
      outstanding = kWindow;
    }
    for (std::size_t i = 0; i < kWindow; ++i) {
      transport.send_async(localize_request(seq++, 0), [&](std::string) {
        std::lock_guard<std::mutex> lock(mu);
        if (--outstanding == 0) cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
    done += kWindow;
  }
  const double elapsed = steady_now_s() - start;
  server.shutdown();
  return static_cast<double>(done) / elapsed;
}

struct CellResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t other = 0;
  double elapsed_s = 0.0;
  Histogram latency_us = Histogram::latency_us();
};

/// One open-loop cell: paced submission at `rate_qps` for `duration_s`,
/// then a full drain so every submission is answered and accounted.
CellResult run_cell(double rate_qps, double duration_s,
                    const RunConfig& config) {
  LocalizationService service(bench_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = config.workers;
  options.max_batch = config.max_batch;
  options.max_queue = config.max_queue;
  Server server(service, options);
  LoopbackTransport transport(server);

  CellResult result;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;

  const double interval_s = 1.0 / rate_qps;
  const double start = steady_now_s();
  double next_send = start;
  std::uint64_t seq = 0;
  while (steady_now_s() - start < duration_s) {
    const double now = steady_now_s();
    if (now < next_send) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(next_send - now));
      continue;
    }
    next_send += interval_s;
    const double sent_at = steady_now_s();
    {
      std::lock_guard<std::mutex> lock(mu);
      ++outstanding;
    }
    ++result.sent;
    transport.send_async(
        localize_request(seq++, config.deadline_ms),
        [&result, &mu, &cv, &outstanding, sent_at](std::string frame) {
          const double latency_us = (steady_now_s() - sent_at) * 1e6;
          // The async reply arrives as an encoded frame; unwrap it.
          FrameDecoder decoder;
          decoder.feed(frame);
          const std::optional<std::string> payload = decoder.next();
          const std::optional<Response> response =
              payload ? parse_response(*payload) : std::nullopt;
          std::lock_guard<std::mutex> lock(mu);
          result.latency_us.add(latency_us);
          if (!response) {
            ++result.other;
          } else if (response->status == Status::kOk) {
            ++result.ok;
          } else if (response->status == Status::kOverloaded) {
            ++result.overloaded;
          } else if (response->status == Status::kDeadlineExceeded) {
            ++result.deadline_exceeded;
          } else {
            ++result.other;
          }
          if (--outstanding == 0) cv.notify_one();
        });
  }
  {
    // Drain: every in-flight submission is answered before the clock stops,
    // so goodput includes the queue built up during the window.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  result.elapsed_s = steady_now_s() - start;
  server.shutdown();
  return result;
}

// ---- connection-scaling sweep ------------------------------------------

/// Raise RLIMIT_NOFILE to the hard limit; returns the resulting soft limit.
std::size_t raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
    ::getrlimit(RLIMIT_NOFILE, &lim);
  }
  return static_cast<std::size_t>(lim.rlim_cur);
}

/// Number of open file descriptors right now, counted from /proc/self/fd.
/// (The directory handle itself is open during the count; subtract it.)
std::size_t count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (!dir) return 0;
  std::size_t count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count > 0 ? count - 1 : 0;
}

/// Samples the process fd count on a background thread for the lifetime of
/// the object and keeps the high-water mark. A sampled (not event-driven)
/// maximum can only *under*-report, so a high-water ≥ the connection count
/// is honest evidence the sockets were really concurrently open.
class FdHighWaterSampler {
 public:
  FdHighWaterSampler()
      : high_water_(count_open_fds()), sampler_([this] {
          while (!stop_.load(std::memory_order_acquire)) {
            const std::size_t now = count_open_fds();
            std::size_t seen = high_water_.load(std::memory_order_relaxed);
            while (now > seen &&
                   !high_water_.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }) {}

  ~FdHighWaterSampler() {
    if (sampler_.joinable()) stop_and_join();
  }

  /// Final high-water mark; stops sampling.
  std::size_t finish() {
    stop_and_join();
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  void stop_and_join() {
    stop_.store(true, std::memory_order_release);
    sampler_.join();
  }

  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> high_water_;
  std::thread sampler_;
};

std::vector<std::size_t> parse_conn_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    out.push_back(static_cast<std::size_t>(std::stoul(item)));
  }
  return out;
}

struct ScaleResult {
  std::uint64_t ok = 0;
  std::uint64_t non_ok = 0;
  std::uint64_t dead_conns = 0;
  double elapsed_s = 0.0;
  Histogram latency_us = Histogram::latency_us();
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  bool reconciled = false;
  std::size_t open_after_stop = 0;
  std::size_t fd_high_water = 0;  ///< process-wide open-fd peak for the cell
};

struct WorkerStats {
  std::uint64_t ok = 0;
  std::uint64_t non_ok = 0;
  std::uint64_t dead_conns = 0;
  Histogram latency_us = Histogram::latency_us();
};

/// Start barrier: the measurement window opens only after every client
/// thread has finished connecting, so the 1024-connection storm is not
/// billed against goodput.
struct StartGate {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t ready = 0;
  bool go = false;
};

/// One client thread: owns `conns` pipelined connections and round-robins
/// windows of 4 requests over them (closed loop: every window is flushed
/// before the connection's next one). A connection whose flush fails is
/// marked dead and skipped from then on.
void scale_client_worker(std::uint16_t port, std::size_t conns,
                         double duration_s, StartGate& gate,
                         WorkerStats& stats) {
  constexpr std::size_t kConnWindow = 4;
  std::vector<std::unique_ptr<TcpClientTransport>> clients;
  clients.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    try {
      clients.push_back(
          std::make_unique<TcpClientTransport>("127.0.0.1", port, 5.0));
    } catch (const ServeError&) {
      ++stats.dead_conns;
    }
  }
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    ++gate.ready;
    gate.cv.notify_all();
    gate.cv.wait(lock, [&gate] { return gate.go; });
  }
  std::vector<bool> dead(clients.size(), false);
  std::size_t alive = clients.size();
  std::uint64_t seq = 0;
  const double start = steady_now_s();
  // Each round puts a window in flight on EVERY owned connection before
  // collecting any replies, so total concurrency scales with the
  // connection count — the point of the sweep — instead of being fixed at
  // one window per client thread.
  while (alive > 0 && steady_now_s() - start < duration_s) {
    for (std::size_t c = 0; c < clients.size(); ++c) {
      if (dead[c]) continue;
      try {
        for (std::size_t k = 0; k < kConnWindow; ++k) {
          const double sent_at = steady_now_s();
          clients[c]->send_async(
              localize_request(seq++, 0), [&stats, sent_at](std::string frame) {
                stats.latency_us.add((steady_now_s() - sent_at) * 1e6);
                FrameDecoder decoder;
                decoder.feed(frame);
                const std::optional<std::string> payload = decoder.next();
                const std::optional<Response> response =
                    payload ? parse_response(*payload) : std::nullopt;
                if (response && response->status == Status::kOk) {
                  ++stats.ok;
                } else {
                  ++stats.non_ok;
                }
              });
        }
      } catch (const ServeError&) {
        dead[c] = true;
        ++stats.dead_conns;
        --alive;
      }
    }
    for (std::size_t c = 0; c < clients.size(); ++c) {
      if (dead[c]) continue;
      try {
        clients[c]->flush();
      } catch (const ServeError&) {
        dead[c] = true;
        ++stats.dead_conns;
        --alive;
      }
    }
  }
}

ScaleResult run_conn_scaling(std::size_t conns, double duration_s,
                             const RunConfig& config) {
  LocalizationService service(bench_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = config.workers;
  options.max_batch = config.max_batch;
  Server server(service, options);
  TransportOptions transport_options;
  transport_options.read_timeout_s = 10.0;
  transport_options.write_timeout_s = 10.0;
  transport_options.event_shards = 2;
  const std::unique_ptr<ServerTransport> transport = make_server_transport(
      TransportKind::kEpoll, server, transport_options);
  transport->start();
  FdHighWaterSampler fd_sampler;

  const std::size_t threads_n = std::min<std::size_t>(8, conns);
  StartGate gate;
  std::vector<WorkerStats> stats(threads_n);
  std::vector<std::thread> threads;
  threads.reserve(threads_n);
  for (std::size_t t = 0; t < threads_n; ++t) {
    const std::size_t share =
        conns / threads_n + (t < conns % threads_n ? 1 : 0);
    threads.emplace_back([port = transport->port(), share, duration_s, &gate,
                          &stat = stats[t]] {
      scale_client_worker(port, share, duration_s, gate, stat);
    });
  }
  double start = 0.0;
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.cv.wait(lock, [&gate, threads_n] { return gate.ready == threads_n; });
    start = steady_now_s();
    gate.go = true;
    gate.cv.notify_all();
  }
  for (std::thread& thread : threads) thread.join();

  ScaleResult result;
  result.elapsed_s = steady_now_s() - start;
  // Read the peak before teardown closes the sockets.
  result.fd_high_water = fd_sampler.finish();
  transport->stop();
  server.shutdown();
  for (const WorkerStats& s : stats) {
    result.ok += s.ok;
    result.non_ok += s.non_ok;
    result.dead_conns += s.dead_conns;
    result.latency_us.merge(s.latency_us);
  }
  const ServiceMetrics& metrics = service.metrics();
  result.submitted = metrics.submitted();
  result.completed = metrics.completed();
  result.shed = metrics.shed_total();
  result.reconciled = result.submitted == result.completed + result.shed;
  result.open_after_stop = transport->open_connections();
  return result;
}

}  // namespace
}  // namespace abp::serve

int main(int argc, char** argv) {
  using namespace abp::serve;
  const abp::Flags flags(argc, argv);
  RunConfig config;
  config.workers = static_cast<std::size_t>(flags.get_int("workers", 2));
  config.max_batch = static_cast<std::size_t>(flags.get_int("batch", 16));
  // Generous relative to max_batch: sleep-based pacing is bursty, and a
  // queue bound close to the batch size would shed on pacing jitter alone.
  config.max_queue = static_cast<std::size_t>(flags.get_int("max-queue", 256));
  config.deadline_ms =
      static_cast<std::uint32_t>(flags.get_int("deadline-ms", 0));
  const double probe_s = flags.get_double("probe-s", 1.0);
  const double load_s = flags.get_double("load-s", 2.0);
  const std::string sweep_conns_flag =
      flags.get_string("sweep-conns", "64,256,1024");
  const double sweep_s = flags.get_double("sweep-s", 2.0);
  const std::string json_path = flags.get_string("json", "");
  flags.check_unused();

  std::cout << "=== Overload: goodput and tail latency vs admission control"
            << " ===\n"
            << "workers=" << config.workers << " batch=" << config.max_batch
            << " max-queue=" << config.max_queue
            << " deadline-ms=" << config.deadline_ms
            << " probe-s=" << probe_s << " load-s=" << load_s << "\n\n";

  const double capacity = calibrate_capacity_qps(probe_s, config);
  std::cout << "calibrated capacity: " << static_cast<std::uint64_t>(capacity)
            << " q/s (closed loop)\n\n";

  abp::TextTable table({"load", "admission", "offered q/s", "goodput q/s",
                        "p50 ms", "p99 ms", "overloaded", "deadline"});
  for (const double mult : {0.5, 1.0, 2.0}) {
    for (const bool admission : {false, true}) {
      RunConfig cell_config = config;
      if (!admission) cell_config.max_queue = 0;
      const double rate = mult * capacity;
      const CellResult r = run_cell(rate, load_s, cell_config);
      table.add_row(
          {abp::TextTable::fmt(mult, 1) + "x", admission ? "on" : "off",
           std::to_string(static_cast<std::uint64_t>(rate)),
           std::to_string(static_cast<std::uint64_t>(
               static_cast<double>(r.ok) / r.elapsed_s)),
           abp::TextTable::fmt(r.latency_us.p50() / 1e3, 2),
           abp::TextTable::fmt(r.latency_us.p99() / 1e3, 2),
           std::to_string(r.overloaded),
           std::to_string(r.deadline_exceeded)});
    }
  }
  table.print(std::cout);
  std::cout << "\nReading: at 2x load the unbounded queue converts overload"
               " into unbounded queueing delay (p99 grows with the window);"
               " with admission control the excess is shed as retryable"
               " `overloaded` and p99 stays near the 1x value.\n";

  const std::vector<std::size_t> sweep = parse_conn_list(sweep_conns_flag);
  if (sweep.empty()) return 0;

  const std::size_t fd_limit = raise_fd_limit();
  std::cout << "\n=== Connection scaling: epoll over TCP ===\n"
            << "fd limit " << fd_limit << ", per-conn window 4, workers "
            << config.workers << ", batch " << config.max_batch
            << ", sweep-s " << sweep_s << "\n\n";

  bool healthy = true;
  abp::TextTable scale_table({"conns", "goodput q/s", "p50 ms", "p99 ms",
                              "dead", "fd hw", "submitted", "completed",
                              "shed", "reconciled"});
  struct SweepRow {
    std::size_t conns;
    double goodput;
    double p50_ms;
    double p99_ms;
    ScaleResult result;
  };
  std::vector<SweepRow> sweep_rows;
  for (const std::size_t conns : sweep) {
    // Server+client fds live in this one process: ~2 per connection plus
    // listener/epoll/eventfd overhead.
    if (conns * 2 + 64 > fd_limit) {
      std::cout << "note: skipping " << conns << " connections (needs ~"
                << conns * 2 + 64 << " fds, limit " << fd_limit << ")\n";
      continue;
    }
    const ScaleResult r = run_conn_scaling(conns, sweep_s, config);
    const double goodput = static_cast<double>(r.ok) / r.elapsed_s;
    scale_table.add_row(
        {std::to_string(conns),
         std::to_string(static_cast<std::uint64_t>(goodput)),
         abp::TextTable::fmt(r.latency_us.p50() / 1e3, 2),
         abp::TextTable::fmt(r.latency_us.p99() / 1e3, 2),
         std::to_string(r.dead_conns), std::to_string(r.fd_high_water),
         std::to_string(r.submitted), std::to_string(r.completed),
         std::to_string(r.shed), r.reconciled ? "yes" : "NO"});
    sweep_rows.push_back({conns, goodput, r.latency_us.p50() / 1e3,
                          r.latency_us.p99() / 1e3, r});
    if (!r.reconciled) {
      healthy = false;
      std::cout << "RECONCILIATION FAILURE @ " << conns << ": submitted "
                << r.submitted << " != completed " << r.completed
                << " + shed " << r.shed << "\n";
    }
    if (r.open_after_stop != 0) {
      healthy = false;
      std::cout << "LEAK @ " << conns << ": still reports "
                << r.open_after_stop << " open connections after stop()\n";
    }
  }
  scale_table.print(std::cout);
  if (!json_path.empty()) {
    // Machine-readable sweep dump: one object per cell, fd high-water
    // included so "epoll held N concurrent sockets" is checkable by a
    // script (fd_high_water must be >= conns for an honest cell).
    std::ofstream json(json_path);
    json << "[\n";
    for (std::size_t i = 0; i < sweep_rows.size(); ++i) {
      const SweepRow& row = sweep_rows[i];
      const ScaleResult& r = row.result;
      json << "  {\"transport\": \"epoll\", \"conns\": " << row.conns
           << ", \"goodput_qps\": " << static_cast<std::uint64_t>(row.goodput)
           << ", \"p50_ms\": " << row.p50_ms << ", \"p99_ms\": " << row.p99_ms
           << ", \"dead_conns\": " << r.dead_conns
           << ", \"fd_high_water\": " << r.fd_high_water
           << ", \"submitted\": " << r.submitted
           << ", \"completed\": " << r.completed << ", \"shed\": " << r.shed
           << ", \"reconciled\": " << (r.reconciled ? "true" : "false")
           << ", \"open_after_stop\": " << r.open_after_stop << "}"
           << (i + 1 < sweep_rows.size() ? "," : "") << "\n";
    }
    json << "]\n";
    std::cout << "\nwrote sweep JSON to " << json_path << "\n";
  }
  std::cout << "\nReading: the event loop multiplexes every socket onto its"
               " shard threads, so goodput holds as connections grow and the"
               " concurrent-connection ceiling is the fd limit, not a thread"
               " count.\n";
  return healthy ? 0 : 1;
}
