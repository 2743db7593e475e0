/// bench_cluster — routed serving: goodput/p99 vs backend count, the
/// kill-one-backend recovery curve, and the write path under load.
///
/// Method: N in-process backends (threaded `Server`s behind loopback
/// transports) sit behind the cluster router exactly as over TCP — same
/// ring, pool, replicator, and wire codec; only the byte pipe is
/// in-process. `--deployments` fields are registered and synced so the
/// ring actually spreads load. Four sections:
///
///  1. Scaling sweep: closed-loop windowed load through the router for
///     each backend count in `--sweep-backends`; reports goodput,
///     client-observed p50/p99, and the shed/error count. The claim:
///     goodput grows with backends because deployments shard across them,
///     while the router adds one queue hop of latency.
///
///  2. Recovery curve: 3 backends, replication 2, continuous windowed
///     load; mid-run the backend owning the most deployments is killed
///     (its transport throws, like a crashed peer). Completions are
///     bucketed over time, showing the dip while the breaker trips and
///     failover warms, then the recovery to a 2-backend plateau. The
///     router's invariant — every submission answered exactly once, with
///     failures surfacing as retryable statuses, never silence — is
///     asserted at the end.
///
///  3. Write-heavy mix: 1-in-`--write-every` requests are `add-beacon`
///     writes riding the replicated mutation log (append, quorum fan-out,
///     ack); the rest are localize reads fenced at the last acked version.
///     Reports mixed goodput/p99 plus the write ledger (submitted, acked,
///     quorum failures).
///
///  4. Replay-recovery curve: same mix; mid-run one backend dies, later it
///     revives. While dead, its deployments' writes still ack (quorum on
///     the survivors); on revival the heartbeat probe closes the breaker
///     and the replicator replays the missed log suffix instead of
///     re-shipping snapshots. The curve shows the dip and the catch-up;
///     the victim's install/replay counters prove the replay path ran.
///
///  5. Autoscale curve: 2 backends under a steady zipfian read + write
///     mix; mid-run a third backend is added through the membership admin
///     plane (snapshot handoff, fenced epoch flip) and later drained back
///     out. Goodput per bucket shows the cost of each transition; the
///     section asserts zero non-retryable client failures, the expected
///     epoch count, and post-transition byte-identity against the log.
///
///  6. Multi-tenant zipfian reads: a noisy tenant (principal 1) floods a
///     zipf-popular hot-key set while an innocent tenant (principal 2)
///     sends a steady trickle of the same distribution, under three
///     configs — cache on, cache off, and cache+quota. The router clock is
///     injected and advanced by the driver, so quota admission is
///     deterministic: with quotas on the noisy tenant sheds against its
///     own bucket while the innocent tenant's p99 is measured clean.
///     Reports per-tenant p50/p99/sheds and the cache hit rate.
///
///  7. Retry storm: `--storm-clients` retrying clients each push
///     `--storm-writes` add-beacons through a seeded duplicate/reset fault
///     schedule (`make_retry_storm_script`) between client and router, with
///     request-id dedup on vs off. Reports the delivery amplification, the
///     duplicate-suppression rate, and per-logical-write p99. The claim:
///     with dedup on, however many times the storm re-delivers a write, at
///     most one append lands per logical write; with dedup off every
///     re-delivery appends a phantom beacon.
///
/// `--json PATH` writes every section machine-readable for CI trending.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/backend_pool.h"
#include "cluster/membership.h"
#include "cluster/replicator.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"
#include "field/generators.h"
#include "io/field_io.h"
#include "rng/rng.h"
#include "serve/client.h"
#include "serve/fault_transport.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"

namespace abp::cluster {
namespace {

constexpr std::size_t kBeacons = 40;

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

BeaconField make_field(std::uint64_t seed) {
  BeaconField field(AABB::square(100.0), 15.0);
  Rng rng(seed);
  scatter_uniform(field, kBeacons, rng);
  return field;
}

serve::ServiceConfig bench_config() {
  serve::ServiceConfig config;
  config.lattice_step = 2.0;
  return config;
}

/// A backend that can be killed mid-run: the wrapped loopback starts
/// throwing like a crashed TCP peer the moment `dead` flips. It throws only
/// once the requests already handed to the server are answered: the pool
/// drops a transport that throws, and a reply landing after that would run
/// a callback into a batch and a transport that no longer exist.
class KillableTransport final : public serve::ClientTransport {
 public:
  KillableTransport(serve::Server& server, std::atomic<bool>& dead)
      : inner_(server), dead_(&dead) {}

  serve::Response roundtrip(const serve::Request& request) override {
    check_alive();
    return inner_.roundtrip(request);
  }

  void send_async(const serve::Request& request,
                  std::function<void(std::string)> on_reply) override {
    check_alive();
    inner_.send_async(request, std::move(on_reply));
  }

  void flush() override {
    check_alive();
    inner_.flush();
  }

  std::string name() const override { return "killable-loopback"; }

 private:
  void check_alive() {
    if (dead_->load(std::memory_order_acquire)) {
      inner_.flush();
      throw serve::ServeError("backend killed");
    }
  }

  serve::LoopbackTransport inner_;
  std::atomic<bool>* dead_;
};

struct SimBackend {
  std::unique_ptr<serve::LocalizationService> service;
  std::unique_ptr<serve::Server> server;
  std::atomic<bool> dead{false};
};

/// A full in-process cluster: N threaded backends behind the router.
struct SimCluster {
  SimCluster(std::size_t backends, std::size_t replication,
             std::size_t deployments, std::size_t workers,
             std::size_t max_batch, double probe_interval_ms = 1000.0,
             std::size_t log_retain = MutationLog::kDefaultRetain,
             RouterOptions router_options = {})
      : workers_(workers), max_batch_(max_batch) {
    for (std::size_t i = 0; i < backends; ++i) {
      names.push_back("b" + std::to_string(i));
    }
    for (const std::string& name : names) add_sim(name);
    membership = std::make_unique<MembershipTable>(names);
    BackendPoolOptions pool_options;
    pool_options.probe_interval_ms = probe_interval_ms;
    pool = std::make_unique<BackendPool>(
        names, pool_options, metrics, [this](const std::string& name) {
          SimBackend& backend = sims.at(name);
          return std::make_unique<KillableTransport>(*backend.server,
                                                     backend.dead);
        });
    replicator = std::make_unique<Replicator>(*pool, *membership, replication,
                                              metrics, log_retain);
    pool->set_recovery_callback([this](const std::string& backend) {
      replicator->sync_backend(backend);
    });
    router = std::make_unique<Router>(*membership, *pool, *replicator,
                                      metrics, router_options);
    pool->start();
    for (std::size_t d = 0; d < deployments; ++d) {
      std::ostringstream text;
      write_field(text, make_field(1000 + d));
      replicator->set_deployment("f" + std::to_string(d), text.str());
    }
    replicator->sync_all();
  }

  ~SimCluster() { pool->stop(); }

  /// Spin up a backend sim so the pool's transport factory can reach it —
  /// must precede `admin("add", name)`.
  SimBackend& add_sim(const std::string& name) {
    auto& backend = sims[name];
    backend.service =
        std::make_unique<serve::LocalizationService>(bench_config());
    serve::Server::Options options;
    options.workers = workers_;
    options.max_batch = max_batch_;
    backend.server =
        std::make_unique<serve::Server>(*backend.service, options);
    return backend;
  }

  /// Drive the membership admin plane over the wire (same payload shape as
  /// `abp route-admin`); blocks until the transition completes.
  serve::Response admin(const std::string& verb,
                        const std::string& backend = "") {
    serve::Request request;
    request.endpoint = serve::Endpoint::kAdmin;
    request.algorithm = verb;
    if (!backend.empty()) request.text = backend + "\n";
    auto done = std::make_shared<std::promise<std::string>>();
    auto future = done->get_future();
    router->submit(serve::format_request(request),
                   [done](std::string payload) {
                     done->set_value(std::move(payload));
                   });
    const auto response = serve::parse_response(future.get());
    return response ? *response : serve::Response{};
  }

  /// Wait, up to 2 s, until nothing is queued or in flight: every pool
  /// FIFO idle between batches and every backend server drained. The
  /// backends' admission ledgers are final only then; a heartbeat probe or
  /// a recovery replay still executing leaves `submitted` ahead.
  void quiesce() {
    const double deadline = steady_now_s() + 2.0;
    while (steady_now_s() < deadline) {
      bool idle = true;
      for (const auto& [name, sim] : sims) {
        if (!pool->queue_idle(name) || sim.server->queue_depth() != 0 ||
            sim.server->in_flight() != 0) {
          idle = false;
          break;
        }
      }
      if (idle) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// The backend owning the most deployments — the worst-case victim for
  /// the kill experiment.
  std::string busiest_backend() const {
    std::map<std::string, std::size_t> owned;
    for (const std::string& name : replicator->names()) {
      for (const std::string& owner : replicator->owners(name)) {
        ++owned[owner];
      }
    }
    std::string busiest = names.front();
    for (const auto& [name, count] : owned) {
      if (count > owned[busiest]) busiest = name;
    }
    return busiest;
  }

  std::vector<std::string> names;
  std::unique_ptr<MembershipTable> membership;
  serve::RouterMetrics metrics;
  std::map<std::string, SimBackend> sims;
  std::unique_ptr<BackendPool> pool;
  std::unique_ptr<Replicator> replicator;
  std::unique_ptr<Router> router;

 private:
  std::size_t workers_;
  std::size_t max_batch_;
};

serve::Request localize_request(std::uint64_t seq, std::size_t deployments) {
  serve::Request request;
  request.seq = seq;
  request.endpoint = serve::Endpoint::kLocalize;
  request.field = "f" + std::to_string(seq % deployments);
  const double t = static_cast<double>(seq % 257) / 257.0;
  request.points = {{100.0 * t, 100.0 * (1.0 - t)}};
  return request;
}

serve::Request add_beacon_request(std::uint64_t seq, std::size_t deployments) {
  serve::Request request;
  request.seq = seq;
  request.endpoint = serve::Endpoint::kAddBeacon;
  request.field = "f" + std::to_string(seq % deployments);
  const double t = static_cast<double>(seq % 127) / 127.0;
  request.points = {{100.0 * t, 100.0 * t}};
  return request;
}

/// 1-in-`write_every` requests is a quorum-acked write, the rest reads.
serve::Request mixed_request(std::uint64_t seq, std::size_t deployments,
                             std::size_t write_every) {
  return seq % write_every == 0 ? add_beacon_request(seq, deployments)
                                : localize_request(seq, deployments);
}

struct LoadResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t non_ok = 0;
  /// Of `non_ok`, replies whose status was terminal (not retryable) — the
  /// autoscale section requires this to stay zero through transitions.
  std::uint64_t non_retryable = 0;
  double elapsed_s = 0.0;
  Histogram latency_us = Histogram::latency_us();
  std::vector<std::uint64_t> ok_buckets;  ///< completions per bucket_s bin
};

/// Closed-loop windowed load through the router. `on_window` runs between
/// windows (the kill/revive hook); `bucket_s` > 0 additionally bins
/// completions over time for the recovery curves. `make_request` shapes
/// the workload (read-only by default, mixed for the write sections).
LoadResult drive_load(
    SimCluster& cluster, std::size_t deployments, double duration_s,
    std::size_t window, double bucket_s = 0.0,
    const std::function<void(double)>& on_window = {},
    const std::function<serve::Request(std::uint64_t)>& make_request = {}) {
  LoadResult result;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0;
  std::uint64_t seq = 0;

  const double start = steady_now_s();
  while (steady_now_s() - start < duration_s) {
    if (on_window) on_window(steady_now_s() - start);
    {
      std::lock_guard<std::mutex> lock(mu);
      outstanding = window;
    }
    for (std::size_t i = 0; i < window; ++i) {
      const double sent_at = steady_now_s();
      ++result.sent;
      const serve::Request request =
          make_request ? make_request(seq++)
                       : localize_request(seq++, deployments);
      cluster.router->submit(
          serve::format_request(request),
          [&, sent_at](std::string payload) {
            const double now = steady_now_s();
            const auto response = serve::parse_response(payload);
            const bool ok =
                response && response->status == serve::Status::kOk;
            std::lock_guard<std::mutex> lock(mu);
            result.latency_us.add((now - sent_at) * 1e6);
            if (ok) {
              ++result.ok;
              if (bucket_s > 0.0) {
                const auto bucket =
                    static_cast<std::size_t>((now - start) / bucket_s);
                if (result.ok_buckets.size() <= bucket) {
                  result.ok_buckets.resize(bucket + 1, 0);
                }
                ++result.ok_buckets[bucket];
              }
            } else {
              ++result.non_ok;
              if (!response || !serve::status_retryable(response->status)) {
                ++result.non_retryable;
              }
            }
            if (--outstanding == 0) cv.notify_one();
          });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  result.elapsed_s = steady_now_s() - start;
  return result;
}

std::vector<std::size_t> parse_count_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) {
      out.push_back(static_cast<std::size_t>(std::stoul(item)));
    }
  }
  return out;
}

}  // namespace
}  // namespace abp::cluster

int main(int argc, char** argv) {
  using namespace abp::cluster;
  const abp::Flags flags(argc, argv);
  const std::vector<std::size_t> sweep =
      parse_count_list(flags.get_string("sweep-backends", "1,2,4"));
  const auto replication =
      static_cast<std::size_t>(flags.get_int("replication", 2));
  const auto deployments =
      static_cast<std::size_t>(flags.get_int("deployments", 8));
  const auto workers = static_cast<std::size_t>(flags.get_int("workers", 2));
  const auto max_batch = static_cast<std::size_t>(flags.get_int("batch", 16));
  const auto window = static_cast<std::size_t>(flags.get_int("window", 64));
  const double sweep_s = flags.get_double("sweep-s", 1.0);
  const double recover_s = flags.get_double("recover-s", 2.0);
  const double autoscale_s = flags.get_double("autoscale-s", 3.0);
  const double bucket_ms = flags.get_double("bucket-ms", 100.0);
  const auto write_every =
      static_cast<std::size_t>(flags.get_int("write-every", 10));
  const double probe_ms = flags.get_double("probe-ms", 100.0);
  const auto log_retain =
      static_cast<std::size_t>(flags.get_int("log-retain", 8192));
  const auto storm_clients =
      static_cast<std::size_t>(flags.get_int("storm-clients", 4));
  const auto storm_writes =
      static_cast<std::size_t>(flags.get_int("storm-writes", 48));
  const auto tenant_steps =
      static_cast<std::size_t>(flags.get_int("tenant-steps", 60));
  const double zipf_s = flags.get_double("zipf-s", 1.1);
  const std::string json_path = flags.get_string("json", "");
  flags.check_unused();

  bool healthy = true;
  std::ostringstream json;
  json << "{\n"
       << "  \"_comment\": \"bench_cluster: in-process routed cluster"
          " (loopback transports, real ring/pool/replicator/codec)."
          " scaling = goodput sweep over backend counts; read_recovery ="
          " ok-per-bucket curve around a backend kill; write_mix = 1-in-"
       << write_every
       << " add-beacon through the replicated mutation log; replay_recovery"
          " = write mix with kill+revive, victim catches up by log replay;"
          " autoscale = membership add then drain mid-run under zipf load;"
          " retry_storm = seeded duplicate/reset schedule between client and"
          " router, request-id dedup on vs off (storm-clients="
       << storm_clients << " storm-writes=" << storm_writes
       << " per client); multi_tenant = zipf(s=" << zipf_s
       << ") two-tenant reads on a driver-owned router clock, cache on/off"
          " and per-principal quotas (noisy vs innocent p99). replication="
       << replication << " deployments=" << deployments << " workers="
       << workers << " window=" << window << " log-retain=" << log_retain
       << " probe-ms=" << probe_ms << "\",\n";

  std::cout << "=== Cluster routing: goodput vs backend count ===\n"
            << "replication=" << replication << " deployments=" << deployments
            << " workers/backend=" << workers << " window=" << window
            << " sweep-s=" << sweep_s << "\n\n";

  abp::TextTable table({"backends", "goodput q/s", "p50 ms", "p99 ms",
                        "non-ok", "forwarded"});
  json << "  \"scaling\": [\n";
  for (std::size_t s = 0; s < sweep.size(); ++s) {
    const std::size_t backends = sweep[s];
    SimCluster cluster(backends, std::min(replication, backends), deployments,
                       workers, max_batch);
    const LoadResult r = drive_load(cluster, deployments, sweep_s, window);
    const auto goodput = static_cast<std::uint64_t>(
        static_cast<double>(r.ok) / r.elapsed_s);
    table.add_row({std::to_string(backends), std::to_string(goodput),
                   abp::TextTable::fmt(r.latency_us.p50() / 1e3, 2),
                   abp::TextTable::fmt(r.latency_us.p99() / 1e3, 2),
                   std::to_string(r.non_ok),
                   std::to_string(cluster.metrics.counts().forwarded)});
    json << "    {\"backends\": " << backends
         << ", \"goodput_qps\": " << goodput
         << ", \"p50_ms\": " << r.latency_us.p50() / 1e3
         << ", \"p99_ms\": " << r.latency_us.p99() / 1e3
         << ", \"non_ok\": " << r.non_ok << "}"
         << (s + 1 < sweep.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  table.print(std::cout);
  std::cout << "\nReading: deployments shard across backends, so routed"
               " goodput scales with the backend count until the router's"
               " forwarding loop saturates.\n";

  // Exactly-once accounting shared by every load section: every submission
  // came back, and the backends' ledgers reconcile.
  const auto check_load = [&healthy](SimCluster& cluster, const LoadResult& r,
                                     const char* context) {
    if (r.sent != r.ok + r.non_ok) {
      healthy = false;
      std::cout << "LOST REPLIES (" << context << "): sent " << r.sent
                << " != ok " << r.ok << " + non-ok " << r.non_ok << "\n";
    }
    cluster.quiesce();
    for (const auto& [name, sim] : cluster.sims) {
      const abp::serve::ServiceMetrics& m = sim.service->metrics();
      if (m.submitted() != m.completed() + m.shed_total()) {
        healthy = false;
        std::cout << "RECONCILIATION FAILURE (" << context << "): backend "
                  << name << ": submitted " << m.submitted()
                  << " != completed " << m.completed() << " + shed "
                  << m.shed_total() << "\n";
      }
    }
  };

  const auto print_curve = [&bucket_ms](const LoadResult& r, double kill_at_s,
                                        double revive_at_s) {
    abp::TextTable curve({"t ms", "ok/bucket"});
    for (std::size_t i = 0; i < r.ok_buckets.size(); ++i) {
      const double t_ms = static_cast<double>(i) * bucket_ms;
      std::string mark;
      if (t_ms <= kill_at_s * 1e3 && kill_at_s * 1e3 < t_ms + bucket_ms) {
        mark = " <- kill";
      }
      if (revive_at_s > 0.0 && t_ms <= revive_at_s * 1e3 &&
          revive_at_s * 1e3 < t_ms + bucket_ms) {
        mark += " <- revive";
      }
      curve.add_row({abp::TextTable::fmt(t_ms, 0) + mark,
                     std::to_string(r.ok_buckets[i])});
    }
    curve.print(std::cout);
  };

  const auto json_buckets = [](std::ostringstream& out,
                               const std::vector<std::uint64_t>& buckets) {
    out << "[";
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      out << buckets[i] << (i + 1 < buckets.size() ? ", " : "");
    }
    out << "]";
  };

  // ---- kill-one-backend recovery curve (read-only load) ----------------
  {
    const std::size_t kRecoverBackends = 3;
    SimCluster cluster(kRecoverBackends, std::min<std::size_t>(2, replication),
                       deployments, workers, max_batch);
    const std::string victim = cluster.busiest_backend();
    const double kill_at_s = recover_s / 3.0;
    std::cout << "\n=== Recovery: kill '" << victim << "' (busiest of "
              << kRecoverBackends
              << ") at t=" << abp::TextTable::fmt(kill_at_s, 2) << "s ===\n\n";

    bool killed = false;
    const LoadResult r = drive_load(
        cluster, deployments, recover_s, window, bucket_ms / 1e3,
        [&](double t_s) {
          if (!killed && t_s >= kill_at_s) {
            cluster.sims.at(victim).dead.store(true,
                                               std::memory_order_release);
            killed = true;
          }
        });

    print_curve(r, kill_at_s, 0.0);
    check_load(cluster, r, "read recovery");
    const auto snapshot = cluster.metrics.backend_snapshot(victim);
    std::cout << "\nanswered " << r.ok << " ok + " << r.non_ok << " non-ok of "
              << r.sent << " sent; victim saw " << snapshot.transport_failures
              << " transport failure(s), marked down " << snapshot.marked_down
              << "x\n"
              << "Reading: the dip at the kill is the breaker tripping and"
                 " idempotent retries landing on the surviving replica; the"
                 " curve then holds at the 2-backend plateau without lost or"
                 " duplicated replies.\n";
    json << "  \"read_recovery\": {\"bucket_ms\": " << bucket_ms
         << ", \"kill_at_ms\": " << kill_at_s * 1e3 << ", \"ok_buckets\": ";
    json_buckets(json, r.ok_buckets);
    json << "},\n";
  }

  // ---- write-heavy mixed workload --------------------------------------
  {
    const std::size_t kWriteBackends = 3;
    SimCluster cluster(kWriteBackends, std::min(replication, kWriteBackends),
                       deployments, workers, max_batch, probe_ms, log_retain);
    std::cout << "\n=== Write mix: 1-in-" << write_every
              << " requests is a quorum-acked add-beacon ===\n\n";
    const LoadResult r =
        drive_load(cluster, deployments, sweep_s, window, 0.0, {},
                   [&](std::uint64_t seq) {
                     return mixed_request(seq, deployments, write_every);
                   });
    const auto goodput = static_cast<std::uint64_t>(
        static_cast<double>(r.ok) / r.elapsed_s);
    const abp::serve::RouterCounts counts = cluster.metrics.counts();
    abp::TextTable mix({"goodput q/s", "p50 ms", "p99 ms", "non-ok", "writes",
                        "write-acks", "quorum-failures"});
    mix.add_row({std::to_string(goodput),
                 abp::TextTable::fmt(r.latency_us.p50() / 1e3, 2),
                 abp::TextTable::fmt(r.latency_us.p99() / 1e3, 2),
                 std::to_string(r.non_ok),
                 std::to_string(counts.writes),
                 std::to_string(counts.write_acks),
                 std::to_string(counts.write_quorum_failures)});
    mix.print(std::cout);
    check_load(cluster, r, "write mix");
    if (counts.write_acks == 0) {
      healthy = false;
      std::cout << "NO WRITES ACKED in the write-mix section\n";
    }
    std::cout << "\nReading: writes serialize through the mutation log and"
                 " fan out to every owner, so the mixed p99 carries the"
                 " quorum round trip; reads ride the fenced fast path.\n";
    json << "  \"write_mix\": {\"write_every\": " << write_every
         << ", \"goodput_qps\": " << goodput
         << ", \"p50_ms\": " << r.latency_us.p50() / 1e3
         << ", \"p99_ms\": " << r.latency_us.p99() / 1e3
         << ", \"non_ok\": " << r.non_ok
         << ", \"writes\": " << counts.writes
         << ", \"write_acks\": " << counts.write_acks
         << ", \"quorum_failures\": " << counts.write_quorum_failures
         << "},\n";
  }

  // ---- replay-recovery curve (mixed load, kill + revive) ---------------
  {
    const std::size_t kReplayBackends = 3;
    // Full replication: every backend owns every deployment, so writes keep
    // acking 2-of-3 while the victim is down and the missed suffix is
    // replayed to it on revival.
    SimCluster cluster(kReplayBackends, kReplayBackends, deployments, workers,
                       max_batch, probe_ms, log_retain);
    const std::string victim = cluster.busiest_backend();
    const double kill_at_s = recover_s / 3.0;
    const double revive_at_s = 2.0 * recover_s / 3.0;
    std::cout << "\n=== Replay recovery: kill '" << victim << "' at t="
              << abp::TextTable::fmt(kill_at_s, 2) << "s, revive at t="
              << abp::TextTable::fmt(revive_at_s, 2)
              << "s (write mix, replication " << kReplayBackends << ") ===\n\n";

    bool killed = false;
    bool revived = false;
    const LoadResult r = drive_load(
        cluster, deployments, recover_s, window, bucket_ms / 1e3,
        [&](double t_s) {
          if (!killed && t_s >= kill_at_s) {
            cluster.sims.at(victim).dead.store(true,
                                               std::memory_order_release);
            killed = true;
          }
          if (!revived && t_s >= revive_at_s) {
            cluster.sims.at(victim).dead.store(false,
                                               std::memory_order_release);
            revived = true;
          }
          // The heartbeat the CLI runs on a thread: probes open breakers,
          // closing them fires the replicator's replay/resync recovery.
          cluster.pool->tick();
        },
        [&](std::uint64_t seq) {
          return mixed_request(seq, deployments, write_every);
        });

    // Let the post-revival replay drain, then check convergence: every
    // owner must hold the log's version for every deployment.
    const double drain_deadline = steady_now_s() + 2.0;
    bool converged = false;
    while (!converged && steady_now_s() < drain_deadline) {
      cluster.pool->tick();
      converged = true;
      for (const std::string& name : cluster.replicator->names()) {
        for (const std::string& owner : cluster.replicator->owners(name)) {
          if (cluster.sims.at(owner).service->field_version(name) !=
              cluster.replicator->version(name)) {
            converged = false;
          }
        }
      }
      if (!converged) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }

    print_curve(r, kill_at_s, revive_at_s);
    check_load(cluster, r, "replay recovery");
    if (!converged) {
      healthy = false;
      std::cout << "CONVERGENCE FAILURE: replicas still lag the log 2s after"
                   " the run\n";
    }
    // Byte-identity: after convergence the victim's snapshots must equal
    // the log authority exactly.
    for (const std::string& name : cluster.replicator->names()) {
      abp::serve::Request fetch;
      fetch.endpoint = abp::serve::Endpoint::kSnapshot;
      fetch.field = name;
      const std::string log_text = cluster.replicator->log().snapshot(name).text;
      if (cluster.sims.at(victim).service->handle(fetch).text != log_text) {
        healthy = false;
        std::cout << "BYTE-IDENTITY FAILURE: victim snapshot of '" << name
                  << "' differs from the log authority\n";
      }
    }
    const auto snapshot = cluster.metrics.backend_snapshot(victim);
    const abp::serve::RouterCounts counts = cluster.metrics.counts();
    std::cout << "\nwrites " << counts.writes << " acked "
              << counts.write_acks << " quorum-failures "
              << counts.write_quorum_failures << "; victim caught"
              << " up via " << snapshot.replays << " replay(s) + "
              << (snapshot.installs > deployments ? snapshot.installs -
                      deployments : 0)
              << " resync install(s), byte-identical "
              << (converged && healthy ? "yes" : "NO") << "\n"
              << "Reading: writes keep acking at quorum 2-of-3 through the"
                 " outage; on revival the laggard replays the retained log"
                 " suffix (or re-installs when too far behind) and converges"
                 " to byte-identical state.\n";
    json << "  \"replay_recovery\": {\"bucket_ms\": " << bucket_ms
         << ", \"kill_at_ms\": " << kill_at_s * 1e3
         << ", \"revive_at_ms\": " << revive_at_s * 1e3
         << ", \"writes\": " << counts.writes
         << ", \"write_acks\": " << counts.write_acks
         << ", \"quorum_failures\": " << counts.write_quorum_failures
         << ", \"victim_replays\": " << snapshot.replays
         << ", \"victim_installs\": " << snapshot.installs
         << ", \"converged\": " << (converged ? "true" : "false")
         << ", \"ok_buckets\": ";
    json_buckets(json, r.ok_buckets);
    json << "},\n";
  }

  // ---- autoscale: live scale-up then drain under steady zipfian load ---
  {
    namespace serve = abp::serve;
    constexpr std::size_t kHotKeys = 64;
    const std::string joiner = "b2";
    SimCluster cluster(2, 2, deployments, workers, max_batch, probe_ms,
                       log_retain);
    const double add_at_s = autoscale_s / 3.0;
    const double drain_at_s = 2.0 * autoscale_s / 3.0;
    std::cout << "\n=== Autoscale: add '" << joiner << "' at t="
              << abp::TextTable::fmt(add_at_s, 2) << "s, drain it at t="
              << abp::TextTable::fmt(drain_at_s, 2)
              << "s (zipf reads + 1-in-" << write_every
              << " writes) ===\n\n";

    // Zipf CDF over read ranks; repeats of a rank are byte-identical.
    std::vector<double> cdf(kHotKeys);
    double mass = 0.0;
    for (std::size_t r = 0; r < kHotKeys; ++r) {
      mass += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
      cdf[r] = mass;
    }
    for (double& c : cdf) c /= mass;
    abp::Rng zipf_rng(0xA5CA1E);  // only touched from the driver loop
    const auto zipf_read = [&](std::uint64_t seq) {
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), zipf_rng.uniform01()) -
          cdf.begin());
      serve::Request request;
      request.seq = seq;
      request.endpoint = serve::Endpoint::kLocalize;
      request.field = "f" + std::to_string(rank % deployments);
      const double t = static_cast<double>(rank) / kHotKeys;
      request.points = {{100.0 * t, 100.0 * (1.0 - t)}};
      return request;
    };

    // The admin verbs block until the handoff/drain completes, so they run
    // on their own threads — the load loop keeps submitting throughout.
    std::atomic<bool> add_ok{false};
    std::atomic<bool> drain_ok{false};
    std::thread add_thread, drain_thread;
    bool added = false;
    bool drained = false;
    const LoadResult r = drive_load(
        cluster, deployments, autoscale_s, window, bucket_ms / 1e3,
        [&](double t_s) {
          if (!added && t_s >= add_at_s) {
            cluster.add_sim(joiner);
            add_thread = std::thread([&] {
              const serve::Response response = cluster.admin("add", joiner);
              add_ok = response.status == serve::Status::kOk;
            });
            added = true;
          }
          if (!drained && t_s >= drain_at_s) {
            if (add_thread.joinable()) add_thread.join();
            drain_thread = std::thread([&] {
              const serve::Response response = cluster.admin("drain", joiner);
              drain_ok = response.status == serve::Status::kOk;
            });
            drained = true;
          }
          cluster.pool->tick();
        },
        [&](std::uint64_t seq) {
          return seq % write_every == 0 ? add_beacon_request(seq, deployments)
                                        : zipf_read(seq);
        });
    if (add_thread.joinable()) add_thread.join();
    if (drain_thread.joinable()) drain_thread.join();

    print_curve(r, add_at_s, drain_at_s);  // marks: kill = add, revive = drain
    check_load(cluster, r, "autoscale");
    if (!add_ok || !drain_ok) {
      healthy = false;
      std::cout << "MEMBERSHIP TRANSITION FAILED: add "
                << (add_ok ? "ok" : "FAILED") << ", drain "
                << (drain_ok ? "ok" : "FAILED") << "\n";
    }
    if (r.non_retryable != 0) {
      healthy = false;
      std::cout << "NON-RETRYABLE CLIENT FAILURES during autoscale: "
                << r.non_retryable << "\n";
    }
    // Start epoch 1, +1 when the joiner activates, +1 when it drains.
    if (cluster.membership->epoch() != 3) {
      healthy = false;
      std::cout << "EPOCH MISMATCH: expected 3, got "
                << cluster.membership->epoch() << "\n";
    }
    // Convergence + byte-identity: every surviving owner ends at the log's
    // version with the log's exact snapshot bytes.
    const double drain_deadline = steady_now_s() + 2.0;
    bool converged = false;
    while (!converged && steady_now_s() < drain_deadline) {
      cluster.pool->tick();
      converged = true;
      for (const std::string& name : cluster.replicator->names()) {
        for (const std::string& owner : cluster.replicator->owners(name)) {
          if (cluster.sims.at(owner).service->field_version(name) !=
              cluster.replicator->version(name)) {
            converged = false;
          }
        }
      }
      if (!converged) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!converged) {
      healthy = false;
      std::cout << "CONVERGENCE FAILURE after autoscale\n";
    } else {
      for (const std::string& name : cluster.replicator->names()) {
        serve::Request fetch;
        fetch.endpoint = serve::Endpoint::kSnapshot;
        fetch.field = name;
        const std::string log_text =
            cluster.replicator->log().snapshot(name).text;
        for (const std::string& owner : cluster.replicator->owners(name)) {
          if (cluster.sims.at(owner).service->handle(fetch).text != log_text) {
            healthy = false;
            std::cout << "BYTE-IDENTITY FAILURE: '" << owner
                      << "' snapshot of '" << name
                      << "' differs from the log authority\n";
          }
        }
      }
    }
    const auto goodput = static_cast<std::uint64_t>(
        static_cast<double>(r.ok) / r.elapsed_s);
    const abp::serve::RouterCounts counts = cluster.metrics.counts();
    std::cout << "\ngoodput " << goodput << " q/s p50 "
              << abp::TextTable::fmt(r.latency_us.p50() / 1e3, 2) << " ms p99 "
              << abp::TextTable::fmt(r.latency_us.p99() / 1e3, 2)
              << " ms; non-ok " << r.non_ok << " (non-retryable "
              << r.non_retryable << "); epoch "
              << cluster.membership->epoch() << ", handoff snapshots "
              << counts.handoff_snapshots << ", replays "
              << counts.handoff_replays << "\n"
              << "Reading: the joiner absorbs its transfer set before the"
                 " fenced epoch flip, so goodput holds through scale-up; the"
                 " drain stops new routing first and hands ranges back, so"
                 " the 3->2 step costs a remap, never an acked write.\n";
    json << "  \"autoscale\": {\"bucket_ms\": " << bucket_ms
         << ", \"add_at_ms\": " << add_at_s * 1e3
         << ", \"drain_at_ms\": " << drain_at_s * 1e3
         << ", \"goodput_qps\": " << goodput
         << ", \"p50_ms\": " << r.latency_us.p50() / 1e3
         << ", \"p99_ms\": " << r.latency_us.p99() / 1e3
         << ", \"non_ok\": " << r.non_ok
         << ", \"non_retryable\": " << r.non_retryable
         << ", \"epoch\": " << cluster.membership->epoch()
         << ", \"handoff_snapshots\": " << counts.handoff_snapshots
         << ", \"handoff_replays\": " << counts.handoff_replays
         << ", \"converged\": " << (converged ? "true" : "false")
         << ", \"ok_buckets\": ";
    json_buckets(json, r.ok_buckets);
    json << "},\n";
  }

  // ---- zipfian multi-tenant: noisy neighbor vs quota + cache -----------
  {
    namespace serve = abp::serve;
    constexpr std::size_t kHotKeys = 64;
    constexpr std::size_t kNoisyPerStep = 20;
    constexpr std::size_t kInnocentPerStep = 1;
    constexpr double kStepMs = 10.0;
    constexpr double kQuotaRps = 200.0;  // innocent demand 100/s, noisy 2000/s
    constexpr double kQuotaBurst = 20.0;
    std::cout << "\n=== Multi-tenant: zipf(s=" << zipf_s << ") reads over "
              << kHotKeys << " hot keys, noisy tenant 1 ("
              << kNoisyPerStep * 1000.0 / kStepMs << "/s) vs innocent"
              << " tenant 2 (" << kInnocentPerStep * 1000.0 / kStepMs
              << "/s), " << tenant_steps << " steps ===\n\n";

    // Zipf CDF over request ranks: rank 0 is the hottest question. Repeats
    // of a rank are byte-identical requests — exactly what the response
    // cache can serve.
    std::vector<double> cdf(kHotKeys);
    double mass = 0.0;
    for (std::size_t r = 0; r < kHotKeys; ++r) {
      mass += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
      cdf[r] = mass;
    }
    for (double& c : cdf) c /= mass;
    const auto zipf_request = [&](abp::Rng& rng, std::uint64_t seq,
                                  std::uint64_t principal) {
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.uniform01()) -
          cdf.begin());
      serve::Request request;
      request.seq = seq;
      request.endpoint = serve::Endpoint::kLocalize;
      request.field = "f" + std::to_string(rank % deployments);
      const double t = static_cast<double>(rank) / kHotKeys;
      request.points = {{100.0 * t, 100.0 * (1.0 - t)}};
      request.principal = principal;
      return request;
    };

    struct TenantStats {
      std::uint64_t sent = 0;
      std::uint64_t ok = 0;
      std::uint64_t shed = 0;
      std::uint64_t other = 0;
      abp::Histogram latency_us = abp::Histogram::latency_us();
    };
    struct Pass {
      const char* label;
      bool cache;
      bool quota;
    };
    const Pass passes[] = {{"cache", true, false},
                           {"no-cache", false, false},
                           {"cache+quota", true, true}};

    abp::TextTable tenants({"config", "tenant", "sent", "ok", "shed",
                            "p50 ms", "p99 ms", "cache hit-rate"});
    json << "  \"multi_tenant\": [\n";
    for (std::size_t p = 0; p < std::size(passes); ++p) {
      const Pass& pass = passes[p];
      RouterOptions router_options;
      router_options.cache_entries = pass.cache ? 1024 : 0;
      if (pass.quota) {
        router_options.quota.rps = kQuotaRps;
        router_options.quota.burst = kQuotaBurst;
      }
      // The driver owns the router's clock: quota refill is a function of
      // simulated time, so shed/admit decisions are machine-independent.
      auto sim_clock = std::make_shared<std::atomic<double>>(0.0);
      router_options.clock_ms = [sim_clock] { return sim_clock->load(); };
      SimCluster cluster(3, std::min<std::size_t>(2, replication), deployments,
                         workers, max_batch, probe_ms, log_retain,
                         router_options);

      TenantStats stats[2];  // [0] = noisy principal 1, [1] = innocent 2
      abp::Rng noisy_rng(0xDADA), innocent_rng(0xFEED);
      std::mutex mu;
      std::condition_variable cv;
      std::size_t outstanding = 0;
      std::uint64_t seq = 0;
      const auto send = [&](TenantStats& tenant, abp::Rng& rng,
                            std::uint64_t principal) {
        const serve::Request request = zipf_request(rng, ++seq, principal);
        const double sent_at = steady_now_s();
        ++tenant.sent;
        cluster.router->submit(
            serve::format_request(request), [&, sent_at](std::string payload) {
              const double now = steady_now_s();
              const auto response = serve::parse_response(payload);
              std::lock_guard<std::mutex> lock(mu);
              tenant.latency_us.add((now - sent_at) * 1e6);
              if (response && response->status == serve::Status::kOk) {
                ++tenant.ok;
              } else if (response &&
                         response->status == serve::Status::kOverloaded) {
                ++tenant.shed;
              } else {
                ++tenant.other;
              }
              if (--outstanding == 0) cv.notify_one();
            });
      };
      for (std::size_t step = 0; step < tenant_steps; ++step) {
        {
          std::lock_guard<std::mutex> lock(mu);
          outstanding = kNoisyPerStep + kInnocentPerStep;
        }
        for (std::size_t i = 0; i < kNoisyPerStep; ++i) {
          send(stats[0], noisy_rng, 1);
        }
        for (std::size_t i = 0; i < kInnocentPerStep; ++i) {
          send(stats[1], innocent_rng, 2);
        }
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return outstanding == 0; });
        }
        sim_clock->store(sim_clock->load() + kStepMs);
      }

      const std::uint64_t hits = cluster.metrics.cache_hits();
      const std::uint64_t misses = cluster.metrics.cache_misses();
      const double hit_rate =
          hits + misses > 0
              ? static_cast<double>(hits) / static_cast<double>(hits + misses)
              : 0.0;
      for (int t = 0; t < 2; ++t) {
        tenants.add_row(
            {t == 0 ? pass.label : "", t == 0 ? "noisy" : "innocent",
             std::to_string(stats[t].sent), std::to_string(stats[t].ok),
             std::to_string(stats[t].shed),
             abp::TextTable::fmt(stats[t].latency_us.p50() / 1e3, 2),
             abp::TextTable::fmt(stats[t].latency_us.p99() / 1e3, 2),
             t == 0 ? abp::TextTable::fmt(hit_rate * 100.0, 1) + "%" : ""});
      }

      // Structural checks: the closed loop answered everything; quotas shed
      // only the tenant that outran its bucket; the cache actually engaged.
      for (int t = 0; t < 2; ++t) {
        if (stats[t].sent !=
            stats[t].ok + stats[t].shed + stats[t].other) {
          healthy = false;
          std::cout << "LOST REPLIES (multi-tenant " << pass.label << ")\n";
        }
        if (stats[t].other != 0) {
          healthy = false;
          std::cout << "UNEXPECTED STATUSES (multi-tenant " << pass.label
                    << "): " << stats[t].other << "\n";
        }
      }
      if (pass.cache && hits == 0) {
        healthy = false;
        std::cout << "CACHE NEVER HIT (multi-tenant " << pass.label << ")\n";
      }
      if (!pass.cache && hits + misses != 0) {
        healthy = false;
        std::cout << "CACHE COUNTED WHILE DISABLED\n";
      }
      if (pass.quota) {
        if (stats[1].shed != 0) {
          healthy = false;
          std::cout << "ISOLATION FAILURE: innocent tenant shed "
                    << stats[1].shed << "x under quota\n";
        }
        if (stats[0].shed == 0) {
          healthy = false;
          std::cout << "QUOTA NEVER ENGAGED: noisy tenant was never shed\n";
        }
        if (cluster.metrics.principal(1).shed_quota != stats[0].shed) {
          healthy = false;
          std::cout << "QUOTA LEDGER MISMATCH: router counted "
                    << cluster.metrics.principal(1).shed_quota
                    << " sheds, clients saw " << stats[0].shed << "\n";
        }
      }

      json << "    {\"config\": \"" << pass.label << "\", \"cache\": "
           << (pass.cache ? "true" : "false") << ", \"quota\": "
           << (pass.quota ? "true" : "false")
           << ", \"cache_hit_rate\": " << hit_rate << ", \"tenants\": [";
      for (int t = 0; t < 2; ++t) {
        json << "{\"tenant\": \"" << (t == 0 ? "noisy" : "innocent")
             << "\", \"sent\": " << stats[t].sent
             << ", \"ok\": " << stats[t].ok
             << ", \"shed\": " << stats[t].shed
             << ", \"p50_ms\": " << stats[t].latency_us.p50() / 1e3
             << ", \"p99_ms\": " << stats[t].latency_us.p99() / 1e3 << "}"
             << (t == 0 ? ", " : "");
      }
      json << "]}" << (p + 1 < std::size(passes) ? "," : "") << "\n";
    }
    json << "  ],\n";
    tenants.print(std::cout);
    std::cout << "\nReading: the zipf hot keys make the cache carry most of"
                 " the read load (p50 drops to the router's local path);"
                 " with quotas on, the noisy tenant sheds against its own"
                 " token bucket while the innocent tenant keeps its clean"
                 " p99 — per-tenant isolation, not global backpressure.\n";
  }

  // ---- retry storm: duplicate suppression, dedup on vs off -------------
  {
    namespace serve = abp::serve;
    std::cout << "\n=== Retry storm: " << storm_clients << " clients x "
              << storm_writes << " writes through a seeded duplicate/reset"
              << " schedule, request-id dedup on vs off ===\n\n";
    abp::TextTable storm({"dedup", "logical", "ok", "deliveries", "appends",
                          "dup-suppressed", "phantom", "p50 ms", "p99 ms"});
    json << "  \"retry_storm\": [\n";
    for (int pass = 0; pass < 2; ++pass) {
      const bool dedup = pass == 0;
      RouterOptions router_options;
      router_options.dedup = dedup;
      SimCluster cluster(3, 3, deployments, workers, max_batch, probe_ms,
                         log_retain, router_options);
      std::map<std::string, std::uint64_t> base_versions;
      for (const std::string& name : cluster.replicator->names()) {
        base_versions[name] = cluster.replicator->version(name);
      }

      std::atomic<std::uint64_t> deliveries{0};
      std::atomic<std::uint64_t> ok_calls{0};
      std::mutex mu;
      abp::Histogram call_us = abp::Histogram::latency_us();
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < storm_clients; ++c) {
        clients.emplace_back([&, c] {
          // Each client owns a transport whose faulted side is the frame
          // pipe to the router — duplicates re-deliver the same write
          // frame, resets force the client to retry with the same id.
          auto exchange = [&](std::string frame) {
            serve::FrameDecoder decoder;
            decoder.feed(frame);
            std::optional<std::string> payload = decoder.next();
            ++deliveries;
            auto done = std::make_shared<std::promise<std::string>>();
            cluster.router->submit(std::move(*payload),
                                   [done](std::string reply) {
                                     done->set_value(std::move(reply));
                                   });
            return serve::encode_frame(done->get_future().get());
          };
          serve::FaultTransport::Options fault_options;
          fault_options.script = serve::make_retry_storm_script(
              256, 0xBEEF + 31 * c + static_cast<std::uint64_t>(pass));
          serve::FaultTransport transport(exchange, fault_options);
          serve::RetryPolicy policy;
          policy.max_attempts = 12;
          policy.base_backoff_ms = 0.1;
          policy.max_backoff_ms = 0.5;
          serve::RetryingClient client(
              [&transport] { return serve::borrow_transport(transport); },
              policy);
          client.set_sleeper([](double) {});
          std::vector<double> latencies;
          latencies.reserve(storm_writes);
          for (std::size_t i = 0; i < storm_writes; ++i) {
            const std::uint64_t seq = c * storm_writes + i;
            const double sent_at = steady_now_s();
            const serve::CallResult result =
                client.call(add_beacon_request(seq, deployments));
            latencies.push_back((steady_now_s() - sent_at) * 1e6);
            if (result.ok && result.response.status == serve::Status::kOk) {
              ++ok_calls;
            }
          }
          std::lock_guard<std::mutex> lock(mu);
          for (double us : latencies) call_us.add(us);
        });
      }
      for (std::thread& t : clients) t.join();

      std::uint64_t appends = 0;
      for (const std::string& name : cluster.replicator->names()) {
        appends += cluster.replicator->version(name) - base_versions[name];
      }
      const std::uint64_t logical = storm_clients * storm_writes;
      const std::uint64_t suppressed = cluster.metrics.write_dedup_hits();
      const std::uint64_t phantom = appends > ok_calls ? appends - ok_calls
                                                       : 0;
      storm.add_row({dedup ? "on" : "off", std::to_string(logical),
                     std::to_string(ok_calls.load()),
                     std::to_string(deliveries.load()),
                     std::to_string(appends), std::to_string(suppressed),
                     std::to_string(phantom),
                     abp::TextTable::fmt(call_us.p50() / 1e3, 2),
                     abp::TextTable::fmt(call_us.p99() / 1e3, 2)});
      if (dedup && appends > logical) {
        healthy = false;
        std::cout << "EXACTLY-ONCE FAILURE: dedup on, " << appends
                  << " appends for " << logical << " logical writes\n";
      }
      if (dedup && suppressed == 0) {
        healthy = false;
        std::cout << "STORM TOO CALM: no duplicate was ever suppressed\n";
      }
      json << "    {\"dedup\": " << (dedup ? "true" : "false")
           << ", \"logical_writes\": " << logical
           << ", \"ok\": " << ok_calls.load()
           << ", \"deliveries\": " << deliveries.load()
           << ", \"appends\": " << appends
           << ", \"dup_suppressed\": " << suppressed
           << ", \"phantom_appends\": " << phantom
           << ", \"p50_ms\": " << call_us.p50() / 1e3
           << ", \"p99_ms\": " << call_us.p99() / 1e3 << "}"
           << (pass == 0 ? "," : "") << "\n";
    }
    json << "  ]\n";
    storm.print(std::cout);
    std::cout << "\nReading: the storm re-delivers and re-tries the same"
                 " logical writes; with dedup on the index answers every"
                 " duplicate from the original ack (phantom = 0), with dedup"
                 " off each re-delivery appends a phantom beacon.\n";
  }

  json << "}\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "\nwrote bench JSON to " << json_path << "\n";
  }
  return healthy ? 0 : 1;
}
