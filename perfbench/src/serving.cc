// node_reads and routed_survey: the served loop over loopback TCP.
//
// Both build the system through the library the way `abp serve` and
// `abp route` do (tools/abp_cli.cc): a `ServeConfig` / `RouterConfig`
// parsed from flags, so a changed default is measured as the new default,
// plus only the flags each workload names. Each run alternates open-loop
// segments at a fixed nominal rate (CPU per op, latencies; see loadgen.h)
// with closed-loop segments that measure capacity.
#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "cluster/backend_pool.h"
#include "cluster/config.h"
#include "cluster/membership.h"
#include "cluster/replicator.h"
#include "cluster/router.h"
#include "common/flags.h"
#include "field/generators.h"
#include "host.h"
#include "io/field_io.h"
#include "loadgen.h"
#include "rng/rng.h"
#include "serve/config.h"
#include "serve/server.h"
#include "serve/server_transport.h"
#include "serve/service.h"
#include "serve/tcp_transport.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace serve = abp::serve;
namespace cluster = abp::cluster;

namespace {

constexpr std::array<std::size_t, 4> kDeploymentBeacons{20, 60, 120, 240};
constexpr double kSide = 100.0;
/// Static sensor nodes per deployment. Four deployments give 8192 nodes,
/// each with a fixed endpoint: 8192 distinct read keys against the
/// router's 1024-entry response cache.
constexpr std::size_t kNodesPerDeployment = 2048;
constexpr std::size_t kConnections = 4;
/// node_reads times this many extra server starts in each round.
constexpr int kSetupsPerRound = 4;
/// Latency windows: p99 is the median over windows of each window's p99.
constexpr double kWindowS = 1.0;
constexpr std::size_t kWindowMin = 100;

abp::Flags make_flags(const std::vector<std::string>& args) {
  std::vector<const char*> argv{"perfbench"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return abp::Flags(static_cast<int>(argv.size()), argv.data());
}

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

// ---------------------------------------------------------------------------
// Deployments and node populations (seeded; the program sees only files
// and requests).

struct Deployments {
  std::vector<std::string> names;
  std::vector<std::string> paths;
  /// Node positions per deployment.
  std::vector<std::vector<abp::Vec2>> nodes;
};

/// Generate the four fields and write them to the working directory,
/// where `--field` can load them.
Deployments generate_deployments(std::uint64_t seed) {
  Deployments d;
  for (std::size_t i = 0; i < kDeploymentBeacons.size(); ++i) {
    const std::size_t beacons = kDeploymentBeacons[i];
    d.names.push_back("d" + std::to_string(beacons));
    d.paths.push_back(d.names.back() + ".field");
    abp::BeaconField field(abp::AABB::square(kSide));
    abp::Rng rng(abp::derive_seed(seed, 0xf1e1dULL, i));
    abp::scatter_uniform(field, beacons, rng);
    std::ofstream out(d.paths.back());
    abp::write_field(out, field);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + d.paths.back());
    abp::Rng node_rng(abp::derive_seed(seed, 0x90de5ULL, i));
    std::vector<abp::Vec2> nodes(kNodesPerDeployment);
    for (abp::Vec2& p : nodes) {
      p = {node_rng.uniform(0.0, kSide), node_rng.uniform(0.0, kSide)};
    }
    d.nodes.push_back(std::move(nodes));
  }
  return d;
}

// ---------------------------------------------------------------------------
// A server as `abp serve` builds it.

struct DirectServer {
  serve::ServeConfig config;
  std::unique_ptr<serve::LocalizationService> service;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<TimingSink> timing;  ///< traced runs only
  std::unique_ptr<serve::ServerTransport> transport;

  ~DirectServer() { stop(); }
  void stop() {
    if (transport) transport->stop();
    if (server) server->shutdown();
  }
  std::uint16_t port() const { return transport->port(); }
};

/// `cmd_serve` with `flags`; `--field`/`--name` name the first deployment.
/// `all_deployments` also loads the other three (node_reads' server holds
/// all four; routed backends receive theirs from the router).
std::unique_ptr<DirectServer> start_server(std::vector<std::string> flags,
                                           const Deployments& d,
                                           bool all_deployments,
                                           SpanStore* store) {
  flags.insert(flags.begin(), {"--field", d.paths[0], "--name", d.names[0]});
  const abp::Flags parsed = make_flags(flags);
  auto s = std::make_unique<DirectServer>();
  s->config = serve::ServeConfig::from_flags(parsed);
  parsed.check_unused();
  s->service =
      std::make_unique<serve::LocalizationService>(s->config.service_config());
  s->service->add_field(s->config.name, abp::load_field(s->config.field_path));
  if (all_deployments) {
    for (std::size_t i = 1; i < d.names.size(); ++i) {
      s->service->add_field(d.names[i], abp::load_field(d.paths[i]));
    }
  }
  s->server = std::make_unique<serve::Server>(*s->service,
                                              s->config.server_options());
  serve::FrameSink* sink = s->server.get();
  if (store != nullptr) {
    s->timing = std::make_unique<TimingSink>(*s->server, Layer::kServer,
                                             *store);
    sink = s->timing.get();
  }
  s->transport = serve::make_server_transport(s->config.transport, *sink,
                                              s->config.transport_options());
  s->transport->start();
  return s;
}

// ---------------------------------------------------------------------------
// A router as `abp route` builds it, over two backends.

struct Cluster {
  std::vector<std::unique_ptr<DirectServer>> backends;
  cluster::RouterConfig config;
  serve::RouterMetrics metrics;
  std::unique_ptr<cluster::MembershipTable> membership;
  std::unique_ptr<cluster::BackendPool> pool;
  std::unique_ptr<cluster::Replicator> replicator;
  std::unique_ptr<cluster::Router> router;
  std::unique_ptr<TimingSink> timing;  ///< traced runs only
  std::unique_ptr<serve::ServerTransport> transport;
  std::atomic<bool> heartbeat_stop{false};
  std::thread heartbeat;
  std::map<std::string, std::uint64_t> installed_version;

  ~Cluster() { stop(); }
  /// Stop accepting clients, then the pool (the order of `cmd_route`).
  void stop() {
    heartbeat_stop = true;
    if (heartbeat.joinable()) heartbeat.join();
    if (transport) transport->stop();
    if (pool) pool->stop();
  }
  std::uint16_t port() const { return transport->port(); }
};

/// Backend `index` on a fixed port. The ring places deployments by backend
/// address, so ephemeral ports would give every cluster a different
/// primary per deployment and a different load balance; a fixed address
/// gives every run the same placement. The next candidate port is tried
/// only when one is taken.
std::unique_ptr<DirectServer> start_backend(std::vector<std::string> flags,
                                            const Deployments& d, int index,
                                            SpanStore* store) {
  constexpr int kBasePort = 29170;
  constexpr int kAttempts = 20;
  flags.insert(flags.end(), {"--port", ""});
  for (int attempt = 0;; ++attempt) {
    flags.back() = std::to_string(kBasePort + 2 * attempt + index);
    try {
      return start_server(flags, d, false, store);
    } catch (const serve::ServeError&) {
      if (attempt + 1 == kAttempts) throw;
    }
  }
}

/// `backend_flags` for each backend, `router_flags` for the router (the
/// backends, field and name are added here).
std::unique_ptr<Cluster> start_cluster(
    const std::vector<std::string>& backend_flags,
    const std::vector<std::string>& router_flags, const Deployments& d,
    SpanStore* store) {
  auto c = std::make_unique<Cluster>();
  std::vector<std::string> flags;
  for (int b = 0; b < 2; ++b) {
    c->backends.push_back(start_backend(backend_flags, d, b, store));
    flags.push_back("--backend");
    flags.push_back("127.0.0.1:" + std::to_string(c->backends.back()->port()));
  }
  flags.insert(flags.end(), {"--field", d.paths[0], "--name", d.names[0]});
  flags.insert(flags.end(), router_flags.begin(), router_flags.end());
  const abp::Flags parsed = make_flags(flags);
  c->config = cluster::RouterConfig::from_flags(parsed);
  parsed.check_unused();

  cluster::BackendPool::TransportFactory factory;
  if (store != nullptr) {
    const std::vector<std::string> names = c->config.backends;
    const double timeout_s = c->config.pool_options().connect_timeout_s;
    factory = [store, names, timeout_s](const std::string& backend)
        -> std::unique_ptr<serve::ClientTransport> {
      const auto [host, port] = cluster::parse_backend_address(backend);
      const auto index = static_cast<std::uint8_t>(
          std::find(names.begin(), names.end(), backend) - names.begin());
      return std::make_unique<TimingTransport>(
          std::make_unique<serve::TcpClientTransport>(host, port, timeout_s),
          index, *store);
    };
  }
  c->membership =
      std::make_unique<cluster::MembershipTable>(c->config.backends);
  c->pool = std::make_unique<cluster::BackendPool>(
      c->config.backends, c->config.pool_options(), c->metrics, factory);
  c->replicator = std::make_unique<cluster::Replicator>(
      *c->pool, *c->membership, c->config.replication, c->metrics,
      c->config.log_retain);
  cluster::Replicator* replicator = c->replicator.get();
  c->pool->set_recovery_callback([replicator](const std::string& backend) {
    replicator->sync_backend(backend);
  });
  c->router = std::make_unique<cluster::Router>(
      *c->membership, *c->pool, *c->replicator, c->metrics,
      c->config.router_options());

  c->pool->start();
  for (std::size_t i = 0; i < d.names.size(); ++i) {
    // Canonicalized through the text codec, as `cmd_route` does.
    std::ostringstream text;
    abp::write_field(text, abp::load_field(d.paths[i]));
    c->replicator->set_deployment(d.names[i], text.str());
  }
  const std::size_t installs = c->replicator->sync_all();
  const std::size_t want = d.names.size() * c->config.replication;
  if (installs != want) {
    throw std::runtime_error("synced " + std::to_string(installs) + " of " +
                             std::to_string(want) + " replicas");
  }
  for (const std::string& name : d.names) {
    c->installed_version[name] = c->replicator->version(name);
  }

  serve::FrameSink* sink = c->router.get();
  if (store != nullptr) {
    c->timing = std::make_unique<TimingSink>(*c->router, Layer::kRouter,
                                             *store);
    sink = c->timing.get();
  }
  c->transport = serve::make_server_transport(c->config.transport, *sink,
                                              c->config.transport_options());
  c->transport->start();
  // `cmd_route`'s main loop ticks the pool's heartbeat every 200 ms.
  cluster::BackendPool* pool = c->pool.get();
  std::atomic<bool>* stop = &c->heartbeat_stop;
  c->heartbeat = std::thread([pool, stop] {
    while (!stop->load()) {
      for (int i = 0; i < 20 && !stop->load(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      pool->tick();
    }
  });
  return c;
}

// ---------------------------------------------------------------------------
// Request scripts.

/// What op i sends, compactly; built into a request frame only when the op
/// falls due.
struct Spec {
  std::uint32_t deployment = 0;
  std::uint32_t index = 0;  ///< node (reads) or lattice row (surveys)
  abp::Vec2 point;          ///< writes: the new beacon
};

serve::Request node_read(const Deployments& d, std::size_t deployment,
                         std::size_t node) {
  serve::Request r;
  r.endpoint = node % 2 == 0 ? serve::Endpoint::kLocalize
                             : serve::Endpoint::kErrorAt;
  r.field = d.names[deployment];
  r.points = {d.nodes[deployment][node]};
  return r;
}

struct Script {
  const Deployments* d = nullptr;
  std::uint64_t base_seq = 0;
  std::uint64_t index = 0;  ///< which script of the run; keeps ids unique
  std::vector<Op> ops;
  std::vector<Spec> specs;  ///< parallel to ops

  serve::Request request(std::size_t i) const {
    const Spec& spec = specs[i];
    serve::Request r;
    switch (ops[i].kind) {
      case OpKind::kRead:
        r = node_read(*d, spec.deployment, spec.index);
        break;
      case OpKind::kSurvey:  // a robot's tour: one lattice row, 101 points
        r.endpoint = serve::Endpoint::kErrorAt;
        for (int x = 0; x <= 100; ++x) {
          r.points.push_back({static_cast<double>(x),
                              static_cast<double>(spec.index)});
        }
        break;
      case OpKind::kPropose:
        r.endpoint = serve::Endpoint::kPropose;
        r.algorithm = "grid";
        break;
      case OpKind::kWrite:
        r.endpoint = serve::Endpoint::kAddBeacon;
        r.points = {spec.point};
        r.request_id = ((index + 1) << 40) | (i + 1);
        break;
    }
    r.field = d->names[spec.deployment];
    r.seq = base_seq + i;
    return r;
  }
  std::string frame(std::size_t i) const {
    return serve::encode_frame(serve::format_request(request(i)));
  }
};

/// Zipf(1) over `n` ranks, by inverse CDF.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(abp::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Poisson arrivals at `rate` for `seconds`, at most `max_ops` of them;
/// `make(rng, index, spec)` picks each op's kind and fills its spec.
template <typename Make>
Script make_script(const Deployments& d, double rate, double seconds,
                   std::size_t max_ops, std::uint64_t base_seq,
                   std::uint64_t seed, std::uint64_t index, Make make) {
  Script s;
  s.d = &d;
  s.base_seq = base_seq;
  s.index = index;
  abp::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform01()) / rate;
    if (t >= seconds || s.ops.size() >= max_ops) break;
    Op op;
    op.due_s = t;
    op.conn = static_cast<std::uint32_t>(rng.below(kConnections));
    Spec spec;
    op.kind = make(rng, s.ops.size(), spec);
    s.ops.push_back(op);
    s.specs.push_back(spec);
  }
  return s;
}

std::uint32_t pick(abp::Rng& rng, std::size_t n) {
  return static_cast<std::uint32_t>(rng.below(n));
}

Script node_reads_script(const Deployments& d, double rate, double seconds,
                         std::size_t max_ops, std::uint64_t base_seq,
                         std::uint64_t seed) {
  // Deployments in turn, so every script has the same mix of field sizes.
  return make_script(d, rate, seconds, max_ops, base_seq, seed, 0,
                     [&d](abp::Rng& rng, std::size_t i, Spec& spec) {
                       spec.deployment =
                           static_cast<std::uint32_t>(i % d.names.size());
                       spec.index = pick(rng, kNodesPerDeployment);
                       return OpKind::kRead;
                     });
}

/// routed_survey's mix per block of 100 requests, shuffled per block, so
/// every script has the same composition whatever its seed.
constexpr std::array<std::pair<OpKind, int>, 4> kRoutedMix{{
    {OpKind::kWrite, 3},
    {OpKind::kPropose, 1},
    {OpKind::kSurvey, 12},
    {OpKind::kRead, 84},
}};

Script routed_script(const Deployments& d, double rate, double seconds,
                     std::size_t max_ops, std::uint64_t base_seq,
                     std::uint64_t seed, std::uint64_t index) {
  const Zipf zipf(d.names.size() * kNodesPerDeployment);
  std::vector<OpKind> block;
  std::array<std::uint32_t, kOpKinds> issued{};
  return make_script(
      d, rate, seconds, max_ops, base_seq, seed, index,
      [&](abp::Rng& rng, std::size_t i, Spec& spec) {
        if (i % 100 == 0) {
          block.clear();
          for (const auto& [kind, n] : kRoutedMix) {
            block.insert(block.end(), n, kind);
          }
          for (std::size_t j = block.size(); j > 1; --j) {
            std::swap(block[j - 1], block[rng.below(j)]);
          }
        }
        const OpKind kind = block[i % 100];
        // Writes, proposals and tours visit the deployments in turn.
        const std::uint32_t turn = issued[static_cast<std::size_t>(kind)]++;
        spec.deployment = static_cast<std::uint32_t>(turn % d.names.size());
        switch (kind) {
          case OpKind::kWrite:
            spec.point = {rng.uniform(0.0, kSide), rng.uniform(0.0, kSide)};
            break;
          case OpKind::kSurvey:
            spec.index = pick(rng, 101);
            break;
          case OpKind::kRead: {
            const std::size_t rank = zipf(rng);
            spec.deployment =
                static_cast<std::uint32_t>(rank % d.names.size());
            spec.index = static_cast<std::uint32_t>(rank / d.names.size());
            break;
          }
          case OpKind::kPropose:
            break;
        }
        return kind;
      });
}

// ---------------------------------------------------------------------------
// Segments. A run alternates nominal open-loop segments with closed-loop
// capacity segments, `kRounds` of each, so both sample the whole run
// rather than one stretch of it: the host's noise drifts over seconds.

constexpr std::size_t kRounds = 12;
/// Share of `--seconds` the nominal segments take together; the capacity
/// segments and set-ups take about the rest.
constexpr double kNominalShare = 0.45;

/// One segment: a single run of one script, open or closed loop.
struct Segment {
  double rate = 0.0;       ///< offered requests/s; 0 for a closed loop
  double cpu_s = 0.0;      ///< program CPU: the process's less the generator's
  double gen_cpu_s = 0.0;  ///< the generator thread's CPU
  std::vector<OpOutcome> outcomes;
  LoadReport report;
  std::size_t failed = 0;
  std::array<std::vector<TimedSample>, kOpKinds> samples;
  std::vector<double> lag_ms;

  double p50(OpKind k) const {
    std::vector<double> v;
    for (const TimedSample& s : samples[static_cast<std::size_t>(k)]) {
      v.push_back(s.latency_ms);
    }
    return median(std::move(v));
  }
  std::vector<double> window_p99(OpKind k) const {
    return window_quantiles(samples[static_cast<std::size_t>(k)], kWindowS,
                            0.99, kWindowMin);
  }
  double p99(OpKind k) const { return median(window_p99(k)); }
  std::size_t count(OpKind k) const {
    return samples[static_cast<std::size_t>(k)].size();
  }
  /// Closed loop: ok replies per second, first send to last reply.
  double capacity() const {
    return static_cast<double>(outcomes.size() - failed) /
           report.elapsed_s;
  }
};

/// The nominal segments of a run, pooled.
struct NominalStats {
  double cpu_s = 0.0;
  std::size_t ops = 0;
  std::array<std::vector<double>, kOpKinds> latency;
  std::array<std::vector<double>, kOpKinds> window_p99;

  void add(const Segment& segment) {
    cpu_s += segment.cpu_s;
    ops += segment.outcomes.size();
    for (std::size_t k = 0; k < kOpKinds; ++k) {
      for (const TimedSample& t : segment.samples[k]) {
        latency[k].push_back(t.latency_ms);
      }
      const std::vector<double> w =
          segment.window_p99(static_cast<OpKind>(k));
      window_p99[k].insert(window_p99[k].end(), w.begin(), w.end());
    }
  }
  double p50(OpKind k) const {
    return median(latency[static_cast<std::size_t>(k)]);
  }
  double p99(OpKind k) const {
    return median(window_p99[static_cast<std::size_t>(k)]);
  }
  std::size_t count(OpKind k) const {
    return latency[static_cast<std::size_t>(k)].size();
  }
};

Segment run_segment(const Script& script, double rate, std::uint16_t port,
                    LoadOptions options) {
  Segment seg;
  seg.rate = rate;
  options.port = port;
  options.conns = kConnections;
  const double cpu0 = process_cpu_s();
  const double gen0 = thread_cpu_s();
  seg.report = run_open_loop(
      script.ops, script.base_seq,
      [&script](std::size_t i) { return script.frame(i); }, options,
      seg.outcomes);
  seg.gen_cpu_s = thread_cpu_s() - gen0;
  seg.cpu_s = process_cpu_s() - cpu0 - seg.gen_cpu_s;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    const OpOutcome& o = seg.outcomes[i];
    if (!o.answered || !o.ok) {
      ++seg.failed;
      continue;
    }
    seg.samples[static_cast<std::size_t>(script.ops[i].kind)].push_back(
        {o.due_s, o.latency_ms});
    seg.lag_ms.push_back(o.lag_ms);
  }
  return seg;
}

/// Count a segment's ops into the result and log it: every reply must
/// match a request, and every op counts as failed unless answered ok.
void account(Result& result, const Segment& seg, const char* label) {
  result.attempted += seg.outcomes.size();
  result.failed += seg.failed;
  const auto per_op_us = [&seg](double cpu_s) {
    return cpu_s * 1e6 / static_cast<double>(seg.outcomes.size());
  };
  std::fprintf(stderr,
               "%s: %.0f req/s, %zu ops, %zu failed, cpu %.1f us/op "
               "(generator %.1f, busy %.0f%%), read p50 %.4f p99 %.4f ms "
               "(%zu samples), lag p99 %.3f ms%s%s\n",
               label, seg.rate > 0.0 ? seg.rate : seg.capacity(),
               seg.outcomes.size(), seg.failed, per_op_us(seg.cpu_s),
               per_op_us(seg.gen_cpu_s),
               100.0 * seg.gen_cpu_s / seg.report.elapsed_s,
               seg.p50(OpKind::kRead), seg.p99(OpKind::kRead),
               seg.count(OpKind::kRead), quantile(seg.lag_ms, 0.99),
               seg.report.error.empty() ? "" : ", ",
               seg.report.error.c_str());
  if (seg.report.unmatched != 0) {
    result.fail(std::string(label) + ": " +
                std::to_string(seg.report.unmatched) + " unmatched replies");
  }
}

std::uint64_t script_seed(const Args& args, std::uint64_t index) {
  return abp::derive_seed(args.seed, 0x5c41f7ULL, index);
}

// ---------------------------------------------------------------------------
// Trace analysis shared by both serving workloads.

struct SpanIndex {
  /// seq -> spans, per layer.
  std::map<std::uint64_t, std::vector<Span>> by_seq;
  std::vector<Span> all;
  explicit SpanIndex(std::vector<Span> spans) : all(std::move(spans)) {
    for (const Span& s : all) {
      if (s.seq != 0) by_seq[s.seq].push_back(s);
    }
  }
  const Span* first(std::uint64_t seq, Layer layer) const {
    const auto it = by_seq.find(seq);
    if (it == by_seq.end()) return nullptr;
    const Span* best = nullptr;
    for (const Span& s : it->second) {
      if (s.layer == layer && (best == nullptr || s.t0 < best->t0)) best = &s;
    }
    return best;
  }
};

double span_ms(const Span& s) { return ms_between(s.t0, s.t1); }

void add_codec_metrics(Result& result, const Script& script,
                       const Segment& seg) {
  const auto per = [](double total_ns, std::size_t n) {
    return n == 0 ? 0.0 : total_ns / 1e3 / static_cast<double>(n);
  };
  result.add("serve.codec.encode_us",
             per(seg.report.encode_ns, script.ops.size()), "us");
  result.add("serve.codec.decode_us",
             per(seg.report.decode_ns, seg.report.decoded), "us");
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    std::vector<double> req, resp;
    for (std::size_t i = 0; i < script.ops.size(); ++i) {
      if (static_cast<std::size_t>(script.ops[i].kind) != k) continue;
      req.push_back(static_cast<double>(seg.outcomes[i].request_bytes));
      if (seg.outcomes[i].answered) {
        resp.push_back(static_cast<double>(seg.outcomes[i].response_bytes));
      }
    }
    const std::string kind = op_kind_name(static_cast<OpKind>(k));
    result.add("serve.codec.request_bytes." + kind, mean(req), "bytes");
    result.add("serve.codec.response_bytes." + kind, mean(resp), "bytes");
  }
}

/// Service counters summed over servers, so a segment's share can be taken
/// net of set-up and warm-up.
struct ServerCounters {
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  std::array<std::uint64_t, 4> shed{};  ///< overloaded, unavailable,
                                        ///< deadline, quota

  static ServerCounters read(const std::vector<const DirectServer*>& servers) {
    ServerCounters c;
    for (const DirectServer* s : servers) {
      const serve::ServiceMetrics& m = s->service->metrics();
      c.batches += m.batches();
      c.coalesced += m.coalesced_requests();
      c.shed[0] += m.shed(serve::Status::kOverloaded);
      c.shed[1] += m.shed(serve::Status::kUnavailable);
      c.shed[2] += m.shed(serve::Status::kDeadlineExceeded);
      c.shed[3] += m.quota_sheds();
    }
    return c;
  }
};

/// Server-side metrics of one segment: sink spans per endpoint, batching and
/// shedding between the `before` and `after` counter readings.
void add_server_metrics(Result& result, const SpanIndex& spans,
                        const ServerCounters& before,
                        const ServerCounters& after,
                        const std::vector<double>& queue_depths) {
  std::vector<double> localize, error_at;
  for (const Span& s : spans.all) {
    if (s.layer != Layer::kServer) continue;
    if (s.endpoint == serve::Endpoint::kLocalize) {
      localize.push_back(span_ms(s));
    } else if (s.endpoint == serve::Endpoint::kErrorAt) {
      error_at.push_back(span_ms(s));
    }
  }
  result.add("serve.server_ms.localize", median(localize), "ms");
  result.add("serve.server_ms.error_at", median(error_at), "ms");
  const std::uint64_t batches = after.batches - before.batches;
  result.add("serve.server.batch_size",
             batches == 0 ? 0.0
                          : static_cast<double>(after.coalesced -
                                                before.coalesced) /
                                static_cast<double>(batches),
             "requests");
  result.add("serve.server.queue_depth_p99", quantile(queue_depths, 0.99),
             "requests");
  const std::array<const char*, 4> causes{"overloaded", "unavailable",
                                          "deadline", "quota"};
  for (std::size_t c = 0; c < causes.size(); ++c) {
    result.add(std::string("serve.server.shed.") + causes[c],
               static_cast<double>(after.shed[c] - before.shed[c]), "count");
  }
}

/// Samples `queue_depth()` of the given servers every 0.5 ms while alive.
class QueueSampler {
 public:
  explicit QueueSampler(std::vector<const DirectServer*> servers)
      : servers_(std::move(servers)), thread_([this] { loop(); }) {}
  ~QueueSampler() { stop(); }
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

  std::vector<double> stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      for (const DirectServer* s : servers_) {
        samples_.push_back(static_cast<double>(s->server->queue_depth()));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  std::vector<const DirectServer*> servers_;
  std::vector<double> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< declared last: starts after the members it uses
};

/// Every 16th op's reply is kept for the reference comparison.
constexpr std::size_t kKeepEvery = 16;

/// Kept replies must be byte-identical to an in-process
/// `LocalizationService` holding the same deployments.
void check_against_reference(Result& result, serve::LocalizationService& ref,
                             const Script& script, const Segment& seg,
                             const char* label) {
  std::size_t differ = 0;
  for (const auto& [index, payload] : seg.report.kept) {
    if (serve::format_response(ref.handle(script.request(index))) != payload) {
      ++differ;
    }
  }
  const std::size_t compared = seg.report.kept.size();
  std::fprintf(stderr, "%s: %zu sampled replies compared to the reference\n",
               label, compared);
  if (differ != 0 || compared == 0) {
    result.fail(std::string(label) + ": " + std::to_string(differ) + " of " +
                std::to_string(compared) +
                " sampled replies differ from the in-process reference");
  }
}

// ---------------------------------------------------------------------------
// routed_survey end-of-segment checks.

void check_cluster(Result& result, Cluster& c, const Deployments& d,
                   const Script& script, const Segment& seg,
                   const char* label) {
  std::size_t writes = 0, acked = 0;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    if (script.ops[i].kind != OpKind::kWrite) continue;
    ++writes;
    if (seg.outcomes[i].ok) ++acked;
  }
  std::uint64_t appended = 0;
  for (const std::string& name : d.names) {
    appended += c.replicator->version(name) - c.installed_version[name];
  }
  if (appended != acked || acked != writes) {
    result.fail(std::string(label) + ": " + std::to_string(appended) +
                " log appends for " + std::to_string(acked) + " acked of " +
                std::to_string(writes) + " writes");
  }
  c.stop();
  // Replicas byte-identical per deployment.
  for (const std::string& name : d.names) {
    std::vector<std::string> bodies;
    for (const auto& b : c.backends) {
      serve::TcpClientTransport client("127.0.0.1", b->port(), 5.0);
      serve::Request request;
      request.endpoint = serve::Endpoint::kSnapshot;
      request.field = name;
      const serve::Response response = client.roundtrip(request);
      if (response.status != serve::Status::kOk) {
        result.fail(std::string(label) + ": snapshot of " + name + " failed");
      }
      bodies.push_back(response.text);
    }
    if (bodies.size() != 2 || bodies[0] != bodies[1] || bodies[0].empty()) {
      result.fail(std::string(label) + ": replicas of " + name + " differ");
    }
  }
  for (const auto& b : c.backends) {
    b->stop();
    const serve::ServiceMetrics& m = b->service->metrics();
    if (m.submitted() != m.completed() + m.shed_total()) {
      result.fail(std::string(label) + ": backend submitted " +
                  std::to_string(m.submitted()) + " != completed " +
                  std::to_string(m.completed()) + " + shed " +
                  std::to_string(m.shed_total()));
    }
  }
}

double setup_seconds(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// A short untimed burst of the workload's own traffic (connections up,
/// caches and worker threads warm) before anything is measured.
constexpr double kWarmupRate = 1000.0;
constexpr double kWarmupSeconds = 0.3;
constexpr std::uint64_t kWarmupScript = 999;
/// Seed index of the closed-loop capacity segments (plus the round).
constexpr std::uint64_t kCapacityScript = 1000;

void warm_up(const Script& warm, std::uint16_t port) {
  std::vector<OpOutcome> out;
  LoadOptions o;
  o.port = port;
  o.conns = kConnections;
  run_open_loop(
      warm.ops, warm.base_seq, [&warm](std::size_t i) { return warm.frame(i); },
      o, out);
}

/// `peak_rss_mb` is read right after the first nominal segment, so the
/// capacity segments, whose generator buffers would dominate, do not set
/// it.
void add_end_to_end(Result& result, const std::vector<double>& setup_s,
                    const NominalStats& nominal,
                    const std::vector<double>& capacity, double rss_mb,
                    const char* label) {
  std::fprintf(stderr,
               "%s nominal: read p50 %.4f p99 %.4f ms (%zu samples); "
               "capacity %.0f req/s, median of %zu segments\n",
               label, nominal.p50(OpKind::kRead), nominal.p99(OpKind::kRead),
               nominal.count(OpKind::kRead), median(capacity),
               capacity.size());
  result.add("setup_s", median(setup_s), "s");
  result.add("peak_rss_mb", rss_mb, "MB");
  result.add("rate_per_s", median(capacity), "1/s");
  result.add("cpu_us_per_op",
             nominal.cpu_s / static_cast<double>(nominal.ops) * 1e6, "us");
}

/// A closed-loop capacity script never runs out of time, only of ops.
constexpr double kUnpacedRate = 1e6;
constexpr double kUnpacedSeconds = 1e9;

}  // namespace

// ---------------------------------------------------------------------------

void run_node_reads(const Args& args, Result& result) {
  SpanStore store;  // outlives every server below
  const std::vector<std::string> flags{"--transport", "epoll", "--workers",
                                       "2"};
  const double stall = host_stall_ms_per_s();
  const Deployments d = generate_deployments(args.seed);

  // Set-up, timed: a whole server start (load, error maps, listener up).
  // Untraced runs also start and stop extra servers in every round, so
  // that one slow stretch of the host does not set the median.
  std::vector<double> setup_s;
  auto timed_start = [&] {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<DirectServer> s = start_server(flags, d, true, nullptr);
    setup_s.push_back(setup_seconds(t0));
    return s;
  };
  std::unique_ptr<DirectServer> server = timed_start();
  serve::LocalizationService reference(server->config.service_config());
  for (std::size_t i = 0; i < d.names.size(); ++i) {
    reference.add_field(d.names[i], abp::load_field(d.paths[i]));
  }

  std::uint64_t seq = 1;
  auto next_script = [&](double rate, double seconds, std::uint64_t index,
                         std::size_t max_ops = SIZE_MAX) {
    Script s = node_reads_script(d, rate, seconds, max_ops, seq,
                                 script_seed(args, index));
    seq += s.ops.size();
    return s;
  };
  warm_up(next_script(kWarmupRate, kWarmupSeconds, kWarmupScript),
          server->port());
  LoadOptions checked;
  checked.keep_every = kKeepEvery;
  // One checked segment against `server`.
  auto segment = [&](const Script& script, double rate, std::size_t window,
                     const std::string& label) {
    LoadOptions options = checked;
    options.window = window;
    Segment seg = run_segment(script, rate, server->port(), options);
    account(result, seg, label.c_str());
    check_against_reference(result, reference, script, seg, label.c_str());
    return seg;
  };

  const double rate = kNodeNominalRate;
  if (!args.trace) {
    const std::size_t rounds = args.tiny ? 2 : kRounds;
    const double nominal_s =
        kNominalShare * args.seconds / static_cast<double>(rounds);
    const std::size_t capacity_ops =
        args.tiny ? kNodeCapacityOps / 20 : kNodeCapacityOps;
    NominalStats nominal;
    std::vector<double> capacity;
    double rss_mb = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (int i = 0; i < kSetupsPerRound; ++i) timed_start();
      const std::string round = " round " + std::to_string(r);
      nominal.add(segment(next_script(rate, nominal_s, r), rate, 0,
                          "node_reads nominal" + round));
      if (r == 0) rss_mb = peak_rss_mb();
      capacity.push_back(
          segment(next_script(kUnpacedRate, kUnpacedSeconds,
                              kCapacityScript + r, capacity_ops),
                  0.0, kNodeWindow, "node_reads capacity" + round)
              .capacity());
    }
    add_end_to_end(result, setup_s, nominal, capacity, rss_mb, "node_reads");
    return;
  }

  // Traced run: a nominal segment untraced, then the same script again on a
  // fresh server whose sink is the timing decorator.
  const double secs = 0.4 * args.seconds;
  const Segment untraced =
      segment(next_script(rate, secs, 0), rate, 0, "node_reads untraced");
  server.reset();

  server = start_server(flags, d, true, &store);
  warm_up(next_script(kWarmupRate, kWarmupSeconds, kWarmupScript),
          server->port());
  store.take();
  const std::vector<const DirectServer*> servers{server.get()};
  const ServerCounters before = ServerCounters::read(servers);
  const Script script = next_script(rate, secs, 0);
  LoadOptions timed = checked;
  timed.time_codec = true;
  QueueSampler sampler(servers);
  const Segment traced = run_segment(script, rate, server->port(), timed);
  const std::vector<double> depths = sampler.stop();
  account(result, traced, "node_reads traced");
  check_against_reference(result, reference, script, traced,
                          "node_reads traced");
  server->stop();
  const SpanIndex spans(store.take());

  std::vector<double> transport_ms;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    const Span* s = spans.first(script.base_seq + i, Layer::kServer);
    if (s != nullptr && traced.outcomes[i].answered) {
      transport_ms.push_back(traced.outcomes[i].service_ms - span_ms(*s));
    }
  }
  add_codec_metrics(result, script, traced);
  result.add("serve.transport_ms", median(transport_ms), "ms");
  add_server_metrics(result, spans, before, ServerCounters::read(servers),
                     depths);
  server.reset();

  // The default transport's connection ceiling: unmodified defaults.
  {
    const std::unique_ptr<DirectServer> defaults =
        start_server({}, d, true, nullptr);
    result.add("serve.transport.default_conns_served",
               static_cast<double>(
                   probe_conns_served(defaults->port(), cpu_count(), 1.0)),
               "connections");
  }
  result.add("ops.read_p50_ms", untraced.p50(OpKind::kRead), "ms");
  result.add("ops.read_p99_ms", untraced.p99(OpKind::kRead), "ms");
  result.add("bench.gen_lag_p99_ms", quantile(untraced.lag_ms, 0.99), "ms");
  result.add("bench.host_stall_ms_per_s", stall, "ms/s");
  result.add("bench.trace_overhead",
             traced.p50(OpKind::kRead) / untraced.p50(OpKind::kRead) - 1.0,
             "ratio");
}

namespace {

/// Router counters, read after warm-up and after the seg.
struct RouterCounters {
  std::uint64_t hits = 0, misses = 0, invalidations = 0, filter_rejects = 0;
  std::uint64_t quorum_failures = 0, dedup_hits = 0;
  std::array<std::uint64_t, 2> forwarded{};
  std::uint64_t transport_failures = 0, retries = 0, installs = 0;

  static RouterCounters read(const Cluster& c) {
    const serve::RouterMetrics& m = c.metrics;
    RouterCounters r;
    r.hits = m.cache_hits();
    r.misses = m.cache_misses();
    r.invalidations = m.cache_invalidations();
    r.filter_rejects = m.filter_rejects();
    r.quorum_failures = m.write_quorum_failures();
    r.dedup_hits = m.write_dedup_hits();
    for (std::size_t b = 0; b < 2; ++b) {
      const serve::BackendSnapshot snap =
          m.backend_snapshot(c.config.backends[b]);
      r.forwarded[b] = snap.forwarded;
      r.transport_failures += snap.transport_failures;
      r.retries += snap.retries;
      r.installs += snap.installs;
    }
    return r;
  }
};

double count_delta(std::uint64_t after, std::uint64_t before) {
  return static_cast<double>(after - before);
}

}  // namespace

void run_routed_survey(const Args& args, Result& result) {
  SpanStore store;  // outlives every cluster below
  const std::vector<std::string> backend_flags{"--transport", "epoll"};
  const std::vector<std::string> router_flags{"--replication", "2",
                                              "--transport", "epoll"};
  const double stall = host_stall_ms_per_s();
  const Deployments d = generate_deployments(args.seed);
  std::vector<double> setup_s;
  constexpr std::uint64_t kBaseSeq = 1u << 20;

  // Each segment starts from freshly installed deployments. Set-up is timed
  // from the first backend's start until the router listens.
  auto fresh_cluster = [&](SpanStore* spans) {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Cluster> c =
        start_cluster(backend_flags, router_flags, d, spans);
    setup_s.push_back(setup_seconds(t0));
    warm_up(routed_script(d, kWarmupRate, kWarmupSeconds, SIZE_MAX, 1,
                          script_seed(args, kWarmupScript), kWarmupScript),
            c->port());
    for (const std::string& name : d.names) {
      c->installed_version[name] = c->replicator->version(name);
    }
    return c;
  };
  auto script_for = [&](double rate, double seconds, std::uint64_t index,
                        std::size_t max_ops = SIZE_MAX) {
    return routed_script(d, rate, seconds, max_ops, kBaseSeq,
                         script_seed(args, index), index);
  };
  // One segment on a fresh cluster, checked when it ends.
  auto segment = [&](const Script& script, double rate, std::size_t window,
                     const std::string& label) {
    std::unique_ptr<Cluster> c = fresh_cluster(nullptr);
    LoadOptions options;
    options.window = window;
    Segment seg = run_segment(script, rate, c->port(), options);
    account(result, seg, label.c_str());
    check_cluster(result, *c, d, script, seg, label.c_str());
    return seg;
  };

  const double rate = kRoutedNominalRate;
  if (!args.trace) {
    const std::size_t rounds = args.tiny ? 2 : kRounds;
    const double nominal_s =
        kNominalShare * args.seconds / static_cast<double>(rounds);
    const std::size_t capacity_ops =
        args.tiny ? kRoutedCapacityOps / 20 : kRoutedCapacityOps;
    NominalStats nominal;
    std::vector<double> capacity;
    double rss_mb = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::string round = " round " + std::to_string(r);
      nominal.add(segment(script_for(rate, nominal_s, r), rate, 0,
                          "routed_survey nominal" + round));
      if (r == 0) rss_mb = peak_rss_mb();
      capacity.push_back(
          segment(script_for(kUnpacedRate, kUnpacedSeconds, kCapacityScript + r,
                             capacity_ops),
                  0.0, kRoutedWindow, "routed_survey capacity" + round)
              .capacity());
    }
    for (std::size_t k = 1; k < kOpKinds; ++k) {
      const auto kind = static_cast<OpKind>(k);
      std::fprintf(stderr, "routed_survey nominal %s: p50 %.4f p99 %.4f ms "
                   "(%zu samples)\n", op_kind_name(kind), nominal.p50(kind),
                   nominal.p99(kind), nominal.count(kind));
    }
    add_end_to_end(result, setup_s, nominal, capacity, rss_mb,
                   "routed_survey");
    return;
  }

  // Traced run: a nominal segment untraced, then the same script traced,
  // each on a fresh cluster.
  const double secs = 0.4 * args.seconds;
  const Segment untraced =
      segment(script_for(rate, secs, 0), rate, 0, "routed_survey untraced");

  std::unique_ptr<Cluster> c = fresh_cluster(&store);
  store.take();  // drop set-up and warm-up spans
  std::vector<const DirectServer*> servers;
  for (const auto& b : c->backends) servers.push_back(b.get());
  const ServerCounters server_before = ServerCounters::read(servers);
  const RouterCounters before = RouterCounters::read(*c);
  const Script script = script_for(rate, secs, 0);
  LoadOptions timed;
  timed.time_codec = true;
  QueueSampler sampler(servers);
  const Segment traced = run_segment(script, rate, c->port(), timed);
  const std::vector<double> depths = sampler.stop();
  account(result, traced, "routed_survey traced");
  const RouterCounters after = RouterCounters::read(*c);
  const ServerCounters server_after = ServerCounters::read(servers);
  std::uint64_t appended = 0;
  for (const std::string& name : d.names) {
    appended += c->replicator->version(name) - c->installed_version[name];
  }
  std::size_t acked = 0;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    if (script.ops[i].kind == OpKind::kWrite && traced.outcomes[i].ok) ++acked;
  }
  check_cluster(result, *c, d, script, traced, "routed_survey traced");
  const SpanIndex spans(store.take());

  // Router spans per op kind, router self time, pool queueing.
  std::array<std::vector<double>, kOpKinds> router_ms;
  std::vector<double> self_ms, queue_ms, transport_ms;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    const std::uint64_t s = kBaseSeq + i;
    const Span* r = spans.first(s, Layer::kRouter);
    if (r == nullptr) continue;
    router_ms[static_cast<std::size_t>(script.ops[i].kind)].push_back(
        span_ms(*r));
    if (traced.outcomes[i].answered && script.ops[i].kind == OpKind::kRead) {
      transport_ms.push_back(traced.outcomes[i].service_ms - span_ms(*r));
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    const Span* first_forward = nullptr;
    for (const Span& child : spans.by_seq.at(s)) {
      if (child.layer != Layer::kForward) continue;
      children.emplace_back(child.t0, child.t1);
      if (first_forward == nullptr || child.t0 < first_forward->t0) {
        first_forward = &child;
      }
    }
    self_ms.push_back(
        ms_between(0, (r->t1 - r->t0) - covered_ns(children, r->t0, r->t1)));
    if (first_forward != nullptr) {
      queue_ms.push_back(ms_between(r->t0, first_forward->t0));
    }
  }
  std::array<std::vector<double>, 2> rtt, mutate_rtt;
  for (const Span& s : spans.all) {
    if (s.layer != Layer::kForward || s.backend > 1) continue;
    (s.endpoint == serve::Endpoint::kMutate ? mutate_rtt : rtt)[s.backend]
        .push_back(span_ms(s));
  }
  // Writes: the router span is the quorum wait, cluster.write.quorum_ms.
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    if (static_cast<OpKind>(k) == OpKind::kWrite) continue;
    result.add(std::string("cluster.router_ms.") +
                   op_kind_name(static_cast<OpKind>(k)),
               median(router_ms[k]), "ms");
  }
  result.add("cluster.router.self_ms", median(self_ms), "ms");
  const double hits = count_delta(after.hits, before.hits);
  const double lookups = hits + count_delta(after.misses, before.misses);
  result.add("cluster.cache.lookups", lookups, "count");
  result.add("cluster.cache.hit_ratio", lookups == 0 ? 0.0 : hits / lookups,
             "ratio");
  result.add("cluster.cache.invalidations",
             count_delta(after.invalidations, before.invalidations), "count");
  result.add("cluster.filter.rejects",
             count_delta(after.filter_rejects, before.filter_rejects),
             "count");
  result.add("cluster.pool.queue_ms", median(queue_ms), "ms");
  const double forwarded_total =
      count_delta(after.forwarded[0] + after.forwarded[1],
                  before.forwarded[0] + before.forwarded[1]);
  for (std::size_t b = 0; b < 2; ++b) {
    const std::string tag = ".b" + std::to_string(b);
    result.add("cluster.pool.rtt_ms" + tag, median(rtt[b]), "ms");
    result.add("cluster.pool.share" + tag,
               forwarded_total == 0
                   ? 0.0
                   : count_delta(after.forwarded[b], before.forwarded[b]) /
                         forwarded_total,
               "ratio");
    result.add("cluster.write.mutate_rtt_ms" + tag, median(mutate_rtt[b]),
               "ms");
  }
  result.add("cluster.pool.transport_failures",
             count_delta(after.transport_failures, before.transport_failures),
             "count");
  result.add("cluster.pool.retries", count_delta(after.retries, before.retries),
             "count");
  result.add("cluster.pool.installs",
             count_delta(after.installs, before.installs), "count");
  result.add("cluster.write.quorum_ms",
             median(router_ms[static_cast<std::size_t>(OpKind::kWrite)]),
             "ms");
  result.add("cluster.write.appends_per_write",
             acked == 0 ? 0.0
                        : static_cast<double>(appended) /
                              static_cast<double>(acked),
             "ratio");
  result.add("cluster.write.quorum_failures",
             count_delta(after.quorum_failures, before.quorum_failures),
             "count");
  result.add("cluster.write.dedup_hits",
             count_delta(after.dedup_hits, before.dedup_hits), "count");
  add_codec_metrics(result, script, traced);
  result.add("serve.transport_ms", median(transport_ms), "ms");
  add_server_metrics(result, spans, server_before, server_after, depths);
  result.add("ops.read_p50_ms", untraced.p50(OpKind::kRead), "ms");
  result.add("ops.read_p99_ms", untraced.p99(OpKind::kRead), "ms");
  for (std::size_t k = 1; k < kOpKinds; ++k) {
    const auto kind = static_cast<OpKind>(k);
    const std::string name = std::string("ops.") + op_kind_name(kind);
    result.add(name + "_p50_ms", untraced.p50(kind), "ms");
    result.add(name + "_p99_ms", untraced.p99(kind), "ms");
  }
  c.reset();

  // The default transport's connection ceiling: a router with unmodified
  // `RouterConfig` defaults over default backends.
  {
    const std::unique_ptr<Cluster> defaults = start_cluster({}, {}, d, nullptr);
    result.add("cluster.transport.default_conns_served",
               static_cast<double>(
                   probe_conns_served(defaults->port(), cpu_count(), 1.0)),
               "connections");
  }
  result.add("bench.gen_lag_p99_ms", quantile(untraced.lag_ms, 0.99), "ms");
  result.add("bench.host_stall_ms_per_s", stall, "ms/s");
  result.add("bench.trace_overhead",
             traced.p50(OpKind::kRead) / untraced.p50(OpKind::kRead) - 1.0,
             "ratio");
}

}  // namespace perfbench

namespace perfbench {
namespace {

/// One raw exchange: the reply payload bytes exactly as the server sent them.
std::string exchange(serve::TcpClientTransport& client,
                     const serve::Request& request) {
  client.send_raw(serve::encode_frame(serve::format_request(request)));
  return client.read_payload();
}

}  // namespace

void run_passthrough_selftest(const Args& args, Result& result) {
  const Deployments d = generate_deployments(args.seed);
  SpanStore store;
  const std::vector<std::string> epoll{"--transport", "epoll"};
  const std::unique_ptr<DirectServer> plain =
      start_server(epoll, d, true, nullptr);
  const std::unique_ptr<DirectServer> timed =
      start_server(epoll, d, true, &store);
  const std::unique_ptr<Cluster> routed = start_cluster(
      epoll, {"--replication", "2", "--transport", "epoll"}, d, &store);
  serve::TcpClientTransport to_plain("127.0.0.1", plain->port(), 5.0);
  serve::TcpClientTransport to_timed("127.0.0.1", timed->port(), 5.0);
  serve::TcpClientTransport to_routed("127.0.0.1", routed->port(), 5.0);

  // Reads, a survey tour and a proposal on every deployment; a write in
  // the middle so the second round reads through invalidated cache entries.
  std::vector<serve::Request> round;
  for (std::size_t i = 0; i < d.names.size(); ++i) {
    round.push_back(node_read(d, i, 0));
    round.push_back(node_read(d, i, 1));
    serve::Request tour;
    tour.endpoint = serve::Endpoint::kErrorAt;
    tour.field = d.names[i];
    for (int x = 0; x <= 100; ++x) tour.points.push_back({1.0 * x, 50.0});
    round.push_back(tour);
    serve::Request propose;
    propose.endpoint = serve::Endpoint::kPropose;
    propose.field = d.names[i];
    propose.algorithm = "grid";
    round.push_back(propose);
  }
  serve::Request write;
  write.endpoint = serve::Endpoint::kAddBeacon;
  write.field = d.names[0];
  write.points = {{37.5, 62.5}};

  std::uint64_t seq = 1;
  std::size_t compared = 0;
  auto compare_all = [&](serve::Request request, const char* what) {
    request.seq = seq++;
    const std::string direct = exchange(to_plain, request);
    const std::string traced = exchange(to_timed, request);
    const std::string first = exchange(to_routed, request);
    // A write is not repeated: a second delivery would add a second beacon.
    const bool write = request.endpoint == serve::Endpoint::kAddBeacon;
    const std::string second = write ? first : exchange(to_routed, request);
    ++compared;
    result.attempted += write ? 3 : 4;
    const std::optional<serve::Response> parsed =
        serve::parse_response(direct);
    if (!parsed || parsed->status != serve::Status::kOk) {
      result.fail(std::string(what) + ": direct reply not ok");
    }
    if (traced != direct) result.fail(std::string(what) + ": traced != direct");
    if (first != direct) result.fail(std::string(what) + ": routed != direct");
    if (second != direct) {
      result.fail(std::string(what) + ": second routed != direct");
    }
  };
  for (const serve::Request& r : round) compare_all(r, "round 1");
  compare_all(write, "write");
  for (const serve::Request& r : round) compare_all(r, "round 2");

  if (routed->metrics.cache_hits() == 0) {
    result.fail("no routed reply came from the response cache");
  }
  std::array<std::size_t, 3> per_layer{};
  for (const Span& s : store.take()) {
    ++per_layer[static_cast<std::size_t>(s.layer)];
  }
  if (per_layer[0] == 0 || per_layer[1] == 0 || per_layer[2] == 0) {
    result.fail("a timing decorator recorded no spans");
  }
  std::fprintf(stderr,
               "selftest: %zu requests compared across direct, traced, "
               "routed and cached paths; %" PRIu64 " cache hits; spans "
               "server %zu router %zu forward %zu\n",
               compared, routed->metrics.cache_hits(), per_layer[0],
               per_layer[1], per_layer[2]);
  result.add("selftest.requests", static_cast<double>(compared), "count");
}

}  // namespace perfbench
