/// bench_serve_throughput — queries/second of the localization query
/// service across the two knobs that matter for serving: the coalescing
/// batch size B and the worker count.
///
/// Each iteration pushes a window of pipelined localize requests through
/// the loopback transport (full wire codec: format → frame → decode →
/// parse → dispatch → format → frame), so the numbers include codec cost,
/// not just the localization pass. `items_processed` is requests, so
/// benchmark output reports queries/sec directly — the batched
/// configurations must beat batch=1 because B queued queries share one
/// queue take, one deployment lookup and one read-view load.
/// `BM_TcpConnectionScaling` extends the grid over real TCP: N pipelined
/// connections (window 4 each) against the epoll server transport, showing
/// goodput as connections grow. All load generation goes through the
/// `ClientTransport` interface (`send_async`/`flush`) — no
/// transport-specific casts.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "field/generators.h"
#include "serve/server.h"
#include "serve/server_transport.h"
#include "serve/tcp_transport.h"
#include "serve/transport.h"

namespace abp::serve {
namespace {

constexpr std::size_t kBeacons = 60;
constexpr std::size_t kWindow = 256;  ///< pipelined requests per iteration

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

Request localize_request(std::uint64_t seq) {
  Request request;
  request.seq = seq;
  request.endpoint = Endpoint::kLocalize;
  // Spread probes deterministically over the terrain.
  const double t = static_cast<double>(seq % kWindow) / kWindow;
  request.points = {{100.0 * t, 100.0 * (1.0 - t)}};
  return request;
}

/// Pipelined load through the loopback transport. With workers == 0 the
/// queue is drained by pump() after the window is submitted (pure batching
/// effect, no thread handoff); with workers > 0 the pool drains it
/// concurrently and we block until every reply lands.
void BM_ServeThroughput(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));

  LocalizationService service(bench_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = workers;
  options.max_batch = batch;
  Server server(service, options);
  LoopbackTransport loopback(server);
  // Drive through the interface: flush() blocks until every pipelined
  // reply has landed (and pumps first when the server is manual-mode).
  ClientTransport& transport = loopback;

  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kWindow; ++i) {
      transport.send_async(localize_request(seq++), [](std::string) {});
    }
    transport.flush();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindow));
  const ServiceCounts counts = service.metrics().counts();
  state.counters["batches"] = static_cast<double>(counts.batches);
  state.counters["reqs_per_batch"] =
      counts.batches == 0 ? 0.0
                          : static_cast<double>(counts.coalesced) /
                                static_cast<double>(counts.batches);
}

// Batch size 1, 8, 64 × workers 1, 4, with 2 workers at batch 1 and 64 to
// show how throughput scales with workers — plus the manual-mode rows
// (workers 0) that isolate batching from threading.
BENCHMARK(BM_ServeThroughput)
    ->ArgNames({"batch", "workers"})
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({64, 1})
    ->Args({1, 2})
    ->Args({64, 2})
    ->Args({1, 4})
    ->Args({8, 4})
    ->Args({64, 4})
    ->UseRealTime();

/// Point throughput for multi-point requests: the kLocalize handler
/// resolves a whole request in one fused survey-kernel call, so
/// points-per-second should rise with points-per-request far past what the
/// per-request codec allows. `items_processed` is points, not requests.
void BM_ServePointThroughput(benchmark::State& state) {
  const auto points = static_cast<std::size_t>(state.range(0));

  LocalizationService service(bench_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = 0;
  options.max_batch = 8;
  Server server(service, options);
  LoopbackTransport loopback(server);
  ClientTransport& transport = loopback;

  constexpr std::size_t kRequests = 64;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kRequests; ++i) {
      Request request;
      request.seq = seq++;
      request.endpoint = Endpoint::kLocalize;
      request.points.reserve(points);
      // A coherent probe track across the terrain, like a survey tour.
      const double y = 100.0 * static_cast<double>(i) / kRequests;
      for (std::size_t k = 0; k < points; ++k) {
        request.points.push_back(
            {100.0 * static_cast<double>(k) / static_cast<double>(points), y});
      }
      transport.send_async(request, [](std::string) {});
    }
    transport.flush();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRequests * points));
}

BENCHMARK(BM_ServePointThroughput)
    ->ArgNames({"points"})
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->UseRealTime();

/// Real-TCP scaling: `conns` pipelined client connections, window 4 each,
/// against the epoll server transport (2 shards). Goodput per iteration is
/// conns × 4 requests, all flushed through the `ClientTransport` interface.
void BM_TcpConnectionScaling(benchmark::State& state) {
  const auto conns = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kConnWindow = 4;

  LocalizationService service(bench_config());
  service.add_field("default", make_field());
  Server::Options options;
  options.workers = 4;
  options.max_batch = 16;
  Server server(service, options);
  TransportOptions transport_options;
  transport_options.event_shards = 2;
  const std::unique_ptr<ServerTransport> transport = make_server_transport(
      TransportKind::kEpoll, server, transport_options);
  transport->start();

  std::vector<std::unique_ptr<TcpClientTransport>> clients;
  clients.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    clients.push_back(std::make_unique<TcpClientTransport>(
        "127.0.0.1", transport->port(), 10.0));
  }

  std::uint64_t seq = 0;
  for (auto _ : state) {
    for (const std::unique_ptr<TcpClientTransport>& client : clients) {
      for (std::size_t k = 0; k < kConnWindow; ++k) {
        client->send_async(localize_request(seq++), [](std::string) {});
      }
    }
    for (const std::unique_ptr<TcpClientTransport>& client : clients) {
      client->flush();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(conns * kConnWindow));
  state.counters["accepted"] =
      static_cast<double>(transport->connections_accepted());
  clients.clear();
  transport->stop();
  server.shutdown();
}

BENCHMARK(BM_TcpConnectionScaling)
    ->ArgNames({"conns"})
    ->Arg(8)
    ->Arg(64)
    ->UseRealTime();

}  // namespace
}  // namespace abp::serve

BENCHMARK_MAIN();
