/// tools/abp_cli.cc — the `abp` command-line workbench.
///
/// Drives the complete adaptive-beacon-placement lifecycle from a shell,
/// with beacon fields and surveys persisted in the library's text format:
///
///   abp generate --beacons 40 --out field.txt [--mode uniform|airdrop|
///                clustered|grid] [--seed S] [--side 100]
///   abp report   --field field.txt [--noise 0.3] [--render]
///   abp survey   --field field.txt --out survey.txt [--stride 2]
///                [--gps-sigma 1.0] [--noise 0.3]
///   abp place    --field field.txt --survey survey.txt --out field2.txt
///                [--algorithm grid|grid-norm|max|random|coverage|locus]
///                [--count 3] [--noise 0.3]
///   abp schedule --field field.txt --out field2.txt  (distributed on/off)
///   abp sweep    --figure 4|5|6|7|8|9 [--trials N] [--csv PATH]
///   abp serve    --field field.txt [--name default] [--noise X]
///                [--port P | --oneshot --in req.bin [--out resp.bin]]
///                [--workers N] [--batch B]
///   abp route    --field field.txt --backend H:P [--backend H:P ...]
///                [--replication R] [--write-quorum Q] [--log-retain L]
///                [--dedup 0|1] [--cache 0|1] [--cache-entries C]
///                [--quota-rps R [--quota-burst B]]
///                [--heartbeat-ms H] [--port P]
///                [--transport epoll]
///   abp route-admin add|drain|status --connect H:P [--backend H:P]
///   abp query    --type localize|error-at|propose|add-beacon|snapshot|
///                stats|list-fields [--points "x,y;x,y"] [--algorithm A]
///                [--name default] [--count K] [--principal ID]
///                [--request-id ID [--attempt N]]
///                (--field FILE | --connect HOST:PORT |
///                 --encode-to FILE [--append] | --decode FILE)
///
/// Exit status 0 on success; CheckFailure messages go to stderr with
/// status 1.
#include <poll.h>

#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/flags.h"
#include "common/table.h"
#include "eval/figures.h"
#include "eval/report.h"
#include "field/generators.h"
#include "io/field_io.h"
#include "loc/coverage.h"
#include "loc/error_map.h"
#include "loc/render.h"
#include "placement/coverage_placement.h"
#include "placement/distributed_scheduler.h"
#include "placement/grid_placement.h"
#include "placement/locus_placement.h"
#include "placement/max_placement.h"
#include "placement/random_placement.h"
#include "radio/noise_model.h"
#include "robot/surveyor.h"
#include "cluster/backend_pool.h"
#include "cluster/config.h"
#include "cluster/membership.h"
#include "cluster/replicator.h"
#include "cluster/ring.h"
#include "cluster/router.h"
#include "serve/client.h"
#include "serve/config.h"
#include "serve/server.h"
#include "serve/server_transport.h"
#include "serve/tcp_transport.h"
#include "serve/transport.h"
#include "terrain/heightmap.h"

namespace abp::cli {
namespace {

int usage() {
  std::cerr
      << "usage: abp <command> [flags]\n"
         "  generate --beacons N --out FILE [--mode uniform|airdrop|"
         "clustered|grid] [--seed S] [--side M]\n"
         "  report   --field FILE [--noise X] [--render]\n"
         "  survey   --field FILE --out FILE [--stride K] [--gps-sigma S] "
         "[--noise X] [--seed S]\n"
         "  place    --field FILE --survey FILE --out FILE [--algorithm A] "
         "[--count K] [--noise X] [--seed S]\n"
         "  schedule --field FILE --out FILE [--seed S]\n"
         "  sweep    --figure 4|5|6|7|8|9 [--trials N] [--csv PATH] "
         "[--stride K] [--seed S]\n"
         "  serve    --field FILE [--name N] [--noise X] [--seed S] "
         "[--workers W] [--batch B]\n"
         "           [--max-queue Q] [--max-inflight I] "
         "[--retry-after-ms H] [--dedup-window D]\n"
         "           [--quota-rps R [--quota-burst B]]\n"
         "           [--transport epoll] [--event-shards E]\n"
         "           [--read-timeout-s R] [--write-timeout-s W]\n"
         "           [--port P | --oneshot --in REQ [--out RESP]]\n"
         "  route    --field FILE --backend HOST:PORT [--backend ...] "
         "[--name N]\n"
         "           [--replication R] [--write-quorum Q] [--log-retain L] "
         "[--dedup 0|1]\n"
         "           [--cache 0|1] [--cache-entries C] "
         "[--quota-rps R [--quota-burst B]]\n"
         "           [--heartbeat-ms H] [--failure-threshold F]\n"
         "           [--transport epoll] [--event-shards E] "
         "[--port P]\n"
         "           [--max-inflight I] [--retry-after-ms H] "
         "[--connect-timeout-s C]\n"
         "           [--admin 0|1] [--drain-timeout-ms D]\n"
         "  route-admin add|drain|status --connect HOST:PORT "
         "[--backend HOST:PORT] [--timeout-s T]\n"
         "  query    --type T [--points \"x,y;x,y\"] [--algorithm A] "
         "[--name N] [--count K]\n"
         "           [--principal ID] [--deadline-ms D] [--retries R] "
         "[--budget-ms B] [--request-id ID [--attempt N]]\n"
         "           (--field FILE | --connect HOST:PORT | "
         "--encode-to FILE [--append] | --decode FILE)\n";
  return 2;
}

PerBeaconNoiseModel make_model(const BeaconField& field, double noise,
                               std::uint64_t seed) {
  (void)field;
  return PerBeaconNoiseModel(15.0, noise, derive_seed(seed, 2));
}

int cmd_generate(const Flags& flags) {
  const auto beacons =
      static_cast<std::size_t>(flags.get_int("beacons", 40));
  const std::string out = flags.get_string("out", "");
  const std::string mode = flags.get_string("mode", "uniform");
  const double side = flags.get_double("side", 100.0);
  const std::uint64_t seed = flags.get_u64("seed", 1);
  flags.check_unused();
  ABP_CHECK(!out.empty(), "generate requires --out");

  BeaconField field(AABB::square(side));
  Rng rng(seed);
  if (mode == "uniform") {
    scatter_uniform(field, beacons, rng);
  } else if (mode == "airdrop") {
    const HillTerrain hill(field.bounds(), field.bounds().center(),
                           30.0, side / 6.0);
    airdrop(field, beacons, hill, rng);
  } else if (mode == "clustered") {
    scatter_clustered(field, beacons, 4, side / 16.0, rng);
  } else if (mode == "grid") {
    const auto per_axis = static_cast<std::size_t>(
        std::llround(std::sqrt(static_cast<double>(beacons))));
    ABP_CHECK(per_axis * per_axis == beacons,
              "--mode grid needs a square --beacons count");
    place_grid(field, per_axis, per_axis);
  } else {
    ABP_CHECK(false, "unknown --mode: " + mode);
  }
  save_field(out, field);
  std::cout << "wrote " << field.size() << " beacons to " << out << "\n";
  return 0;
}

int cmd_report(const Flags& flags) {
  const std::string path = flags.get_string("field", "");
  const double noise = flags.get_double("noise", 0.0);
  const bool render = flags.get_bool("render", false);
  const std::uint64_t seed = flags.get_u64("seed", 1);
  flags.check_unused();
  ABP_CHECK(!path.empty(), "report requires --field");

  const BeaconField field = load_field(path);
  const PerBeaconNoiseModel model = make_model(field, noise, seed);
  const Lattice2D lattice(field.bounds(), 1.0);
  ErrorMap map(lattice);
  map.compute(field, model);
  const CoverageStats coverage = analyze_coverage(field, model, lattice);

  TextTable table({"metric", "value"});
  table.add_row({"beacons (active/total)",
                 std::to_string(field.active_count()) + "/" +
                     std::to_string(field.size())});
  table.add_row({"density (/m^2)", TextTable::fmt(field.density(), 4)});
  table.add_row({"mean LE (m)", TextTable::fmt(map.mean(), 2)});
  table.add_row({"median LE (m)", TextTable::fmt(map.median(), 2)});
  table.add_row({"uncovered (%)",
                 TextTable::fmt(100.0 * map.uncovered_fraction(), 1)});
  table.add_row({"3-covered (%)",
                 TextTable::fmt(100.0 * coverage.at_least(3), 1)});
  table.add_row({"beacon-graph components",
                 std::to_string(coverage.components)});
  table.add_row({"isolated beacons",
                 std::to_string(coverage.isolated_beacons)});
  table.print(std::cout);
  if (render) {
    std::cout << '\n';
    render_error_map(std::cout, map, &field, {.show_beacons = true});
    std::cout << render_legend() << '\n';
  }
  return 0;
}

int cmd_survey(const Flags& flags) {
  const std::string field_path = flags.get_string("field", "");
  const std::string out = flags.get_string("out", "");
  const auto stride = static_cast<std::size_t>(flags.get_int("stride", 1));
  const double gps_sigma = flags.get_double("gps-sigma", 0.0);
  const double noise = flags.get_double("noise", 0.0);
  const std::uint64_t seed = flags.get_u64("seed", 1);
  flags.check_unused();
  ABP_CHECK(!field_path.empty() && !out.empty(),
            "survey requires --field and --out");

  const BeaconField field = load_field(field_path);
  const PerBeaconNoiseModel model = make_model(field, noise, seed);
  const Lattice2D lattice(field.bounds(), 1.0);
  const Surveyor surveyor(field, model, {.gps = GpsModel(gps_sigma)});
  Rng rng(derive_seed(seed, 7));
  const SurveyData survey =
      surveyor.survey(lattice, boustrophedon_tour(lattice, stride), rng);
  save_survey(out, survey);
  std::cout << "surveyed " << survey.measured_count() << " points ("
            << TextTable::fmt(100.0 * survey.coverage(), 1)
            << "% of the lattice), mean reading "
            << TextTable::fmt(survey.mean(), 2) << " m → " << out << "\n";
  return 0;
}

const PlacementAlgorithm& algorithm_by_name(const std::string& name) {
  static const RandomPlacement random;
  static const MaxPlacement max;
  static const GridPlacement grid;
  static const GridPlacement grid_norm(400, 2.0, true);
  static const CoveragePlacement coverage;
  static const LocusPlacement locus;
  if (name == "random") return random;
  if (name == "max") return max;
  if (name == "grid") return grid;
  if (name == "grid-norm") return grid_norm;
  if (name == "coverage") return coverage;
  if (name == "locus") return locus;
  ABP_CHECK(false, "unknown --algorithm: " + name);
  return grid;  // unreachable
}

int cmd_place(const Flags& flags) {
  const std::string field_path = flags.get_string("field", "");
  const std::string survey_path = flags.get_string("survey", "");
  const std::string out = flags.get_string("out", "");
  const std::string algorithm = flags.get_string("algorithm", "grid");
  const auto count = static_cast<std::size_t>(flags.get_int("count", 1));
  const double noise = flags.get_double("noise", 0.0);
  const std::uint64_t seed = flags.get_u64("seed", 1);
  flags.check_unused();
  ABP_CHECK(!field_path.empty() && !out.empty(),
            "place requires --field and --out");

  BeaconField field = load_field(field_path);
  const PerBeaconNoiseModel model = make_model(field, noise, seed);
  const Lattice2D lattice(field.bounds(), 1.0);
  ErrorMap map(lattice);
  map.compute(field, model);
  const double before = map.mean();

  const PlacementAlgorithm& alg = algorithm_by_name(algorithm);
  Rng rng(derive_seed(seed, 9));
  for (std::size_t k = 0; k < count; ++k) {
    // Use the provided survey for the first placement; re-measure (exact)
    // for subsequent ones.
    SurveyData survey = (k == 0 && !survey_path.empty())
                            ? load_survey(survey_path)
                            : SurveyData::from_error_map(map);
    PlacementContext ctx =
        PlacementContext::basic(survey, field.bounds(), 15.0);
    ctx.field = &field;
    ctx.model = &model;
    ctx.truth = &map;
    const Vec2 pos = field.bounds().clamp(alg.propose(ctx, rng));
    const BeaconId id = field.add(pos);
    map.apply_addition(field, model, *field.get(id));
    std::cout << "placed beacon " << id << " at (" << TextTable::fmt(pos.x, 1)
              << ", " << TextTable::fmt(pos.y, 1) << ")\n";
  }
  save_field(out, field);
  std::cout << "mean LE " << TextTable::fmt(before, 2) << " m → "
            << TextTable::fmt(map.mean(), 2) << " m; wrote " << out << "\n";
  return 0;
}

int cmd_schedule(const Flags& flags) {
  const std::string field_path = flags.get_string("field", "");
  const std::string out = flags.get_string("out", "");
  const std::uint64_t seed = flags.get_u64("seed", 1);
  flags.check_unused();
  ABP_CHECK(!field_path.empty() && !out.empty(),
            "schedule requires --field and --out");

  BeaconField field = load_field(field_path);
  Rng rng(derive_seed(seed, 11));
  const auto result = distributed_density_control(field, {}, rng);
  save_field(out, field);
  std::cout << "self-scheduling: " << result.initial_active << " → "
            << result.final_active << " active in " << result.rounds
            << " rounds (" << (result.converged ? "converged" : "capped")
            << "); wrote " << out << "\n";
  return 0;
}

int cmd_sweep(const Flags& flags) {
  const int figure = flags.get_int("figure", 4);
  FigureOptions opt;
  opt.trials = static_cast<std::size_t>(flags.get_int("trials", 30));
  opt.count_stride = static_cast<std::size_t>(flags.get_int("stride", 2));
  opt.seed = flags.get_u64("seed", 20010421);
  const std::string csv = flags.get_string("csv", "");
  flags.check_unused();

  SweepOutcome out;
  switch (figure) {
    case 4: out = run_fig4(opt); break;
    case 5: out = run_fig5(opt); break;
    case 6: out = run_fig6(opt); break;
    case 7: out = run_fig_alg_noise("random", opt); break;
    case 8: out = run_fig_alg_noise("max", opt); break;
    case 9: out = run_fig_alg_noise("grid", opt); break;
    default: ABP_CHECK(false, "--figure must be 4..9");
  }
  if (out.algorithm_names.empty()) {
    print_mean_error_table(std::cout, out);
  } else if (out.cells.size() == 1) {
    print_improvement_tables(std::cout, out, 0);
  } else {
    print_algorithm_noise_tables(std::cout, out, 0);
  }
  maybe_write_csv(csv, out);
  return 0;
}

// ---- serving -----------------------------------------------------------

volatile std::sig_atomic_t g_stop_requested = 0;
void handle_stop_signal(int) { g_stop_requested = 1; }

void print_response(const serve::Response& response) {
  std::cout << "seq " << response.seq << " status "
            << serve::status_name(response.status) << "\n";
  if (!response.message.empty()) {
    std::cout << "message " << response.message << "\n";
  }
  for (const serve::PointEstimate& e : response.estimates) {
    std::cout << "estimate (" << TextTable::fmt(e.estimate.x, 2) << ", "
              << TextTable::fmt(e.estimate.y, 2) << ") connected "
              << e.connected << "\n";
  }
  for (const double v : response.errors) {
    std::cout << "error " << TextTable::fmt(v, 2) << "\n";
  }
  for (const Vec2 p : response.positions) {
    std::cout << "position (" << TextTable::fmt(p.x, 2) << ", "
              << TextTable::fmt(p.y, 2) << ")\n";
  }
  for (const std::uint32_t id : response.beacon_ids) {
    std::cout << "beacon-id " << id << "\n";
  }
  if (response.version != 0) {
    std::cout << "version " << response.version << "\n";
  }
  if (response.mutation_ack != 0) {
    std::cout << "mutation-ack " << response.mutation_ack << "\n";
  }
  if (!response.text.empty()) std::cout << response.text;
}

/// One-shot mode: feed every frame in `in` through the loopback transport,
/// append each response frame to `out`. Malformed framing yields one
/// bad-request response frame for the rest of the stream (framing cannot
/// resync). Returns the number of requests answered.
std::size_t serve_oneshot(serve::Server& server, std::istream& in,
                          std::ostream& out) {
  serve::LoopbackTransport loopback(server);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  serve::FrameDecoder decoder;
  decoder.feed(bytes);
  std::size_t served = 0;
  for (;;) {
    std::optional<std::string> payload = decoder.next();
    if (!payload) break;
    // Re-frame so the loopback path exercises the full codec.
    out << loopback.roundtrip_frame(serve::encode_frame(*payload));
    ++served;
  }
  if (decoder.corrupt() || decoder.buffered() > 0) {
    out << serve::encode_frame(serve::refuse_bad_frame(
        server, decoder.buffered(),
        decoder.corrupt() ? decoder.error() : "truncated trailing frame"));
    ++served;
  }
  return served;
}

int cmd_serve(const Flags& flags) {
  const serve::ServeConfig config = serve::ServeConfig::from_flags(flags);
  flags.check_unused();

  serve::LocalizationService service(config.service_config());
  service.add_field(config.name, load_field(config.field_path));
  serve::Server server(service, config.server_options());

  if (config.oneshot) {
    std::ifstream in(config.in_path, std::ios::binary);
    ABP_CHECK(in.good(), "cannot open for reading: " + config.in_path);
    std::size_t served = 0;
    if (config.out_path.empty()) {
      served = serve_oneshot(server, in, std::cout);
    } else {
      std::ofstream out(config.out_path, std::ios::binary);
      ABP_CHECK(out.good(), "cannot open for writing: " + config.out_path);
      served = serve_oneshot(server, in, out);
    }
    server.shutdown();
    std::cerr << "served " << served << " request(s) from " << config.in_path
              << "\n"
              << service.metrics().render_text();
    return 0;
  }

  const std::unique_ptr<serve::ServerTransport> transport =
      serve::make_server_transport(config.transport, server,
                                   config.transport_options());
  transport->start();
  std::cout << "serving field '" << config.name << "' on 127.0.0.1:"
            << transport->port() << " (transport "
            << serve::transport_kind_name(config.transport)
            << ", workers " << config.workers << ", batch " << config.batch
            << ", max-queue " << config.max_queue << ", max-inflight "
            << config.max_inflight << "); Ctrl-C to stop\n"
            << std::flush;  // scripts parse the port from a redirected log
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop_requested == 0) {
    pollfd none{-1, 0, 0};
    ::poll(&none, 0, 200);  // sleep, interruptible by signals
  }
  std::cout << "\nshutting down: draining in-flight requests\n";
  transport->stop();
  server.shutdown();
  std::cout << service.metrics().render_text();
  return 0;
}

int cmd_route(const Flags& flags) {
  const cluster::RouterConfig config = cluster::RouterConfig::from_flags(flags);
  flags.check_unused();

  // Canonicalize the field through the text codec so the routed snapshot is
  // byte-identical to what `abp serve --field` would load.
  const BeaconField field = load_field(config.field_path);
  std::ostringstream field_text;
  write_field(field_text, field);

  serve::RouterMetrics metrics;
  cluster::MembershipTable membership(config.backends);
  cluster::BackendPool pool(config.backends, config.pool_options(), metrics);
  cluster::Replicator replicator(pool, membership, config.replication,
                                 metrics, config.log_retain);
  pool.set_recovery_callback(
      [&replicator](const std::string& backend) {
        replicator.sync_backend(backend);
      });
  cluster::Router router(membership, pool, replicator, metrics,
                         config.router_options());

  pool.start();
  replicator.set_deployment(config.name, field_text.str());
  const std::size_t installs = replicator.sync_all();
  std::cout << "synced deployment '" << config.name << "' to " << installs
            << "/" << replicator.owners(config.name).size()
            << " replica(s)\n";

  const std::unique_ptr<serve::ServerTransport> transport =
      serve::make_server_transport(config.transport, router,
                                   config.transport_options());
  transport->start();
  std::cout << "routing deployment '" << config.name << "' on 127.0.0.1:"
            << transport->port() << " (transport "
            << serve::transport_kind_name(config.transport)
            << ", backends " << config.backends.size() << ", replication "
            << config.replication << "); Ctrl-C to stop\n"
            << std::flush;  // scripts parse the port from a redirected log
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop_requested == 0) {
    pollfd none{-1, 0, 0};
    ::poll(&none, 0, 200);  // sleep, interruptible by signals
    pool.tick();  // probe cadence is gated inside tick()
  }
  std::cout << "\nshutting down: draining in-flight forwards\n";
  transport->stop();
  pool.stop();
  std::cout << metrics.render_text();
  return 0;
}

int cmd_route_admin(const Flags& flags) {
  // Verb-first shape: `abp route-admin add --connect H:P --backend H2:P2`.
  const std::vector<std::string>& positional = flags.positional();
  ABP_CHECK(positional.size() == 1,
            "route-admin wants exactly one verb: add|drain|status");
  const std::string& verb = positional.front();
  ABP_CHECK(verb == "add" || verb == "drain" || verb == "status",
            "route-admin verb must be add|drain|status (got '" + verb + "')");
  const std::string connect = flags.get_string("connect", "");
  const std::string backend = flags.get_string("backend", "");
  // Handoffs ship snapshots and wait for drains, so the default response
  // wait is generous compared to query's.
  const double timeout_s = flags.get_double("timeout-s", 60.0);
  flags.check_unused();
  ABP_CHECK(!connect.empty(), "route-admin requires --connect HOST:PORT");
  if (verb == "status") {
    ABP_CHECK(backend.empty(), "route-admin status takes no --backend");
  } else {
    ABP_CHECK(!backend.empty(),
              "route-admin " + verb + " requires --backend HOST:PORT");
    cluster::parse_backend_address(backend);  // reject bad shapes client-side
  }

  const auto colon = connect.rfind(':');
  ABP_CHECK(colon != std::string::npos, "--connect wants HOST:PORT");
  const std::string host = connect.substr(0, colon);
  std::istringstream port_is(connect.substr(colon + 1));
  std::uint16_t port = 0;
  port_is >> port;
  ABP_CHECK(!port_is.fail() && port_is.eof() && port != 0,
            "bad --connect port");

  serve::Request request;
  request.endpoint = serve::Endpoint::kAdmin;
  request.algorithm = verb;  // the verb rides the free-form algorithm record
  if (!backend.empty()) request.text = backend + "\n";

  serve::TcpClientTransport transport(host, port, timeout_s);
  const serve::Response response = transport.roundtrip(request);
  print_response(response);
  return response.status == serve::Status::kOk ? 0 : 1;
}

int cmd_query_decode(const serve::QueryConfig& config) {
  std::ifstream in(config.decode_path, std::ios::binary);
  ABP_CHECK(in.good(), "cannot open for reading: " + config.decode_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  serve::FrameDecoder decoder;
  decoder.feed(buffer.str());
  std::size_t frames = 0;
  while (const auto payload = decoder.next()) {
    std::string error;
    const auto response = serve::parse_response(*payload, &error);
    ABP_CHECK(response.has_value(), "bad response payload: " + error);
    print_response(*response);
    ++frames;
  }
  ABP_CHECK(!decoder.corrupt(), "corrupt frame: " + decoder.error());
  std::cout << "decoded " << frames << " response frame(s)\n";
  return 0;
}

int cmd_query_encode(const serve::QueryConfig& config) {
  std::ofstream out(config.encode_path,
                    std::ios::binary |
                        (config.append ? std::ios::app : std::ios::trunc));
  ABP_CHECK(out.good(), "cannot open for writing: " + config.encode_path);
  std::string frame =
      serve::encode_frame(serve::format_request(config.request));
  // --corrupt: deliberately break the magic for rejection tests.
  if (config.corrupt) frame[0] = 'X';
  out << frame;
  std::cout << "wrote " << frame.size() << " byte frame to "
            << config.encode_path << "\n";
  return 0;
}

int cmd_query_connect(const serve::QueryConfig& config) {
  // Reconnect-per-attempt factory: overloaded/unavailable responses,
  // resets and timeouts retry with decorrelated-jitter backoff (or the
  // server's retry-after hint); terminal statuses print immediately.
  serve::RetryingClient client(
      [&config] {
        return std::make_unique<serve::TcpClientTransport>(config.host,
                                                           config.port);
      },
      config.retry);
  const serve::CallResult result = client.call(config.request);
  if (!result.ok) {
    throw serve::ServeError(result.error + " (after " +
                            std::to_string(result.attempts) +
                            " attempt(s))");
  }
  if (result.attempts > 1) {
    std::cerr << "note: succeeded after " << result.attempts << " attempts ("
              << TextTable::fmt(result.backoff_ms, 1) << " ms backoff)\n";
  }
  print_response(result.response);
  return 0;
}

int cmd_query_local(const serve::QueryConfig& config) {
  serve::ServiceConfig service_config;
  service_config.noise = config.noise;
  service_config.seed = config.seed;
  serve::LocalizationService service(service_config);
  service.add_field(config.request.field, load_field(config.field_path));
  serve::Server::Options server_options;
  server_options.workers = 0;
  server_options.max_batch = config.batch;
  serve::Server server(service, server_options);
  serve::LoopbackTransport loopback(server);
  print_response(loopback.roundtrip(config.request));
  return 0;
}

int cmd_query(const Flags& flags) {
  const serve::QueryConfig config = serve::QueryConfig::from_flags(flags);
  flags.check_unused();
  switch (config.mode) {
    case serve::QueryConfig::Mode::kDecode: return cmd_query_decode(config);
    case serve::QueryConfig::Mode::kEncode: return cmd_query_encode(config);
    case serve::QueryConfig::Mode::kConnect: return cmd_query_connect(config);
    case serve::QueryConfig::Mode::kLocalField: return cmd_query_local(config);
  }
  return usage();  // unreachable
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Flags flags(argc - 1, argv + 1);
  if (command == "generate") return cmd_generate(flags);
  if (command == "report") return cmd_report(flags);
  if (command == "survey") return cmd_survey(flags);
  if (command == "place") return cmd_place(flags);
  if (command == "schedule") return cmd_schedule(flags);
  if (command == "sweep") return cmd_sweep(flags);
  if (command == "serve") return cmd_serve(flags);
  if (command == "route") return cmd_route(flags);
  if (command == "route-admin") return cmd_route_admin(flags);
  if (command == "query") return cmd_query(flags);
  std::cerr << "unknown command: " << command << "\n";
  return usage();
}

}  // namespace
}  // namespace abp::cli

int main(int argc, char** argv) {
  try {
    return abp::cli::run(argc, argv);
  } catch (const abp::CheckFailure& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const abp::serve::ServeError& e) {
    std::cerr << "transport error: " << e.what() << "\n";
    return 1;
  }
}
