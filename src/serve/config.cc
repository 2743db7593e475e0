#include "serve/config.h"

#include <sstream>
#include <vector>

#include "common/assert.h"

namespace abp::serve {

namespace {

/// Parse "x,y;x,y;…" into points (query --points).
std::vector<Vec2> parse_point_list(const std::string& text) {
  std::vector<Vec2> points;
  std::istringstream groups(text);
  std::string group;
  while (std::getline(groups, group, ';')) {
    if (group.empty()) continue;
    std::istringstream is(group);
    double x, y;
    char comma = '\0';
    is >> x >> comma >> y;
    ABP_CHECK(!is.fail() && comma == ',',
              "bad --points entry (want x,y): " + group);
    points.push_back({x, y});
  }
  return points;
}

}  // namespace

TransportKind transport_from_flags(const Flags& flags) {
  const std::string name = flags.get_string("transport", "epoll");
  const std::optional<TransportKind> kind = transport_kind_from_name(name);
  ABP_CHECK(kind.has_value(),
            "unknown --transport '" + name + "': epoll is the only transport");
  return *kind;
}

ServeConfig ServeConfig::from_flags(const Flags& flags) {
  ServeConfig config;
  FlagTable()
      .text("field", &config.field_path)
      .text("name", &config.name)
      .number("noise", &config.noise)
      .u64("seed", &config.seed)
      .size("dedup-window", &config.dedup_window)
      .boolean("oneshot", &config.oneshot)
      .text("in", &config.in_path)
      .text("out", &config.out_path)
      .size("workers", &config.workers)
      .size("batch", &config.batch)
      .size("max-queue", &config.max_queue)
      .size("max-inflight", &config.max_inflight)
      .u32("retry-after-ms", &config.retry_after_hint_ms)
      .port("port", &config.port)
      .size_at_least("event-shards", 1, &config.event_shards)
      .number("read-timeout-s", &config.read_timeout_s)
      .number("write-timeout-s", &config.write_timeout_s)
      .number("quota-rps", &config.quota_rps)
      .number("quota-burst", &config.quota_burst)
      .parse(flags);

  config.transport = transport_from_flags(flags);

  config.validate();
  return config;
}

void ServeConfig::validate() const {
  ABP_CHECK(!field_path.empty(), "serve requires --field");
  if (oneshot) {
    ABP_CHECK(!in_path.empty(), "serve --oneshot requires --in");
    ABP_CHECK(port == 0,
              "--oneshot and --port are mutually exclusive");
  } else {
    ABP_CHECK(in_path.empty() && out_path.empty(),
              "--in/--out only apply to --oneshot serving");
  }
  ABP_CHECK(batch > 0, "--batch must be positive");
  ABP_CHECK(read_timeout_s > 0.0 && write_timeout_s > 0.0,
            "timeouts must be positive");
  ABP_CHECK(quota_rps >= 0.0 && quota_burst >= 0.0,
            "quota values must be non-negative");
  ABP_CHECK(quota_burst == 0.0 || quota_rps > 0.0,
            "--quota-burst requires --quota-rps > 0");
}

ServiceConfig ServeConfig::service_config() const {
  ServiceConfig config;
  config.noise = noise;
  config.seed = seed;
  config.dedup_window = dedup_window;
  return config;
}

Server::Options ServeConfig::server_options() const {
  Server::Options options;
  options.workers = oneshot ? 0 : workers;
  options.max_batch = batch;
  options.max_queue = max_queue;
  options.retry_after_hint_ms = retry_after_hint_ms;
  options.quota.rps = quota_rps;
  options.quota.burst = quota_burst;
  return options;
}

TransportOptions ServeConfig::transport_options() const {
  TransportOptions options;
  options.port = port;
  options.read_timeout_s = read_timeout_s;
  options.write_timeout_s = write_timeout_s;
  options.max_inflight = max_inflight;
  options.event_shards = event_shards;
  return options;
}

QueryConfig QueryConfig::from_flags(const Flags& flags) {
  QueryConfig config;
  config.decode_path = flags.get_string("decode", "");
  config.encode_path = flags.get_string("encode-to", "");
  config.field_path = flags.get_string("field", "");
  const std::string connect = flags.get_string("connect", "");

  const int destinations = (config.decode_path.empty() ? 0 : 1) +
                           (config.encode_path.empty() ? 0 : 1) +
                           (config.field_path.empty() ? 0 : 1) +
                           (connect.empty() ? 0 : 1);
  ABP_CHECK(destinations == 1,
            "query needs exactly one of --field, --connect, --encode-to, "
            "--decode");

  if (!config.decode_path.empty()) {
    config.mode = Mode::kDecode;
    return config;  // decode takes no request flags
  }

  const std::string type = flags.get_string("type", "localize");
  const std::optional<Endpoint> endpoint = endpoint_from_name(type);
  ABP_CHECK(endpoint.has_value(), "unknown --type: " + type);
  config.request.endpoint = *endpoint;
  config.request.seq = 1;
  std::string points_text;
  // `--principal` mints the request's multi-tenant identity (0 = anonymous,
  // record omitted on the wire). Exactly-once writes: resending the same
  // command with the same --request-id (and a bumped --attempt) collects
  // the original ack instead of appending a second beacon.
  FlagTable()
      .u64("seq", &config.request.seq)
      .text("name", &config.request.field)
      .text("points", &points_text)
      .text("algorithm", &config.request.algorithm)
      .u32("count", &config.request.count)
      .u32("deadline-ms", &config.request.deadline_ms)
      .u64("principal", &config.request.principal)
      .u64("request-id", &config.request.request_id)
      .u32("attempt", &config.request.attempt)
      .parse(flags);
  config.request.points = parse_point_list(points_text);
  ABP_CHECK(config.request.attempt == 0 || config.request.request_id != 0,
            "--attempt requires --request-id");

  if (!config.encode_path.empty()) {
    config.mode = Mode::kEncode;
    FlagTable()
        .boolean("append", &config.append)
        .boolean("corrupt", &config.corrupt)
        .parse(flags);
    return config;
  }

  if (!connect.empty()) {
    config.mode = Mode::kConnect;
    const auto colon = connect.rfind(':');
    ABP_CHECK(colon != std::string::npos, "--connect wants HOST:PORT");
    config.host = connect.substr(0, colon);
    std::istringstream port_is(connect.substr(colon + 1));
    int port = 0;
    port_is >> port;
    ABP_CHECK(!port_is.fail() && port > 0 && port <= 65535,
              "bad --connect port");
    config.port = static_cast<std::uint16_t>(port);
    config.retry.max_attempts = 4;
    config.retry.base_backoff_ms = 25.0;  // CLI default, above the struct's
    FlagTable()
        .size("retries", &config.retry.max_attempts)
        .number("backoff-ms", &config.retry.base_backoff_ms)
        .number("budget-ms", &config.retry.deadline_budget_ms)
        .u64("retry-seed", &config.retry.seed)
        .parse(flags);
    config.validate();
    return config;
  }

  config.mode = Mode::kLocalField;
  FlagTable()
      .number("noise", &config.noise)
      .u64("seed", &config.seed)
      .size("batch", &config.batch)
      .parse(flags);
  config.validate();
  return config;
}

void QueryConfig::validate() const {
  switch (mode) {
    case Mode::kDecode:
      ABP_CHECK(!decode_path.empty(), "decode mode needs a path");
      break;
    case Mode::kEncode:
      ABP_CHECK(!encode_path.empty(), "encode mode needs a path");
      break;
    case Mode::kConnect:
      ABP_CHECK(!host.empty() && port != 0, "connect mode needs HOST:PORT");
      ABP_CHECK(retry.max_attempts >= 1, "--retries must be at least 1");
      break;
    case Mode::kLocalField:
      ABP_CHECK(!field_path.empty(), "local mode needs --field");
      ABP_CHECK(batch > 0, "--batch must be positive");
      break;
  }
}

}  // namespace abp::serve
