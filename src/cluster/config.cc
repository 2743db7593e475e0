#include "cluster/config.h"

#include <set>

#include "common/assert.h"
#include "serve/config.h"

namespace abp::cluster {

RouterConfig RouterConfig::from_flags(const Flags& flags) {
  RouterConfig config;
  FlagTable()
      .text_list("backend", &config.backends)
      .size_at_least("replication", 1, &config.replication)
      .size("write-quorum", &config.write_quorum)
      .size_at_least("log-retain", 1, &config.log_retain)
      .boolean("dedup", &config.dedup)
      .boolean("cache", &config.cache)
      .size_at_least("cache-entries", 1, &config.cache_entries)
      .number("quota-rps", &config.quota_rps)
      .number("quota-burst", &config.quota_burst)
      .boolean("admin", &config.admin)
      .number("drain-timeout-ms", &config.drain_timeout_ms)
      .number("heartbeat-ms", &config.heartbeat_ms)
      .size_at_least("failure-threshold", 1, &config.failure_threshold)
      .number("connect-timeout-s", &config.connect_timeout_s)
      .text("field", &config.field_path)
      .text("name", &config.name)
      .port("port", &config.port)
      .size_at_least("event-shards", 1, &config.event_shards)
      .size("max-inflight", &config.max_inflight)
      .u32("retry-after-ms", &config.retry_after_hint_ms)
      .number("read-timeout-s", &config.read_timeout_s)
      .number("write-timeout-s", &config.write_timeout_s)
      .parse(flags);

  config.transport = serve::transport_from_flags(flags);

  config.validate();
  return config;
}

void RouterConfig::validate() const {
  ABP_CHECK(!backends.empty(),
            "route requires at least one --backend host:port");
  std::set<std::string> unique;
  for (const std::string& backend : backends) {
    try {
      parse_backend_address(backend);
    } catch (const serve::ServeError& e) {
      ABP_CHECK(false, std::string("--backend: ") + e.what());
    }
    ABP_CHECK(unique.insert(backend).second,
              "duplicate --backend " + backend);
  }
  ABP_CHECK(!field_path.empty(), "route requires --field");
  ABP_CHECK(replication >= 1, "--replication must be at least 1");
  ABP_CHECK(replication <= backends.size(),
            "--replication exceeds the backend count");
  ABP_CHECK(write_quorum <= replication,
            "--write-quorum exceeds --replication");
  ABP_CHECK(log_retain >= 1, "--log-retain must be at least 1");
  ABP_CHECK(heartbeat_ms > 0.0, "--heartbeat-ms must be positive");
  ABP_CHECK(failure_threshold >= 1,
            "--failure-threshold must be at least 1");
  ABP_CHECK(connect_timeout_s > 0.0, "--connect-timeout-s must be positive");
  ABP_CHECK(read_timeout_s > 0.0 && write_timeout_s > 0.0,
            "timeouts must be positive");
  ABP_CHECK(cache_entries >= 1, "--cache-entries must be at least 1");
  ABP_CHECK(quota_rps >= 0.0 && quota_burst >= 0.0,
            "quota values must be non-negative");
  ABP_CHECK(quota_burst == 0.0 || quota_rps > 0.0,
            "--quota-burst requires --quota-rps > 0");
  ABP_CHECK(drain_timeout_ms > 0.0, "--drain-timeout-ms must be positive");
}

BackendPoolOptions RouterConfig::pool_options() const {
  BackendPoolOptions options;
  options.failure_threshold = failure_threshold;
  options.probe_interval_ms = heartbeat_ms;
  options.connect_timeout_s = connect_timeout_s;
  return options;
}

Router::Options RouterConfig::router_options() const {
  Router::Options options;
  options.retry_after_hint_ms = retry_after_hint_ms;
  options.write_quorum = write_quorum;
  options.dedup = dedup;
  options.cache_entries = cache ? cache_entries : 0;
  options.quota.rps = quota_rps;
  options.quota.burst = quota_burst;
  options.admin = admin;
  options.drain_timeout_ms = drain_timeout_ms;
  return options;
}

serve::TransportOptions RouterConfig::transport_options() const {
  serve::TransportOptions options;
  options.port = port;
  options.read_timeout_s = read_timeout_s;
  options.write_timeout_s = write_timeout_s;
  options.max_inflight = max_inflight;
  options.event_shards = event_shards;
  return options;
}

}  // namespace abp::cluster
