/// \file metrics_snapshot.h
/// \brief Uniform point-in-time metrics snapshot: ordered name→value pairs
/// plus one text formatter.
///
/// `ServiceMetrics` and `RouterMetrics` used to render divergent, hand-
/// rolled stats bodies and grow a bespoke getter per counter; every bench
/// and script then scraped its own format. A `MetricsSnapshot` is the one
/// shape both produce: a schema line (e.g. `abp-serve-stats 1`) followed by
/// dotted counter names in a stable, producer-chosen order:
///
///     abp-serve-stats 1
///     endpoint.localize.requests 128
///     endpoint.localize.p99us 55.0
///     admission.submitted 130
///     principal.7.shed-quota 3
///
/// Counters render as integers, gauges (latency percentiles) with one
/// decimal. A server or router counter is one field of a counts struct
/// plus one `{name, &Struct::field}` row in that struct's table
/// (serve/metrics.{h,cc}); consumers read values back by name
/// (`count`/`value`), so every scraper sees a new counter unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace abp {

class MetricsSnapshot {
 public:
  explicit MetricsSnapshot(std::string schema) : schema_(std::move(schema)) {}

  /// Append a counter (rendered as an integer). Names repeat last-wins on
  /// read; producers keep them unique.
  void set_count(std::string name, std::uint64_t value);
  /// Append a gauge (rendered with one decimal, e.g. latency microseconds).
  void set_gauge(std::string name, double value);

  /// Value by exact name; `def` when absent.
  std::uint64_t count(std::string_view name, std::uint64_t def = 0) const;
  double value(std::string_view name, double def = 0.0) const;
  bool has(std::string_view name) const;

  const std::string& schema() const { return schema_; }
  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

  /// The one text formatter: schema line, then `<name> <value>` per line.
  std::string render_text() const;

 private:
  std::string schema_;
  std::vector<std::pair<std::string, double>> entries_;
  std::vector<bool> integral_;  ///< parallel to entries_: render as integer
};

}  // namespace abp
