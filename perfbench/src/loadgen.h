// Open-loop load generator over loopback TCP.
//
// Every request of a segment gets its Poisson due time before the segment starts
// and is encoded when it falls due. One thread sends each request on time
// (all due frames of a connection leave in one write), reads replies,
// matches them to requests by seq and times each from when it was due, so
// a generator or host stall is charged to the requests it delayed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class OpKind : std::uint8_t { kRead, kSurvey, kPropose, kWrite };
inline constexpr std::size_t kOpKinds = 4;
const char* op_kind_name(OpKind kind);

struct Op {
  double due_s = 0.0;      ///< offset from the segment start
  std::uint32_t conn = 0;  ///< connection index
  OpKind kind = OpKind::kRead;
};

/// Compact per-op outcome (a segment holds up to ~10^5 of them in the same
/// process as the program, so its footprint stays small).
struct OpOutcome {
  float due_s = 0.0f;       ///< when it was due, from the segment start
  float latency_ms = 0.0f;  ///< due time until the reply was read
  float service_ms = 0.0f;  ///< send time until the reply was read
  float lag_ms = 0.0f;      ///< send time minus due time
  std::uint32_t request_bytes = 0;
  std::uint32_t response_bytes = 0;
  bool answered = false;
  bool ok = false;  ///< answered with status ok
};

struct LoadOptions {
  std::uint16_t port = 0;
  std::size_t conns = 1;
  /// How long to wait for stragglers after the last request was due.
  double drain_s = 10.0;
  /// 0: open loop, each op sent at its due time. N > 0: closed loop, each
  /// connection keeps N requests in flight and an op falls due when its
  /// slot frees, so the run measures capacity with a bounded backlog.
  std::size_t window = 0;
  /// Time the codec: request encode and reply decode (FrameDecoder +
  /// parse_response).
  bool time_codec = false;
  /// Keep the reply payload of every op whose index is a multiple of this
  /// (0 keeps none), for output checks.
  std::size_t keep_every = 0;
};

struct LoadReport {
  std::size_t unmatched = 0;        ///< replies naming no outstanding seq
  double encode_ns = 0.0;           ///< totals, when timed
  double decode_ns = 0.0;
  std::size_t decoded = 0;
  /// First send until the last reply, in seconds.
  double elapsed_s = 0.0;
  /// (op index, reply payload) for the kept ops.
  std::vector<std::pair<std::size_t, std::string>> kept;
  std::string error;                ///< first error, for diagnostics
};

/// Builds the encoded request frame of op `i` (seq `base_seq + i`); called
/// when the op falls due, so no segment holds all of its frames at once.
using FrameFn = std::function<std::string(std::size_t)>;

/// Run `ops` (sorted by due time; closed loop ignores the due times)
/// against 127.0.0.1:port.
LoadReport run_open_loop(const std::vector<Op>& ops, std::uint64_t base_seq,
                         const FrameFn& frame, const LoadOptions& options,
                         std::vector<OpOutcome>& outcomes);

/// Open `conns` connections to 127.0.0.1:port, send one `list-fields`
/// request on each and count the connections answered within `wait_s`
/// while all stay open.
std::size_t probe_conns_served(std::uint16_t port, std::size_t conns,
                               double wait_s);

}  // namespace perfbench
