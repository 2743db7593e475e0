/// \file frame_sink.h
/// \brief The frame-consumer interface behind every server transport.
///
/// The server transport drives one `Connection` state machine per socket;
/// this is the other side of that seam. A `FrameSink` is whatever
/// consumes complete request frames and answers them through a callback:
///
///  * `Server` (server.h) — parses, batches and executes requests against a
///    local `LocalizationService`; what `abp serve` fronts.
///  * `cluster::Router` (cluster/router.h) — forwards frames to backend
///    replicas chosen by consistent hashing; what `abp route` fronts.
///
/// Transports and connections only ever talk to this interface, so the
/// entire socket layer (the epoll loop, framing, ordered replies,
/// in-flight caps, watermarks, timeouts) is reused verbatim by the cluster
/// routing tier.
///
/// The two answers every sink gives to bytes that are not a request live
/// here too, once: `parse_or_refuse` for a frame whose payload does not
/// parse, and `refuse_bad_frame` for bytes that never decoded into a frame
/// at all. Both record through `FrameSink::record_bad_frame`.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "serve/protocol.h"

namespace abp::serve {

class FrameSink {
 public:
  virtual ~FrameSink() = default;

  /// Consume one request frame payload. `reply` must be invoked exactly
  /// once with the encoded response payload — possibly immediately, on the
  /// calling thread, or later from any other thread.
  virtual void submit(std::string payload,
                      std::function<void(std::string)> reply) = 0;

  /// Transport-level admission rejection: answer `payload`'s request with
  /// the retryable `overloaded` status (diagnosed with `why`) without
  /// consuming it, keeping shed accounting centralized in the sink. Used by
  /// connections enforcing per-connection in-flight limits.
  virtual void shed_overloaded(std::string payload,
                               std::function<void(std::string)> reply,
                               const std::string& why) = 0;

  /// Record an input that never became a request (corrupt framing).
  virtual void record_bad_frame(std::size_t bytes_in) = 0;

  /// Monotonic milliseconds on the sink's (injectable) clock; transports
  /// use it for idle/write-stall timeouts so fault-injection tests stay
  /// deterministic.
  virtual double now_ms() const = 0;

  /// Called by transports at the end of a read burst, after feeding bytes
  /// that may have queued work. Sinks that execute on the caller's thread
  /// (a manual-mode `Server`) drain their queue here; a threaded `Server`
  /// lets the next submission run on the caller's thread if it is a
  /// one-point query and the server is idle; other sinks ignore it.
  virtual void pump_ready() {}
};

/// The front door's parse step: the request `payload` encodes, or nullopt
/// after recording one bad frame on `sink` and answering `reply` with a
/// `bad-request` refusal (seq 0) that carries the parser's diagnostic.
/// `reply` is untouched when the payload parses.
inline std::optional<Request> parse_or_refuse(
    FrameSink& sink, std::string_view payload,
    const std::function<void(std::string)>& reply) {
  std::string error;
  std::optional<Request> request = parse_request(payload, &error);
  if (!request) {
    sink.record_bad_frame(payload.size());
    // Capped: the diagnostic may echo a payload line as long as the frame.
    reply(format_response_capped(
        refusal(0, Status::kBadRequest, std::move(error))));
  }
  return request;
}

/// The answer to `bytes_in` bytes that never decoded into a frame (corrupt
/// or truncated framing): records one bad frame on `sink` and returns the
/// `bad-request` refusal payload (seq 0) diagnosed with `message`.
inline std::string refuse_bad_frame(FrameSink& sink, std::size_t bytes_in,
                                    std::string message) {
  sink.record_bad_frame(bytes_in);
  return format_response(refusal(0, Status::kBadRequest, std::move(message)));
}

}  // namespace abp::serve
