/// \file transport.h
/// \brief Client-side transport abstraction and the in-process loopback.
///
/// A `ClientTransport` carries request/response exchanges through the full
/// wire codec — synchronously via `roundtrip`, or pipelined via
/// `send_async`/`flush` (part of the interface, so callers that pump many
/// requests per connection need no transport-specific casts). Two
/// implementations exist: `LoopbackTransport` here (deterministic,
/// in-process — what every unit test and `abp serve --oneshot` use) and
/// `TcpClientTransport` in tcp_transport.h (POSIX sockets). Both speak
/// byte-identical frames, so anything validated over the loopback holds
/// over TCP.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <string>

#include "serve/server.h"

namespace abp::serve {

class ClientTransport {
 public:
  virtual ~ClientTransport() = default;

  /// One request/response exchange through the wire codec. Throws
  /// `ServeError` on transport or codec failure (never on an error
  /// *status* — those come back in the response).
  virtual Response roundtrip(const Request& request) = 0;

  /// Pipelined send: dispatch without waiting for the response. The reply
  /// callback receives the encoded response frame; *when* it runs is
  /// transport-specific (a worker thread for the loopback, inside a later
  /// `flush()` for TCP), so callers must not assume it fired until
  /// `flush()` returns. Not thread-safe per transport instance.
  virtual void send_async(const Request& request,
                          std::function<void(std::string)> on_reply_frame) = 0;

  /// Block until every `send_async` reply callback has run. Throws
  /// `ServeError` if the transport died before all replies arrived.
  virtual void flush() {}

  virtual std::string name() const = 0;
};

/// In-process transport: encodes the request into a frame, decodes it the
/// way a remote peer would, submits to the server, and frames the response
/// back. With a manual-mode server the exchange is fully synchronous and
/// deterministic; with a threaded server it blocks on the worker's reply.
class LoopbackTransport final : public ClientTransport {
 public:
  explicit LoopbackTransport(Server& server) : server_(&server) {}

  Response roundtrip(const Request& request) override;
  std::string name() const override { return "loopback"; }

  /// Raw frame exchange (malformed-input testing): returns the encoded
  /// response frame, mirroring what a server-side transport emits for the
  /// given bytes — including the bad-request frame for corrupt framing.
  /// `before_drain`, when set, runs after the request is queued and before
  /// the server drains it (the fault transport stalls there).
  std::string roundtrip_frame(const std::string& frame,
                              const std::function<void()>& before_drain = {});

  /// Submit without waiting; with a threaded server the reply callback runs
  /// on a worker thread, with a manual server it runs inside `flush()`.
  void send_async(const Request& request,
                  std::function<void(std::string)> on_reply_frame) override;

  /// Waits until every pipelined reply has been delivered (pumping first
  /// when the server is in manual mode).
  void flush() override;

 private:
  Server* server_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t outstanding_ = 0;
};

}  // namespace abp::serve
