/// \file tcp_transport.h
/// \brief Blocking POSIX TCP client transport for the localization query
/// service.
///
/// `TcpClientTransport` is the client used by `abp query --connect`, the
/// router's backend pool and the smoke tests; `send_async`/`flush`
/// pipeline multiple requests on the wire and match responses
/// positionally (the server answers in request order). The server side is
/// `ServerTransport` (server_transport.h).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "serve/transport.h"

namespace abp::serve {

class TcpClientTransport final : public ClientTransport {
 public:
  /// Connect to `host:port`; `timeout_s` bounds each response wait.
  TcpClientTransport(const std::string& host, std::uint16_t port,
                     double timeout_s = 5.0);
  ~TcpClientTransport() override;

  TcpClientTransport(const TcpClientTransport&) = delete;
  TcpClientTransport& operator=(const TcpClientTransport&) = delete;

  Response roundtrip(const Request& request) override;

  /// Pipelined send: the frame goes on the wire immediately, the reply
  /// callback is queued and runs inside a later `flush()` (responses are
  /// matched positionally — the server guarantees request order). Single
  /// owning thread only.
  void send_async(const Request& request,
                  std::function<void(std::string)> on_reply_frame) override;

  /// Read one response per outstanding `send_async` (in order) and run the
  /// callbacks. Throws `ServeError` on timeout/close, with the remaining
  /// callbacks dropped — after a flush failure the connection is dead.
  void flush() override;

  std::string name() const override { return "tcp"; }

  /// Raw byte access for protocol-abuse tests.
  void send_raw(const std::string& bytes);
  /// Next response frame payload; throws ServeError on timeout/close.
  std::string read_payload();
  /// True once the server has closed the connection.
  bool closed_by_peer();

 private:
  int fd_ = -1;
  double timeout_s_;
  FrameDecoder decoder_;
  std::deque<std::function<void(std::string)>> pending_;
};

}  // namespace abp::serve
