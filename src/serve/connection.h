/// \file connection.h
/// \brief Socket-free per-connection state machine.
///
/// The server transport (`ServerTransport`, an epoll event loop) drives one
/// `Connection` per accepted socket and only maps it onto readiness. The
/// state machine stays a class of its own, apart from the transport, so
/// the `Connection.*` suite drives it without sockets. It owns everything
/// that must be correct regardless of how bytes arrive:
///
///  * **Frame reassembly** — received chunks feed a `FrameDecoder`; every
///    complete frame is submitted to the `FrameSink` (a local `Server` or
///    the cluster `Router`). Corrupt framing enqueues one final bad-request
///    response (ordered after everything already submitted), after which
///    the connection should be flushed and closed.
///  * **Ordered replies** — each submitted frame takes a ticket; worker
///    threads complete tickets in any order, and completed responses are
///    released into the write queue strictly in request order, so
///    pipelined clients can match responses positionally.
///  * **In-flight cap** — with `Limits::max_inflight > 0`, frames arriving
///    while that many tickets are unanswered are shed through
///    `FrameSink::shed_overloaded` (centralized accounting), exactly like
///    the pre-redesign per-burst cap but enforced against true concurrency.
///  * **Write watermarks** — responses queued for (or handed to) the
///    socket count against a high watermark; above it `want_read()` goes
///    false so the transport stops reading from a peer that is not
///    draining its responses ("backpressure"), and reading resumes once
///    the backlog falls under the low watermark.
///
/// Completed responses are kept as one buffer per frame end-to-end (the
/// ready map, the in-order write queue, the transport's `Outbox`) and leave
/// through `writev`, so a burst of pipelined replies is never coalesced
/// into a fresh allocation just to cross the socket boundary.
///
/// Thread safety: `on_bytes` is called by the owning I/O thread only (it
/// alone touches the decoder); reply completion arrives from any thread,
/// the I/O thread included when a sink answers inside `on_bytes`.
/// `fetch_writable` and `wrote` may run on any thread that holds the
/// transport's per-connection write lock, and the queries (`want_read`,
/// `corrupt`, `drained`, ...) on any thread. The `wake` callback fires
/// (outside the lock) on the completing thread whenever the write queue
/// transitions empty → non-empty; the epoll transport writes the reply
/// from there.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "serve/frame_sink.h"
#include "serve/protocol.h"

namespace abp::serve {

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  struct Limits {
    /// Unanswered-request cap per connection; 0 = unbounded. Excess frames
    /// are shed with the retryable `overloaded` status.
    std::size_t max_inflight = 0;
    /// Stop reading when unwritten response bytes exceed this.
    std::size_t write_high_watermark = 1u << 20;
    /// Resume reading when the backlog falls to or under this.
    std::size_t write_low_watermark = 256u << 10;
  };

  /// `wake` may be empty; when set it is invoked (without the internal lock
  /// held, on the thread that completed the reply) whenever completed
  /// responses make the write queue non-empty.
  ///
  /// Connections are shared-owned: each submitted frame's reply callback
  /// holds a `shared_ptr` back to the connection, so a request that is
  /// still queued in the sink when the socket dies completes into a
  /// harmless orphan instead of a dangling pointer.
  Connection(std::uint64_t id, FrameSink& sink, Limits limits,
             std::function<void()> wake);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Feed bytes received from the peer. Submits every complete frame (or
  /// sheds it past the in-flight cap); on corrupt framing records the bad
  /// frame and enqueues the final bad-request response.
  void on_bytes(std::string_view bytes);

  /// Move every in-order completed response frame into `out` (appended as
  /// separate per-frame buffers — no coalescing). The bytes stay counted
  /// against the watermark until `wrote()`. Returns bytes moved.
  std::size_t fetch_writable(std::deque<std::string>& out);

  /// Coalescing variant for callers without a vectored write path (tests,
  /// raw inspection).
  std::size_t fetch_writable(std::string& out);

  /// Acknowledge `n` bytes as actually sent to the socket; may resume
  /// reading (check `want_read()` after).
  void wrote(std::size_t n);

  /// False while the peer's response backlog is above the high watermark
  /// or the stream is corrupt — the transport must stop reading.
  bool want_read() const;

  /// True when in-order completed responses are queued for fetching.
  bool has_writable() const;

  /// True once every accepted frame has been answered and every response
  /// byte fetched *and* acknowledged via `wrote()` — safe to close.
  bool drained() const;

  /// Framing is unsyncable; flush remaining writes, then close.
  bool corrupt() const;

  std::uint64_t id() const { return id_; }
  std::size_t in_flight() const;
  /// Response bytes not yet acknowledged by `wrote()` (watermark gauge).
  std::size_t outstanding_write_bytes() const;
  /// Sink-clock reading of the last read/reply/write activity.
  double last_activity_ms() const;

  /// Drop the wake callback. Transports call this when tearing a
  /// connection down: replies still queued in the sink keep the
  /// `Connection` alive (their callbacks hold a shared_ptr) and complete
  /// harmlessly into its buffers, but must never touch transport state
  /// that may already be gone.
  void disarm_wake();

 private:
  void complete(std::uint64_t ticket, std::string payload);

  const std::uint64_t id_;
  FrameSink* sink_;
  const Limits limits_;
  std::function<void()> wake_;  ///< guarded by mu_; see disarm_wake()

  // Reading-thread-only state.
  FrameDecoder decoder_;
  std::uint64_t next_ticket_ = 0;

  mutable std::mutex mu_;
  std::uint64_t next_release_ = 0;  ///< ticket the write queue waits on
  std::map<std::uint64_t, std::string> ready_;  ///< completed out of order
  std::deque<std::string> write_queue_;  ///< in-order frames, one buffer each
  std::size_t write_queue_bytes_ = 0;
  std::size_t unacked_bytes_ = 0;
  std::size_t inflight_ = 0;
  bool paused_ = false;
  bool corrupt_ = false;  ///< the decoder failed and the refusal is queued
  double last_activity_ms_ = 0.0;
};

/// Response frames fetched from a connection but not yet fully sent. The
/// frames stay as separate buffers so the transport can hand the whole
/// backlog to one `writev` call; `offset` is the send cursor within the
/// front frame.
struct Outbox {
  std::deque<std::string> frames;
  std::size_t offset = 0;  ///< bytes of frames.front() already sent

  bool empty() const { return frames.empty(); }
  /// Drop `n` sent bytes from the front (n may span several frames).
  void consume(std::size_t n);
};

/// Socket helpers for the transport (the fd must be non-blocking).
struct IoResult {
  std::size_t bytes = 0;    ///< bytes moved this call
  bool peer_closed = false; ///< read side: orderly shutdown from the peer
  bool would_block = false; ///< write side: unsent bytes remain (arm POLLOUT)
  bool error = false;       ///< hard socket error; close the connection
};

/// Drain everything currently readable into `connection.on_bytes`.
IoResult read_available(int fd, Connection& connection);

/// Send queued responses with vectored writes: refills `outbox` from the
/// connection when it runs dry, gathers the queued frames into one
/// `writev` per loop iteration (no coalescing copy), and acknowledges
/// progress via `wrote()`. Returns with `would_block` when the socket
/// buffer fills before the backlog is gone.
IoResult write_available(int fd, Connection& connection, Outbox& outbox);

}  // namespace abp::serve
