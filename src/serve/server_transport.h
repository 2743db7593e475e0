/// \file server_transport.h
/// \brief The server-side TCP transport of the localization query service:
/// an epoll event loop over non-blocking sockets.
///
/// A `ServerTransport` owns the listening socket and the lifecycle of every
/// accepted connection, feeding complete frames into a `FrameSink` — a
/// local `Server` or the cluster `Router` — and writing the
/// (request-ordered) responses back.
///
/// One or more (`event_shards`) epoll event loops own every socket: the
/// listener accepts until EAGAIN on shard 0 and hands each accepted fd to a
/// shard round-robin; the shard's loop thread is then the only thread that
/// reads that socket, registers it with epoll or closes it, so the
/// concurrent-connection ceiling is the fd limit, not a thread count.
///
/// Replies leave from the thread that completes them: a `Server` worker, a
/// router pool thread, or the loop thread itself (a manual-mode server, or
/// a node read a threaded server answered inline). That thread writes the
/// released in-order frames under the connection's write lock, and posts
/// to the owning loop (via its `eventfd`) only when the loop must act:
/// bytes are left for EPOLLOUT, reading must resume after watermark
/// backpressure, or a drained connection must close. The loop closes a
/// socket under the same lock, so no thread writes to a closed or reused
/// fd. The lock is taken before `Connection`'s own and never held across a
/// sink call.
///
/// Per-connection behaviour (framing, ordered replies, in-flight shedding,
/// write watermarks) is the `Connection` state machine (connection.h); this
/// file only maps it onto epoll readiness:
///
///  * EPOLLIN is armed while `want_read()` — it drops out under watermark
///    backpressure or after corrupt framing, so a level-triggered loop
///    does not spin on data it refuses to read.
///  * EPOLLOUT is armed only while a send that hit EAGAIN left bytes
///    behind; until they drain, completers leave new frames to the loop
///    rather than retry a full socket.
///  * A read that moved bytes ends with `FrameSink::pump_ready()`: the
///    sink learns that the burst is over (see server.h).
///  * Idle and write-stall timeouts are checked in the loop tick against
///    the server's injectable clock (deterministic under `ManualClock`).
///
/// Graceful `stop()`: close the listener, shut down the read side of every
/// connection, and give each shard a drain budget (the write timeout) to
/// finish answering what it already accepted; leftovers are force-closed.
///
/// `abp serve`, `abp route` and the benches build it through
/// `make_server_transport`; `--transport epoll` names the only kind.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/connection.h"
#include "serve/event_loop.h"

namespace abp::serve {

enum class TransportKind {
  kEpoll,  ///< non-blocking event loop(s)
};

const char* transport_kind_name(TransportKind kind);
std::optional<TransportKind> transport_kind_from_name(std::string_view name);

struct TransportOptions {
  std::uint16_t port = 0;        ///< 0 = ephemeral (read back via port())
  double read_timeout_s = 5.0;   ///< idle-connection timeout
  double write_timeout_s = 5.0;  ///< max stall writing to a slow peer
  /// Per-connection unanswered-request cap for pipelined clients;
  /// 0 = unbounded. Excess frames are shed with retryable `overloaded`.
  std::size_t max_inflight = 0;
  std::size_t event_shards = 1;  ///< independent event loops
};

class ServerTransport {
 public:
  explicit ServerTransport(FrameSink& sink, TransportOptions options = {});
  ~ServerTransport();

  ServerTransport(const ServerTransport&) = delete;
  ServerTransport& operator=(const ServerTransport&) = delete;

  /// Bind, listen on 127.0.0.1 and start serving. Throws `ServeError` on
  /// socket failure.
  void start();

  /// Graceful stop: stop accepting, let open connections finish writing
  /// every response they accepted (bounded by the write timeout), close
  /// everything. Idempotent.
  void stop();

  /// Bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Currently open connections. The chaos suite's fd/slot-leak probe:
  /// must read 0 once every client is gone (and always after stop()).
  std::size_t open_connections() const {
    return open_conns_.load(std::memory_order_relaxed);
  }

  /// Total connections accepted since start().
  std::uint64_t connections_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  /// A socket's writing side, shared by its loop thread and every thread
  /// that completes one of its replies (defined in server_transport.cc).
  struct Wire;

  struct Conn {
    std::shared_ptr<Connection> state;
    std::shared_ptr<Wire> wire;
    std::uint32_t armed = 0;  ///< current epoll interest mask
    bool peer_closed = false;
  };

  /// All shard state except the atomics is touched only by the shard's
  /// loop thread (or before the thread starts / after it joins). The loop
  /// lives behind a shared_ptr so a reply wake racing transport teardown
  /// holds it alive through `post()` (the task then simply never runs).
  struct Shard {
    std::shared_ptr<EventLoop> loop = std::make_shared<EventLoop>();
    std::thread thread;
    std::unordered_map<std::uint64_t, Conn> conns;
    double drain_deadline_ms = -1.0;  ///< server clock; <0 = not stopping
  };

  void accept_ready();
  void install(Shard& shard, int fd, std::uint64_t id);
  void handle_io(Shard& shard, std::uint64_t id, std::uint32_t events);
  void flush(Shard& shard, std::uint64_t id);
  void update_interest(Shard& shard, Conn& conn);
  void close_conn(Shard& shard, std::uint64_t id);
  void tick(Shard& shard);

  FrameSink* sink_;
  const TransportOptions options_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t next_conn_id_ = 0;  ///< accept path (shard 0 thread) only

  std::mutex stop_mu_;
  bool stopped_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<std::uint64_t> accepted_{0};
};

/// `kind` has one value; the factory and the `--transport` flag stay so
/// callers and scripts that name the transport keep working.
std::unique_ptr<ServerTransport> make_server_transport(
    TransportKind kind, FrameSink& sink, const TransportOptions& options = {});

}  // namespace abp::serve
