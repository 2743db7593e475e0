#include "serve/server_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace abp::serve {

namespace {

/// Tick interval: the latency bound on deadline checks, not on replies
/// (replies leave from the thread that completes them, or from the loop
/// once EPOLLOUT or an eventfd post says the socket needs it).
constexpr int kTickMs = 20;

[[noreturn]] void throw_errno(const std::string& what) {
  throw ServeError(what + ": " + std::strerror(errno));
}

}  // namespace

/// `mu` is the write lock. It orders every write to the socket, and the
/// close: a completer that finds `fd < 0` writes nothing, so no thread
/// writes to a closed or reused fd. Lock order: `mu` before
/// `Connection::mu_`; `mu` is never held across a sink call.
struct ServerTransport::Wire {
  std::mutex mu;
  /// -1 once closed. Only the loop thread changes it (under `mu`), so the
  /// loop thread reads it without the lock.
  int fd = -1;
  /// The connection this socket carries. Its own wake calls
  /// `write_released`, so it is alive whenever that runs.
  Connection* connection = nullptr;
  /// Frames fetched but not yet fully sent. Non-empty means a send hit
  /// EAGAIN (or failed) and the loop owns the socket's writes until it
  /// drains: completers leave new frames to it instead of retrying.
  Outbox outbox;
  /// The loop dropped EPOLLIN under backpressure (or corrupt framing); a
  /// completer whose write lets reading resume posts a flush to re-arm it.
  bool read_paused = false;
  /// Close once drained: the peer closed, framing is corrupt, or the
  /// transport is stopping.
  bool hangup = false;

  /// The completing thread's write: send the frames released so far.
  /// True when the loop must act: bytes are left for EPOLLOUT, the send
  /// failed, reading must resume after watermark backpressure, or a
  /// drained connection must close.
  bool write_released() {
    std::lock_guard<std::mutex> lock(mu);
    if (fd < 0 || !outbox.empty()) return false;
    const IoResult w = write_available(fd, *connection, outbox);
    if (w.error || w.would_block) return true;
    if (read_paused && connection->want_read()) {
      read_paused = false;
      return true;
    }
    return hangup && connection->drained();
  }

  void close_socket() {
    std::lock_guard<std::mutex> lock(mu);
    ::close(fd);
    fd = -1;
  }
};

ServerTransport::ServerTransport(FrameSink& sink, TransportOptions options)
    : sink_(&sink), options_(options) {}

ServerTransport::~ServerTransport() { stop(); }

void ServerTransport::start() {
  ABP_CHECK(listen_fd_ < 0, "transport already started");
  const std::size_t shard_count =
      std::max<std::size_t>(1, options_.event_shards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0) {
    throw_errno("bind");
  }
  if (::listen(listen_fd_, SOMAXCONN) < 0) throw_errno("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  // Registered before the loop thread starts, so this is loop-thread-safe.
  shards_[0]->loop->add_fd(listen_fd_, EPOLLIN,
                           [this](std::uint32_t) { accept_ready(); });
  for (std::unique_ptr<Shard>& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] {
      s->loop->run([this, s] { tick(*s); }, kTickMs);
    });
  }
}

void ServerTransport::accept_ready() {
  // Level-triggered listener: accept the whole backlog, not one per wakeup.
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: backlog drained. Transient errors (ECONNABORTED, EMFILE
      // after a peer vanished, ...) also just end this round; the next
      // EPOLLIN retries.
      return;
    }
    if (stopping_.load()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = next_conn_id_++;
    Shard& target = *shards_[id % shards_.size()];
    if (&target == shards_[0].get()) {
      install(target, fd, id);
    } else {
      target.loop->post([this, &target, fd, id] { install(target, fd, id); });
    }
  }
}

void ServerTransport::install(Shard& shard, int fd, std::uint64_t id) {
  if (stopping_.load()) {
    ::close(fd);
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  Connection::Limits limits;
  limits.max_inflight = options_.max_inflight;
  // The wake runs on whichever thread completes a reply (a worker, a
  // router pool thread, or this loop thread) and writes the reply there;
  // it posts to the owning loop only when the loop must act. The weak loop
  // pointer makes a late post after transport teardown a no-op instead of
  // a use-after-free.
  std::weak_ptr<EventLoop> weak_loop = shard.loop;
  Conn conn;
  conn.wire = std::make_shared<Wire>();
  conn.wire->fd = fd;
  conn.state = std::make_shared<Connection>(
      id, *sink_, limits,
      [this, weak_loop, wire = conn.wire, &shard, id] {
        if (!wire->write_released()) return;
        if (std::shared_ptr<EventLoop> loop = weak_loop.lock()) {
          loop->post([this, &shard, id] { flush(shard, id); });
        }
      });
  conn.wire->connection = conn.state.get();
  conn.armed = EPOLLIN;
  shard.loop->add_fd(fd, EPOLLIN, [this, &shard, id](std::uint32_t events) {
    handle_io(shard, id, events);
  });
  shard.conns.emplace(id, std::move(conn));
}

void ServerTransport::handle_io(Shard& shard, std::uint64_t id,
                                     std::uint32_t events) {
  const auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;
  Conn& conn = it->second;
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
    if (!conn.peer_closed && conn.state->want_read()) {
      const IoResult r = read_available(conn.wire->fd, *conn.state);
      if (r.error) {
        close_conn(shard, id);
        return;
      }
      if (r.peer_closed) conn.peer_closed = true;
      // The end of a read burst: a manual-mode server drains whatever the
      // read just queued; a threaded one may answer the next burst's first
      // node read on this thread.
      if (r.bytes > 0) sink_->pump_ready();
    } else if (events & (EPOLLERR | EPOLLHUP)) {
      conn.peer_closed = true;
    }
  }
  flush(shard, id);
}

void ServerTransport::flush(Shard& shard, std::uint64_t id) {
  const auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;  // stale post after close
  Conn& conn = it->second;
  Wire& wire = *conn.wire;
  bool close = false;
  {
    std::lock_guard<std::mutex> lock(wire.mu);
    if (conn.peer_closed || conn.state->corrupt() || stopping_.load()) {
      wire.hangup = true;
    }
    const IoResult w = write_available(wire.fd, *conn.state, wire.outbox);
    close = w.error || (wire.hangup && conn.state->drained());
    if (!close) update_interest(shard, conn);
  }
  if (close) close_conn(shard, id);
}

void ServerTransport::update_interest(Shard& shard, Conn& conn) {
  Wire& wire = *conn.wire;
  const bool readable = !conn.peer_closed && !stopping_.load();
  std::uint32_t desired = 0;
  if (readable && conn.state->want_read()) desired |= EPOLLIN;
  wire.read_paused = readable && (desired & EPOLLIN) == 0;
  // EPOLLOUT only while bytes are actually stuck: a level-triggered loop
  // armed for OUT on an idle writable socket would spin. Frames released
  // after this flush's last fetch leave from the thread that completes
  // them.
  if (!wire.outbox.empty()) desired |= EPOLLOUT;
  if (desired != conn.armed) {
    shard.loop->modify_fd(wire.fd, desired);
    conn.armed = desired;
  }
}

void ServerTransport::close_conn(Shard& shard, std::uint64_t id) {
  const auto it = shard.conns.find(id);
  if (it == shard.conns.end()) return;
  Conn& conn = it->second;
  shard.loop->remove_fd(conn.wire->fd);
  conn.wire->close_socket();
  conn.state->disarm_wake();
  shard.conns.erase(it);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void ServerTransport::tick(Shard& shard) {
  const double now = sink_->now_ms();
  const double read_budget_ms = options_.read_timeout_s * 1e3;
  const double write_budget_ms = options_.write_timeout_s * 1e3;
  std::vector<std::uint64_t> to_close;
  for (auto& [id, conn] : shard.conns) {
    if (shard.drain_deadline_ms >= 0 && now >= shard.drain_deadline_ms) {
      to_close.push_back(id);  // drain budget exhausted: force-close
      continue;
    }
    if (stopping_.load() && conn.state->drained()) {
      to_close.push_back(id);
      continue;
    }
    bool unsent = false;
    {
      std::lock_guard<std::mutex> lock(conn.wire->mu);
      unsent = !conn.wire->outbox.empty() || conn.state->has_writable();
    }
    const double idle_ms = now - conn.state->last_activity_ms();
    if (unsent ? idle_ms >= write_budget_ms : idle_ms >= read_budget_ms) {
      to_close.push_back(id);
    }
  }
  for (const std::uint64_t id : to_close) close_conn(shard, id);
}

void ServerTransport::stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  if (shards_.empty()) return;  // never started
  stopping_.store(true);
  shards_[0]->loop->post([this] {
    if (listen_fd_ >= 0) {
      shards_[0]->loop->remove_fd(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  });
  for (std::unique_ptr<Shard>& shard : shards_) {
    Shard* s = shard.get();
    s->loop->post([this, s] {
      s->drain_deadline_ms = sink_->now_ms() + options_.write_timeout_s * 1e3;
      std::vector<std::uint64_t> ids;
      ids.reserve(s->conns.size());
      for (auto& [id, conn] : s->conns) {
        ::shutdown(conn.wire->fd, SHUT_RD);  // no new requests; finish replies
        ids.push_back(id);
      }
      for (const std::uint64_t id : ids) flush(*s, id);
    });
  }
  // Bounded real-time wait for the shards to drain what they accepted. The
  // ticks keep closing drained (or deadline-expired) connections; anything
  // left after the budget is force-closed below once the threads are gone.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.write_timeout_s + 1.0));
  while (open_conns_.load(std::memory_order_relaxed) != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::unique_ptr<Shard>& shard : shards_) shard->loop->stop();
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    for (auto& [id, conn] : shard->conns) {
      conn.wire->close_socket();  // workers may still be completing replies
      conn.state->disarm_wake();
      open_conns_.fetch_sub(1, std::memory_order_relaxed);
    }
    shard->conns.clear();
  }
}

const char* transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kEpoll: return "epoll";
  }
  return "unknown";
}

std::optional<TransportKind> transport_kind_from_name(std::string_view name) {
  if (name == "epoll") return TransportKind::kEpoll;
  return std::nullopt;
}

std::unique_ptr<ServerTransport> make_server_transport(
    TransportKind kind, FrameSink& sink, const TransportOptions& options) {
  (void)kind;  // one kind
  return std::make_unique<ServerTransport>(sink, options);
}

}  // namespace abp::serve
