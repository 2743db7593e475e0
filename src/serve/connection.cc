#include "serve/connection.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>
#include <utility>

namespace abp::serve {

Connection::Connection(std::uint64_t id, FrameSink& sink, Limits limits,
                       std::function<void()> wake)
    : id_(id), sink_(&sink), limits_(limits), wake_(std::move(wake)) {
  last_activity_ms_ = sink_->now_ms();
}

void Connection::on_bytes(std::string_view bytes) {
  decoder_.feed(bytes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_activity_ms_ = sink_->now_ms();
  }
  while (std::optional<std::string> payload = decoder_.next()) {
    bool shed = false;
    std::uint64_t ticket = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      shed = limits_.max_inflight != 0 && inflight_ >= limits_.max_inflight;
      ticket = next_ticket_++;
      ++inflight_;
    }
    auto reply = [self = shared_from_this(),
                  ticket](std::string response_payload) {
      self->complete(ticket, std::move(response_payload));
    };
    if (shed) {
      sink_->shed_overloaded(
          std::move(*payload), std::move(reply),
          "connection in-flight limit (" +
              std::to_string(limits_.max_inflight) +
              ") reached; retry with backoff");
    } else {
      sink_->submit(std::move(*payload), std::move(reply));
    }
  }
  if (decoder_.corrupt() && !corrupt()) {
    // Framing cannot resync: answer everything already accepted, then this
    // final diagnostic (it takes the last ticket, so ordering holds), after
    // which the transport flushes and hangs up.
    std::string refusal =
        refuse_bad_frame(*sink_, decoder_.buffered(), decoder_.error());
    std::uint64_t ticket = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      corrupt_ = true;
      ticket = next_ticket_++;
      ++inflight_;
    }
    complete(ticket, std::move(refusal));
  }
}

void Connection::complete(std::uint64_t ticket, std::string payload) {
  bool need_wake = false;
  std::function<void()> wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    last_activity_ms_ = sink_->now_ms();
    const bool was_empty = write_queue_.empty();
    ready_.emplace(ticket, encode_frame(payload));
    // Release the in-order prefix: pipelined clients match responses to
    // requests positionally, so ticket order is the contract. Each frame
    // stays its own buffer all the way to writev.
    for (auto it = ready_.find(next_release_); it != ready_.end();
         it = ready_.find(next_release_)) {
      write_queue_bytes_ += it->second.size();
      unacked_bytes_ += it->second.size();
      write_queue_.push_back(std::move(it->second));
      ready_.erase(it);
      ++next_release_;
    }
    if (!paused_ && unacked_bytes_ > limits_.write_high_watermark) {
      paused_ = true;  // peer is not draining responses; stop reading
    }
    need_wake = was_empty && !write_queue_.empty();
    if (need_wake) wake = wake_;  // copy under the lock; see disarm_wake()
  }
  if (need_wake && wake) wake();
}

void Connection::disarm_wake() {
  std::lock_guard<std::mutex> lock(mu_);
  wake_ = nullptr;
}

std::size_t Connection::fetch_writable(std::deque<std::string>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = write_queue_bytes_;
  while (!write_queue_.empty()) {
    out.push_back(std::move(write_queue_.front()));
    write_queue_.pop_front();
  }
  write_queue_bytes_ = 0;
  return n;
}

std::size_t Connection::fetch_writable(std::string& out) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = write_queue_bytes_;
  for (std::string& frame : write_queue_) out += frame;
  write_queue_.clear();
  write_queue_bytes_ = 0;
  return n;
}

void Connection::wrote(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  unacked_bytes_ -= n;
  last_activity_ms_ = sink_->now_ms();
  if (paused_ && unacked_bytes_ <= limits_.write_low_watermark) {
    paused_ = false;
  }
}

bool Connection::want_read() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !paused_ && !corrupt_;
}

bool Connection::corrupt() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_;
}

bool Connection::has_writable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !write_queue_.empty();
}

bool Connection::drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_ == 0 && ready_.empty() && write_queue_.empty() &&
         unacked_bytes_ == 0;
}

std::size_t Connection::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

std::size_t Connection::outstanding_write_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unacked_bytes_;
}

double Connection::last_activity_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_activity_ms_;
}

void Outbox::consume(std::size_t n) {
  while (n != 0) {
    std::string& front = frames.front();
    const std::size_t left = front.size() - offset;
    if (n < left) {
      offset += n;
      return;
    }
    n -= left;
    offset = 0;
    frames.pop_front();
  }
}

IoResult read_available(int fd, Connection& connection) {
  IoResult result;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) {
      result.peer_closed = true;
      return result;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return result;
      result.error = true;
      return result;
    }
    result.bytes += static_cast<std::size_t>(n);
    connection.on_bytes(std::string_view(buf, static_cast<std::size_t>(n)));
    if (!connection.want_read()) return result;  // backpressure or corrupt
  }
}

IoResult write_available(int fd, Connection& connection, Outbox& outbox) {
  // One iovec per queued response frame, gathered into a single writev per
  // loop iteration — zero-copy from completion buffer to socket.
  constexpr std::size_t kMaxIov = 64;
  IoResult result;
  for (;;) {
    if (outbox.empty() && connection.fetch_writable(outbox.frames) == 0) {
      return result;
    }
    struct iovec iov[kMaxIov];
    std::size_t niov = 0;
    for (const std::string& frame : outbox.frames) {
      if (niov == kMaxIov) break;
      const std::size_t skip = niov == 0 ? outbox.offset : 0;
      iov[niov].iov_base = const_cast<char*>(frame.data() + skip);
      iov[niov].iov_len = frame.size() - skip;
      ++niov;
    }
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        result.would_block = true;
        return result;
      }
      result.error = true;
      return result;
    }
    outbox.consume(static_cast<std::size_t>(n));
    result.bytes += static_cast<std::size_t>(n);
    connection.wrote(static_cast<std::size_t>(n));
  }
}

}  // namespace abp::serve
