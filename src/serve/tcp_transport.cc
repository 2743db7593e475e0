#include "serve/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/assert.h"

namespace abp::serve {

namespace {

/// Poll interval: the granularity of the response and send timeouts.
constexpr int kPollMs = 50;

[[noreturn]] void throw_errno(const std::string& what) {
  throw ServeError(what + ": " + std::strerror(errno));
}

/// Write the whole buffer, looping over partial sends. `EINTR` restarts the
/// send; `EAGAIN`/`EWOULDBLOCK` polls for writability and counts against
/// `budget_ms`, so a peer that stops reading costs at most that budget
/// instead of wedging the caller.
void send_all(int fd, std::string_view bytes, int budget_ms) {
  std::size_t sent = 0;
  int stalled_ms = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (stalled_ms >= budget_ms) {
          throw ServeError("send timed out: peer not reading");
        }
        pollfd pfd{fd, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, kPollMs);
        if (ready < 0 && errno != EINTR) throw_errno("poll(POLLOUT)");
        stalled_ms += kPollMs;
        continue;
      }
      throw_errno("send");
    }
    stalled_ms = 0;  // progress resets the stall budget
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

TcpClientTransport::TcpClientTransport(const std::string& host,
                                       std::uint16_t port, double timeout_s)
    : timeout_s_(timeout_s) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw ServeError("bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

TcpClientTransport::~TcpClientTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpClientTransport::send_raw(const std::string& bytes) {
  send_all(fd_, bytes,
           std::max(kPollMs, static_cast<int>(timeout_s_ * 1e3)));
}

std::string TcpClientTransport::read_payload() {
  char buf[4096];
  int waited_ms = 0;
  const int budget_ms = static_cast<int>(timeout_s_ * 1e3);
  for (;;) {
    if (std::optional<std::string> payload = decoder_.next()) return *payload;
    if (decoder_.corrupt()) {
      throw ServeError("response framing corrupt: " + decoder_.error());
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready == 0) {
      waited_ms += kPollMs;
      if (waited_ms >= budget_ms) throw ServeError("response timed out");
      continue;
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) throw ServeError("connection closed by server");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

bool TcpClientTransport::closed_by_peer() {
  char byte = 0;
  for (;;) {
    const ssize_t n = ::recv(fd_, &byte, 1, MSG_DONTWAIT);
    if (n == 0) return true;
    if (n < 0) return false;  // EWOULDBLOCK: still open, nothing to read
    decoder_.feed(std::string_view(&byte, 1));
  }
}

Response TcpClientTransport::roundtrip(const Request& request) {
  ABP_CHECK(pending_.empty(), "roundtrip with pipelined sends outstanding");
  send_raw(encode_frame(format_request(request)));
  const std::string payload = read_payload();
  std::string error;
  const std::optional<Response> response = parse_response(payload, &error);
  if (!response) throw ServeError("bad response payload: " + error);
  return *response;
}

void TcpClientTransport::send_async(
    const Request& request, std::function<void(std::string)> on_reply_frame) {
  send_raw(encode_frame(format_request(request)));
  pending_.push_back(std::move(on_reply_frame));
}

void TcpClientTransport::flush() {
  while (!pending_.empty()) {
    std::string payload;
    try {
      payload = read_payload();
    } catch (...) {
      pending_.clear();  // connection is dead; callbacks will never run
      throw;
    }
    const std::function<void(std::string)> cb = std::move(pending_.front());
    pending_.pop_front();
    cb(encode_frame(payload));
  }
}

}  // namespace abp::serve
