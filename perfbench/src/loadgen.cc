#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <memory>
#include <stdexcept>

#include "serve/protocol.h"
#include "stats.h"

namespace perfbench {

namespace serve = abp::serve;

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kRead: return "read";
    case OpKind::kSurvey: return "survey";
    case OpKind::kPropose: return "propose";
    case OpKind::kWrite: return "write";
  }
  return "?";
}

namespace {

/// Owns one connected, non-blocking loopback socket.
class Socket {
 public:
  explicit Socket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect to port " + std::to_string(port) +
                               " failed: " + why);
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

struct Conn {
  std::unique_ptr<Socket> socket;
  std::string out;  ///< bytes queued for the socket
  std::size_t out_pos = 0;
  serve::FrameDecoder decoder;
  bool dead = false;
};

}  // namespace

LoadReport run_open_loop(const std::vector<Op>& ops, std::uint64_t base_seq,
                         const FrameFn& frame, const LoadOptions& options,
                         std::vector<OpOutcome>& outcomes) {
  LoadReport report;
  outcomes.assign(ops.size(), OpOutcome{});
  std::vector<std::int64_t> sent_ns(ops.size(), 0);
  std::vector<std::int64_t> due_ns(ops.size(), 0);
  std::vector<Conn> conns(options.conns);
  for (Conn& c : conns) c.socket = std::make_unique<Socket>(options.port);
  const bool closed = options.window > 0;
  // Closed loop: each connection's ops in order, and its in-flight count.
  std::vector<std::vector<std::size_t>> queued(conns.size());
  std::vector<std::size_t> cursor(conns.size(), 0);
  std::vector<std::size_t> in_flight(conns.size(), 0);
  if (closed) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      queued[ops[i].conn].push_back(i);
    }
  }

  auto fail_conn = [&](Conn& c, const std::string& why) {
    if (c.dead) return;
    c.dead = true;
    if (report.error.empty()) report.error = why;
  };

  // Open loop: a small lead so the first requests are not already late.
  // Closed loop: the first requests leave at once.
  const std::int64_t start = now_ns() + (closed ? 0 : 2'000'000);
  const double last_due = ops.empty() || closed ? 0.0 : ops.back().due_s;
  const auto drain_deadline =
      start + static_cast<std::int64_t>((last_due + options.drain_s) * 1e9);
  std::size_t next = 0;  ///< open loop: next op to fall due
  std::size_t answered = 0;
  std::int64_t last_reply_ns = start;
  std::vector<pollfd> fds(conns.size());
  char buf[1 << 16];

  auto send_op = [&](std::size_t i, std::int64_t now, std::int64_t due) {
    Conn& c = conns[ops[i].conn];
    const std::int64_t e0 = options.time_codec ? now_ns() : 0;
    const std::string bytes = frame(i);
    if (options.time_codec) {
      report.encode_ns += static_cast<double>(now_ns() - e0);
    }
    if (!c.dead) c.out += bytes;
    outcomes[i].request_bytes = static_cast<std::uint32_t>(bytes.size());
    sent_ns[i] = now;
    due_ns[i] = due;
  };

  while (answered < ops.size()) {
    std::int64_t now = now_ns();
    if (now > drain_deadline) break;
    if (closed) {
      for (std::size_t c = 0; c < conns.size(); ++c) {
        while (!conns[c].dead && in_flight[c] < options.window &&
               cursor[c] < queued[c].size()) {
          send_op(queued[c][cursor[c]++], now, now);
          ++in_flight[c];
        }
      }
    } else {
      const double elapsed_s = static_cast<double>(now - start) / 1e9;
      while (next < ops.size() && ops[next].due_s <= elapsed_s) {
        send_op(next, now,
                start + static_cast<std::int64_t>(ops[next].due_s * 1e9));
        ++next;
      }
    }
    for (Conn& c : conns) {
      while (!c.dead && c.out_pos < c.out.size()) {
        const ssize_t n = ::send(c.socket->fd(), c.out.data() + c.out_pos,
                                 c.out.size() - c.out_pos, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_pos += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          fail_conn(c, std::string("send failed: ") + std::strerror(errno));
        }
      }
      if (c.out_pos == c.out.size() || c.out_pos > (1u << 20)) {
        c.out.erase(0, c.out_pos);
        c.out_pos = 0;
      }
    }

    // Sleep until the next request is due or a reply arrives; spin only
    // when the next due time is closer than the timer slack.
    std::int64_t wait_ns = 1'000'000;
    if (!closed && next < ops.size()) {
      const auto due_ns =
          start + static_cast<std::int64_t>(ops[next].due_s * 1e9);
      wait_ns = std::min<std::int64_t>(wait_ns, due_ns - now_ns());
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].dead ? -1 : conns[i].socket->fd();
      fds[i].events = POLLIN;
      if (conns[i].out_pos < conns[i].out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    timespec ts{};
    if (wait_ns > 60'000) {
      const std::int64_t sleep_ns = wait_ns - 50'000;
      ts.tv_sec = sleep_ns / 1'000'000'000;
      ts.tv_nsec = sleep_ns % 1'000'000'000;
    }
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;

    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.dead || (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      for (;;) {
        const ssize_t n = ::recv(c.socket->fd(), buf, sizeof buf, 0);
        if (n > 0) {
          const std::int64_t recv_ns = now_ns();
          const std::int64_t d0 = options.time_codec ? now_ns() : 0;
          std::size_t decoded = 0;
          c.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
          while (std::optional<std::string> payload = c.decoder.next()) {
            ++decoded;
            const std::optional<serve::Response> response =
                serve::parse_response(*payload);
            if (!response || response->seq < base_seq ||
                response->seq - base_seq >= ops.size() ||
                outcomes[response->seq - base_seq].answered) {
              ++report.unmatched;
              if (report.error.empty()) report.error = "unmatched reply";
              continue;
            }
            const std::size_t idx = response->seq - base_seq;
            OpOutcome& o = outcomes[idx];
            o.answered = true;
            ++answered;
            if (closed) --in_flight[ops[idx].conn];
            last_reply_ns = recv_ns;
            o.ok = response->status == serve::Status::kOk;
            o.due_s = static_cast<float>(due_ns[idx] - start) / 1e9f;
            o.latency_ms = static_cast<float>(recv_ns - due_ns[idx]) / 1e6f;
            o.service_ms = static_cast<float>(recv_ns - sent_ns[idx]) / 1e6f;
            o.lag_ms = static_cast<float>(sent_ns[idx] - due_ns[idx]) / 1e6f;
            o.response_bytes = static_cast<std::uint32_t>(payload->size());
            if (options.keep_every != 0 && idx % options.keep_every == 0) {
              report.kept.emplace_back(idx, std::move(*payload));
            }
          }
          if (options.time_codec) {
            report.decode_ns += static_cast<double>(now_ns() - d0);
            report.decoded += decoded;
          }
          if (c.decoder.corrupt()) {
            fail_conn(c, "corrupt reply stream: " + c.decoder.error());
            break;
          }
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          fail_conn(c, n == 0 ? "connection closed by server"
                              : std::string("recv failed: ") +
                                    std::strerror(errno));
          break;
        }
      }
    }
  }
  report.elapsed_s = static_cast<double>(last_reply_ns - start) / 1e9;
  return report;
}

std::size_t probe_conns_served(std::uint16_t port, std::size_t conns,
                               double wait_s) {
  std::vector<Conn> open(conns);
  serve::Request request;
  request.endpoint = serve::Endpoint::kListFields;
  for (std::size_t i = 0; i < conns; ++i) {
    open[i].socket = std::make_unique<Socket>(port);
    request.seq = i + 1;
    const std::string frame =
        serve::encode_frame(serve::format_request(request));
    if (::send(open[i].socket->fd(), frame.data(), frame.size(),
               MSG_NOSIGNAL) != static_cast<ssize_t>(frame.size())) {
      open[i].dead = true;
    }
  }
  std::vector<char> served(conns, 0);
  const auto deadline = now_ns() + static_cast<std::int64_t>(wait_s * 1e9);
  char buf[4096];
  while (now_ns() < deadline) {
    std::vector<pollfd> fds(conns);
    for (std::size_t i = 0; i < conns; ++i) {
      fds[i].fd = (open[i].dead || served[i]) ? -1 : open[i].socket->fd();
      fds[i].events = POLLIN;
    }
    if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
    for (std::size_t i = 0; i < conns; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const ssize_t n = ::recv(open[i].socket->fd(), buf, sizeof buf, 0);
      if (n <= 0) {
        open[i].dead = true;
        continue;
      }
      open[i].decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      if (open[i].decoder.next()) served[i] = 1;
    }
  }
  std::size_t count = 0;
  for (const char s : served) count += s ? 1 : 0;
  return count;
}

}  // namespace perfbench
