#include "serve/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "serve/protocol.h"

namespace abp::serve {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw ServeError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1");
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw_errno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = event_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) {
    throw_errno("epoll_ctl(eventfd)");
  }
}

EventLoop::~EventLoop() {
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, EventHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw_errno("epoll_ctl(add)");
  }
  handlers_[fd] = std::make_shared<EventHandler>(std::move(handler));
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    throw_errno("epoll_ctl(mod)");
  }
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    posted_.push_back(std::move(task));
  }
  wakeup();
}

void EventLoop::wakeup() {
  const std::uint64_t one = 1;
  // The eventfd counter saturates rather than blocks with EFD_NONBLOCK;
  // a full counter already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n =
      ::write(event_fd_, &one, sizeof one);
}

void EventLoop::drain_eventfd() {
  // Without EFD_SEMAPHORE one read returns and clears the whole counter. A
  // write landing after it leaves the fd readable, and the level-triggered
  // wait reports it next round, so a second read could only fail.
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(event_fd_, &count, sizeof count);
}

void EventLoop::run_posted() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks.swap(posted_);
  }
  for (const std::function<void()>& task : tasks) task();
}

void EventLoop::run(const std::function<void()>& on_tick, int tick_ms) {
  while (!stop_) {
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, tick_ms);
    if (n < 0 && errno != EINTR) throw_errno("epoll_wait");
    // Posted tasks run before fd dispatch so cross-thread state changes
    // (new connections, reply flushes, stop requests) are visible first.
    run_posted();
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == event_fd_) {
        drain_eventfd();
        run_posted();
        continue;
      }
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;  // removed by an earlier handler
      const std::shared_ptr<EventHandler> handler = it->second;
      (*handler)(events[i].events);
    }
    if (on_tick) on_tick();
  }
  // Drain tasks that raced the stop (e.g. a connection hand-off posted by
  // the accept path) so their resources are not silently dropped; they run
  // with any stop flags already visible.
  run_posted();
}

void EventLoop::stop() {
  post([this] { stop_ = true; });
}

}  // namespace abp::serve
