/// \file event_loop.h
/// \brief Minimal epoll event loop with eventfd wakeup.
///
/// One `EventLoop` owns an `epoll` instance and an `eventfd`. The owning
/// thread calls `run()`, which blocks in `epoll_wait` dispatching readiness
/// events to per-fd handlers; any other thread may `post()` a closure (it
/// runs on the loop thread before the next dispatch) or `wakeup()` the
/// loop. The server transport posts only what must run on the loop
/// thread: a connection hand-off, a stop, and the few reply outcomes a
/// completing thread cannot finish itself (arming EPOLLOUT for bytes a
/// full socket left behind, resuming reads, closing a drained connection).
/// Replies themselves are written by the thread that completes them.
///
/// `run()` also invokes an `on_tick` callback at least every `tick_ms`
/// of real time (and after every dispatch round). Deadline bookkeeping
/// (idle-connection timeouts, write-stall budgets) lives in the tick and
/// reads the *injectable* server clock, so fault-injection tests advance a
/// manual clock and observe expiry within one real tick.
///
/// Threading contract: `add_fd`/`modify_fd`/`remove_fd` and handler
/// execution happen on the loop thread (or before `run()` starts);
/// `post`/`wakeup`/`stop` are safe from any thread.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace abp::serve {

class EventLoop {
 public:
  /// Receives the `epoll_events` mask that fired for the fd.
  using EventHandler = std::function<void(std::uint32_t)>;

  /// Creates the epoll and eventfd descriptors; throws ServeError on
  /// failure.
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` for `events` (EPOLLIN/EPOLLOUT/...). Loop thread only.
  void add_fd(int fd, std::uint32_t events, EventHandler handler);
  /// Change the interest mask of a registered fd. Loop thread only.
  void modify_fd(int fd, std::uint32_t events);
  /// Deregister `fd` (does not close it). Safe to call from within the
  /// fd's own handler. Loop thread only.
  void remove_fd(int fd);

  /// Run `task` on the loop thread before the next dispatch round; wakes
  /// the loop. Safe from any thread.
  void post(std::function<void()> task);
  /// Pop the loop out of `epoll_wait`. Safe from any thread.
  void wakeup();

  /// Dispatch until `stop()`; `on_tick` (may be empty) runs after every
  /// wait, at least every `tick_ms` of real time.
  void run(const std::function<void()>& on_tick, int tick_ms);
  /// End `run()` after the current dispatch round. Safe from any thread.
  void stop();

 private:
  void drain_eventfd();
  void run_posted();

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  bool stop_ = false;  ///< loop thread reads; writers go through post()

  // Handlers are wrapped in shared_ptr so a handler that removes its own
  // (or another) fd mid-dispatch cannot free the closure being executed.
  std::unordered_map<int, std::shared_ptr<EventHandler>> handlers_;

  std::mutex mu_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace abp::serve
