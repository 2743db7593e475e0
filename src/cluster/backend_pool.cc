#include "cluster/backend_pool.h"

#include <optional>
#include <utility>

#include "common/assert.h"
#include "common/stopwatch.h"
#include "serve/tcp_transport.h"

namespace abp::cluster {

const char* backend_health_name(BackendHealth health) {
  switch (health) {
    case BackendHealth::kClosed: return "closed";
    case BackendHealth::kProbing: return "probing";
    case BackendHealth::kOpen: return "open";
  }
  return "unknown";
}

std::pair<std::string, std::uint16_t> parse_backend_address(
    const std::string& backend) {
  const auto colon = backend.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == backend.size()) {
    throw serve::ServeError("backend must be host:port, got '" + backend +
                            "'");
  }
  const std::string host = backend.substr(0, colon);
  const std::string port_text = backend.substr(colon + 1);
  unsigned long port = 0;
  try {
    std::size_t pos = 0;
    port = std::stoul(port_text, &pos);
    if (pos != port_text.size()) throw std::invalid_argument(port_text);
  } catch (const std::exception&) {
    throw serve::ServeError("bad backend port in '" + backend + "'");
  }
  if (port == 0 || port > 0xFFFF) {
    throw serve::ServeError("backend port out of range in '" + backend + "'");
  }
  return {host, static_cast<std::uint16_t>(port)};
}

BackendPool::BackendPool(std::vector<std::string> backends,
                         BackendPoolOptions options,
                         serve::RouterMetrics& metrics,
                         TransportFactory factory)
    : options_(std::move(options)),
      metrics_(&metrics),
      factory_(std::move(factory)) {
  ABP_CHECK(!backends.empty(), "backend pool needs at least one backend");
  ABP_CHECK(options_.failure_threshold >= 1,
            "failure threshold must be at least 1");
  if (!factory_) {
    const double timeout_s = options_.connect_timeout_s;
    factory_ = [timeout_s](const std::string& backend)
        -> std::unique_ptr<serve::ClientTransport> {
      const auto [host, port] = parse_backend_address(backend);
      return std::make_unique<serve::TcpClientTransport>(host, port,
                                                         timeout_s);
    };
  }
  for (std::string& name : backends) {
    metrics_->add_backend(name);
    auto backend = std::make_unique<Backend>();
    backend->name = name;
    backends_.emplace(std::move(name), std::move(backend));
  }
}

BackendPool::~BackendPool() { stop(); }

double BackendPool::now_ms() const {
  return options_.clock_ms ? options_.clock_ms() : steady_now_ms();
}

void BackendPool::set_recovery_callback(
    std::function<void(const std::string&)> callback) {
  ABP_CHECK(!started_, "set the recovery callback before start()");
  recovery_ = std::move(callback);
}

void BackendPool::start() {
  std::lock_guard<std::mutex> state(state_mu_);
  if (started_) return;
  started_ = true;
  std::lock_guard<std::mutex> map(map_mu_);
  for (auto& [name, backend] : backends_) {
    Backend* b = backend.get();
    b->worker = std::thread([this, b] { worker_loop(*b); });
  }
}

void BackendPool::stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!started_ || stopping()) return;
    stopping_.store(true, std::memory_order_release);
  }
  // Collect under map_mu_, join without it: a worker's final batch may run
  // callbacks that re-enter enqueue() (which takes map_mu_), so holding the
  // map lock across the joins would deadlock. remove_backend() refuses once
  // stopping_ is set, so the pointers stay valid through the joins.
  std::vector<Backend*> live;
  {
    std::lock_guard<std::mutex> map(map_mu_);
    live.reserve(backends_.size());
    for (auto& [name, backend] : backends_) live.push_back(backend.get());
  }
  for (Backend* backend : live) {
    {
      std::lock_guard<std::mutex> lock(backend->mu);
    }
    backend->cv.notify_all();
  }
  for (Backend* backend : live) {
    if (backend->worker.joinable()) backend->worker.join();
  }
}

bool BackendPool::add_backend(const std::string& backend) {
  std::lock_guard<std::mutex> state(state_mu_);
  std::lock_guard<std::mutex> map(map_mu_);
  if (stopping() || backends_.count(backend) != 0) return false;
  metrics_->add_backend(backend);
  auto b = std::make_unique<Backend>();
  b->name = backend;
  Backend* raw = b.get();
  backends_.emplace(backend, std::move(b));
  if (started_) {
    raw->worker = std::thread([this, raw] { worker_loop(*raw); });
  }
  return true;
}

bool BackendPool::remove_backend(const std::string& backend) {
  std::unique_ptr<Backend> victim;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    std::lock_guard<std::mutex> map(map_mu_);
    // Once a stop() is in flight it owns every worker join; racing it with
    // a removal would double-join. Shutdown supersedes membership anyway.
    if (stopping()) return false;
    const auto it = backends_.find(backend);
    if (it == backends_.end()) return false;
    victim = std::move(it->second);
    backends_.erase(it);
  }
  // Out of the map, no new work can arrive; tell the worker to finish its
  // in-flight batch and exit, then fail whatever it left queued.
  {
    std::lock_guard<std::mutex> lock(victim->mu);
    victim->retiring = true;
  }
  victim->cv.notify_all();
  if (victim->worker.joinable()) victim->worker.join();
  {
    std::unique_lock<std::mutex> lock(victim->mu);
    drain_queue(*victim, lock);
  }
  return true;
}

bool BackendPool::queue_idle(const std::string& backend) const {
  std::lock_guard<std::mutex> map(map_mu_);
  const auto it = backends_.find(backend);
  if (it == backends_.end()) return true;
  std::lock_guard<std::mutex> lock(it->second->mu);
  return it->second->queue.empty() && !it->second->busy;
}

std::size_t BackendPool::queue_depth(const std::string& backend) const {
  std::lock_guard<std::mutex> map(map_mu_);
  const auto it = backends_.find(backend);
  if (it == backends_.end()) return 0;
  std::lock_guard<std::mutex> lock(it->second->mu);
  return it->second->queue.size();
}

bool BackendPool::enqueue(const std::string& backend, Forward forward) {
  std::lock_guard<std::mutex> map(map_mu_);
  const auto it = backends_.find(backend);
  if (it == backends_.end()) return false;
  Backend& b = *it->second;
  {
    std::lock_guard<std::mutex> lock(b.mu);
    if (stopping() || b.retiring || b.health == BackendHealth::kOpen) {
      return false;
    }
    b.queue.push_back(std::move(forward));
  }
  b.cv.notify_one();
  return true;
}

void BackendPool::tick() {
  const double now = now_ms();
  std::lock_guard<std::mutex> map(map_mu_);
  for (auto& [name, backend] : backends_) {
    Backend& b = *backend;
    bool notify = false;
    {
      std::lock_guard<std::mutex> lock(b.mu);
      if (b.probe_pending || b.health == BackendHealth::kProbing) continue;
      if (now - b.last_probe_ms < options_.probe_interval_ms) continue;
      b.last_probe_ms = now;
      b.probe_pending = true;
      // An open breaker goes half-open while the probe decides; a closed
      // backend keeps serving while its liveness check rides the queue.
      if (b.health == BackendHealth::kOpen) {
        b.health = BackendHealth::kProbing;
      }
      notify = true;
    }
    if (notify) b.cv.notify_one();
  }
}

BackendHealth BackendPool::health(const std::string& backend) const {
  std::lock_guard<std::mutex> map(map_mu_);
  const auto it = backends_.find(backend);
  // A removed backend and a down backend answer the same question the same
  // way: nothing routes here.
  if (it == backends_.end()) return BackendHealth::kOpen;
  std::lock_guard<std::mutex> lock(it->second->mu);
  return it->second->health;
}

std::vector<std::string> BackendPool::backends() const {
  std::lock_guard<std::mutex> map(map_mu_);
  std::vector<std::string> names;
  names.reserve(backends_.size());
  for (const auto& [name, unused] : backends_) names.push_back(name);
  return names;
}

void BackendPool::worker_loop(Backend& backend) {
  for (;;) {
    std::vector<Forward> batch;
    bool probe = false;
    {
      std::unique_lock<std::mutex> lock(backend.mu);
      backend.cv.wait(lock, [this, &backend] {
        return stopping() || backend.retiring || !backend.queue.empty() ||
               backend.probe_pending;
      });
      if (stopping() || backend.retiring) {
        drain_queue(backend, lock);
        return;
      }
      probe = backend.probe_pending;
      backend.probe_pending = false;
      while (!backend.queue.empty()) {
        batch.push_back(std::move(backend.queue.front()));
        backend.queue.pop_front();
      }
      backend.busy = probe || !batch.empty();
    }
    if (probe) run_probe(backend);
    if (!batch.empty()) run_batch(backend, std::move(batch));
    {
      std::lock_guard<std::mutex> lock(backend.mu);
      backend.busy = false;
    }
  }
}

void BackendPool::drain_queue(Backend& backend,
                              std::unique_lock<std::mutex>& lock) {
  std::deque<Forward> orphans;
  orphans.swap(backend.queue);
  lock.unlock();
  for (Forward& forward : orphans) {
    if (forward.on_failure) forward.on_failure();
  }
  lock.lock();
}

void BackendPool::record_success_locked(Backend& backend) {
  backend.consecutive_failures = 0;
  backend.health = BackendHealth::kClosed;
}

void BackendPool::record_failure_locked(Backend& backend,
                                        std::unique_lock<std::mutex>& lock) {
  ++backend.consecutive_failures;
  if (backend.health == BackendHealth::kProbing) {
    // Failed liveness check on a half-open breaker: straight back to open
    // (already counted as marked-down when it first tripped).
    backend.health = BackendHealth::kOpen;
    drain_queue(backend, lock);
  } else if (backend.health == BackendHealth::kClosed &&
             backend.consecutive_failures >= options_.failure_threshold) {
    backend.health = BackendHealth::kOpen;
    metrics_->add(backend.name, &serve::BackendSnapshot::marked_down);
    // In-flight work already failed via its own callbacks; everything still
    // queued is answered now, as retryable, instead of waiting for a
    // backend that is gone.
    drain_queue(backend, lock);
  }
}

bool BackendPool::run_probe(Backend& backend) {
  serve::Request probe;
  probe.endpoint = serve::Endpoint::kStats;
  bool ok = false;
  try {
    if (!backend.transport) backend.transport = factory_(backend.name);
    const serve::Response response = backend.transport->roundtrip(probe);
    // Any well-formed response proves the backend is serving frames; the
    // status itself (e.g. overloaded) is not a liveness failure.
    (void)response;
    ok = true;
  } catch (const serve::ServeError&) {
    backend.transport.reset();
  }
  metrics_->add(backend.name, &serve::BackendSnapshot::probes);
  if (!ok) metrics_->add(backend.name, &serve::BackendSnapshot::probe_failures);
  bool recovered = false;
  {
    std::unique_lock<std::mutex> lock(backend.mu);
    if (ok) {
      recovered = backend.health != BackendHealth::kClosed;
      record_success_locked(backend);
      if (recovered) {
        metrics_->add(backend.name, &serve::BackendSnapshot::recovered);
      }
    } else {
      record_failure_locked(backend, lock);
    }
  }
  if (recovered && recovery_) recovery_(backend.name);
  return ok;
}

bool BackendPool::run_batch(Backend& backend, std::vector<Forward> batch) {
  // vector<char>, not vector<bool>: the loopback transport may run reply
  // callbacks concurrently on server worker threads, and packed bits would
  // make writes to neighbouring entries race.
  std::vector<char> done(batch.size(), 0);
  bool transport_ok = true;
  try {
    if (!backend.transport) backend.transport = factory_(backend.name);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      backend.transport->send_async(
          batch[i].request, [&batch, &done, i](std::string frame) {
            // The transport hands back the encoded response frame; unwrap
            // it so the router deals in payloads end to end.
            serve::FrameDecoder decoder;
            decoder.feed(frame);
            std::optional<std::string> payload = decoder.next();
            done[i] = 1;
            if (payload) {
              if (batch[i].on_reply) batch[i].on_reply(std::move(*payload));
            } else if (batch[i].on_failure) {
              batch[i].on_failure();
            }
          });
    }
    backend.transport->flush();
  } catch (const serve::ServeError&) {
    transport_ok = false;
    backend.transport.reset();
  }
  if (!transport_ok) {
    metrics_->add(backend.name, &serve::BackendSnapshot::transport_failures);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!done[i] && batch[i].on_failure) batch[i].on_failure();
    }
  }
  {
    std::unique_lock<std::mutex> lock(backend.mu);
    if (transport_ok) {
      record_success_locked(backend);
    } else {
      record_failure_locked(backend, lock);
    }
  }
  return transport_ok;
}

}  // namespace abp::cluster
