#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace abp::serve {

Server::Server(LocalizationService& service, Options options)
    : service_(service), options_(options) {
  ABP_CHECK(options_.max_batch >= 1, "max_batch must be at least 1");
  if (options_.quota.enabled()) {
    quotas_ = std::make_unique<PrincipalQuotas>(options_.quota);
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

double Server::now_ms() const {
  return options_.clock_ms ? options_.clock_ms() : steady_now_ms();
}

void Server::refuse(const Request& request, std::size_t bytes_in,
                    const Response& answer,
                    const std::function<void(std::string)>& reply) {
  std::string payload = format_response_capped(answer);
  service_.metrics().record(request.endpoint, answer.status, bytes_in,
                            payload.size(), std::nullopt);
  reply(std::move(payload));
}

void Server::submit(std::string payload,
                    std::function<void(std::string)> reply) {
  std::optional<Request> request = parse_or_refuse(*this, payload, reply);
  if (!request) return;
  const std::size_t bytes_in = payload.size();
  service_.metrics().record_submitted(request->principal);
  if (quotas_) {
    const PrincipalQuotas::Decision decision =
        quotas_->admit(request->principal, now_ms());
    if (!decision.admitted) {
      // Counts toward shed-overloaded too, so admission reconciliation is
      // unchanged by quotas.
      service_.metrics().record_quota_shed(request->principal);
      refuse(*request, bytes_in, quota_refusal(*request, decision), reply);
      return;
    }
  }
  Status shed_status = Status::kUnavailable;
  std::string shed_why = "shutting down";
  {
    std::unique_lock<std::mutex> lock(mu_);
    // One arm per read burst: only the burst's first frame may run inline.
    const bool burst_start = std::exchange(burst_ended_, false);
    if (!stopping_ &&
        (options_.max_queue == 0 || queue_.size() < options_.max_queue)) {
      Pending pending;
      pending.request = std::move(*request);
      pending.reply = std::move(reply);
      pending.bytes_in = bytes_in;
      pending.arrival_ms = now_ms();
      if (burst_start && queue_.empty() && in_flight_ == 0 &&
          endpoint_traits(pending.request.endpoint).batchable &&
          pending.request.points.size() == 1) {
        // An idle server answers a node read here rather than pay a worker
        // wake for a kernel call far cheaper than the wake.
        ++in_flight_;
        lock.unlock();
        std::vector<Pending> batch;
        batch.push_back(std::move(pending));
        run_batch(std::move(batch));
        return;
      }
      queue_.push_back(std::move(pending));
      cv_work_.notify_one();
      return;
    }
    if (!stopping_) {
      shed_status = Status::kOverloaded;
      shed_why = "queue depth limit (" + std::to_string(options_.max_queue) +
                 ") reached; retry with backoff";
    }
  }
  // Shed: answer immediately without entering the queue. Only `overloaded`
  // carries the retry-after hint.
  service_.metrics().record_shed(shed_status);
  refuse(*request, bytes_in,
         refusal(request->seq, shed_status, std::move(shed_why),
                 shed_status == Status::kOverloaded
                     ? options_.retry_after_hint_ms
                     : 0),
         reply);
}

void Server::record_bad_frame(std::size_t /*bytes_in*/) {
  service_.metrics().add(&ServiceCounts::bad_frames);
}

void Server::pump_ready() {
  if (options_.workers == 0) {
    pump();
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  burst_ended_ = true;
}

void Server::shed_overloaded(std::string payload,
                             std::function<void(std::string)> reply,
                             const std::string& why) {
  const std::optional<Request> request =
      parse_or_refuse(*this, payload, reply);
  if (!request) return;
  service_.metrics().record_submitted(request->principal);
  service_.metrics().record_shed(Status::kOverloaded);
  refuse(*request, payload.size(),
         refusal(request->seq, Status::kOverloaded, why,
                 options_.retry_after_hint_ms),
         reply);
}

std::vector<Server::Pending> Server::take_batch_locked() {
  std::vector<Pending> batch;
  if (queue_.empty()) return batch;
  // Fair rotation across principals: seed with the oldest request of the
  // smallest principal id strictly greater than the last one served,
  // wrapping to the smallest queued id. One queued principal → the front
  // of the queue every time, i.e. plain FIFO.
  auto next = queue_.end();   // oldest request of smallest id > cursor
  auto wrap = queue_.begin(); // oldest request of smallest id overall
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const std::uint64_t id = it->request.principal;
    if (id > last_principal_ &&
        (next == queue_.end() || id < next->request.principal)) {
      next = it;
    }
    if (id < wrap->request.principal) wrap = it;
  }
  const auto seed = next != queue_.end() ? next : wrap;
  last_principal_ = seed->request.principal;
  batch.push_back(std::move(*seed));
  queue_.erase(seed);
  if (!endpoint_traits(batch.front().request.endpoint).batchable) {
    return batch;
  }
  // Coalesce further point queries against the same deployment from
  // anywhere in the queue — across principals, so fairness never costs
  // batching throughput; non-matching requests keep their positions.
  // (Copy the key: growing `batch` invalidates references into it.)
  const std::string field = batch.front().request.field;
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < options_.max_batch;) {
    if (endpoint_traits(it->request.endpoint).batchable &&
        it->request.field == field) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

void Server::run_batch(std::vector<Pending> batch) {
  // Deadline propagation through coalescing: shed every request whose
  // budget expired while it sat in the queue — its slot is released and no
  // handler work happens on its behalf.
  const double now = now_ms();
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& pending : batch) {
    const std::uint32_t deadline = pending.request.deadline_ms;
    if (deadline != 0 &&
        now - pending.arrival_ms >= static_cast<double>(deadline)) {
      // The request entered the queue, so its wait there is a sample.
      std::string payload = format_response(
          refusal(pending.request.seq, Status::kDeadlineExceeded,
                  "deadline of " + std::to_string(deadline) +
                      " ms expired before execution"));
      service_.metrics().record(pending.request.endpoint,
                                Status::kDeadlineExceeded, pending.bytes_in,
                                payload.size(),
                                pending.timer.elapsed_ms() * 1e3);
      service_.metrics().record_shed(Status::kDeadlineExceeded);
      pending.reply(std::move(payload));
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (!live.empty()) {
    std::vector<Request> requests;
    requests.reserve(live.size());
    for (const Pending& pending : live) requests.push_back(pending.request);
    std::vector<Response> responses = service_.handle_batch(requests);
    service_.metrics().record_batch(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      std::string payload = format_response_capped(responses[i]);
      service_.metrics().record(requests[i].endpoint, responses[i].status,
                                live[i].bytes_in, payload.size(),
                                live[i].timer.elapsed_ms() * 1e3);
      live[i].reply(std::move(payload));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ -= batch.size();
  }
  cv_drain_.notify_all();
}

void Server::pump() {
  ABP_CHECK(options_.workers == 0, "pump() is for manual-mode servers");
  for (;;) {
    std::vector<Pending> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch = take_batch_locked();
      in_flight_ += batch.size();
    }
    if (batch.empty()) return;
    run_batch(std::move(batch));
  }
}

void Server::worker_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return quit_ || !queue_.empty(); });
      if (queue_.empty()) return;  // quit_ and drained
      batch = take_batch_locked();
      in_flight_ += batch.size();
    }
    run_batch(std::move(batch));
  }
}

void Server::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && quit_) return;
    stopping_ = true;
  }
  if (options_.workers == 0) {
    pump();  // drain on this thread
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
    return;
  }
  {
    // Wait until everything accepted has been answered.
    std::unique_lock<std::mutex> lock(mu_);
    cv_drain_.wait(lock,
                   [this] { return queue_.empty() && in_flight_ == 0; });
    quit_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

bool Server::shutting_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopping_;
}

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t Server::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

}  // namespace abp::serve
