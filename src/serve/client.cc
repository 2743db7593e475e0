#include "serve/client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <thread>
#include <utility>

#include "common/assert.h"
#include "common/stopwatch.h"
#include "rng/hash.h"

namespace abp::serve {

namespace {

class BorrowedTransport final : public ClientTransport {
 public:
  explicit BorrowedTransport(ClientTransport& inner) : inner_(&inner) {}
  Response roundtrip(const Request& request) override {
    return inner_->roundtrip(request);
  }
  void send_async(const Request& request,
                  std::function<void(std::string)> on_reply_frame) override {
    inner_->send_async(request, std::move(on_reply_frame));
  }
  void flush() override { inner_->flush(); }
  std::string name() const override { return inner_->name(); }

 private:
  ClientTransport* inner_;
};

}  // namespace

std::unique_ptr<ClientTransport> borrow_transport(ClientTransport& inner) {
  return std::make_unique<BorrowedTransport>(inner);
}

RetryingClient::RetryingClient(TransportFactory factory, RetryPolicy policy)
    : factory_(std::move(factory)),
      policy_(policy),
      rng_(derive_seed(policy.seed, 0xC11E57)) {
  ABP_CHECK(factory_ != nullptr, "RetryingClient needs a transport factory");
  ABP_CHECK(policy_.max_attempts >= 1, "max_attempts must be at least 1");
  ABP_CHECK(policy_.base_backoff_ms > 0.0 &&
                policy_.max_backoff_ms >= policy_.base_backoff_ms,
            "backoff bounds must satisfy 0 < base <= max");
}

void RetryingClient::set_sleeper(std::function<void(double)> sleeper) {
  sleeper_ = std::move(sleeper);
}

void RetryingClient::set_clock(std::function<double()> clock_ms) {
  clock_ms_ = std::move(clock_ms);
}

void RetryingClient::set_request_id_source(
    std::function<std::uint64_t()> source) {
  request_id_source_ = std::move(source);
}

std::uint64_t RetryingClient::mint_request_id() {
  if (request_id_source_) {
    const std::uint64_t id = request_id_source_();
    ABP_CHECK(id != 0, "request-id source must never return 0");
    return id;
  }
  // Ids must be unique across processes that never coordinate — two CLI
  // invocations with identical flags must not collide, so (unlike every
  // other stream in the repo) this one is seeded from real entropy, mixed
  // with a process-local counter through the stable hash.
  static const std::uint64_t process_entropy = [] {
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }();
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t id = 0;
  do {
    id = stable_hash64(process_entropy, counter.fetch_add(1) + 1);
  } while (id == 0);
  return id;
}

double RetryingClient::now_ms() const {
  return clock_ms_ ? clock_ms_() : steady_now_ms();
}

double RetryingClient::next_backoff_ms() {
  // Decorrelated jitter: each sleep is drawn from [base, 3·prev], capped.
  // Spreads synchronized retry storms while still growing exponentially in
  // expectation.
  const double prev = prev_backoff_ms_ > 0.0 ? prev_backoff_ms_
                                             : policy_.base_backoff_ms;
  const double hi = std::min(policy_.max_backoff_ms, 3.0 * prev);
  const double sleep =
      hi <= policy_.base_backoff_ms
          ? policy_.base_backoff_ms
          : rng_.uniform(policy_.base_backoff_ms, hi);
  prev_backoff_ms_ = sleep;
  return sleep;
}

CallResult RetryingClient::call(Request request) {
  CallResult result;
  const double start = now_ms();
  const bool budgeted = policy_.deadline_budget_ms > 0.0;
  bool have_retryable_response = false;
  double server_hint_ms = 0.0;  ///< retry-after from the last shed response

  // One logical write = one request id, minted before the first attempt and
  // never rotated afterwards — rotation would turn a retry after a lost ack
  // into a brand-new write and double-deploy the beacon.
  if (request.endpoint == Endpoint::kAddBeacon && request.request_id == 0) {
    request.request_id = mint_request_id();
  }
  // A caller-supplied attempt means earlier deliveries happened outside
  // this call (e.g. `abp query --attempt N` resending); count up from it.
  const std::uint64_t base_attempt = request.attempt;

  for (std::size_t attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (request.request_id != 0) {
      // 0-based delivery counter, saturating: the server only needs to
      // distinguish "first delivery" from "retry".
      const std::uint64_t delivery = base_attempt + (attempt - 1);
      request.attempt = delivery < std::numeric_limits<std::uint32_t>::max()
                            ? static_cast<std::uint32_t>(delivery)
                            : std::numeric_limits<std::uint32_t>::max();
    }
    double remaining = 0.0;
    if (budgeted) {
      remaining = policy_.deadline_budget_ms - (now_ms() - start);
      if (remaining <= 0.0) {
        if (have_retryable_response) return result;  // last shed response
        result.ok = false;
        result.error = "deadline budget of " +
                       std::to_string(policy_.deadline_budget_ms) +
                       " ms exhausted after " +
                       std::to_string(result.attempts) + " attempt(s)";
        return result;
      }
      // Propagate the remaining budget so the server sheds instead of
      // computing an answer this client will never wait for.
      const auto remaining_ms = static_cast<std::uint32_t>(
          std::max(1.0, std::floor(remaining)));
      request.deadline_ms = request.deadline_ms == 0
                                ? remaining_ms
                                : std::min(request.deadline_ms, remaining_ms);
    }

    ++result.attempts;
    try {
      if (!transport_) transport_ = factory_();
      result.response = transport_->roundtrip(request);
      result.ok = true;
      if (!status_retryable(result.response.status)) return result;
      have_retryable_response = true;
      server_hint_ms = static_cast<double>(result.response.retry_after_ms);
    } catch (const ServeError& e) {
      // Transport-level failure: the connection state is unknown; drop it
      // so the next attempt reconnects.
      transport_.reset();
      ++result.transport_errors;
      result.error = e.what();
      if (!have_retryable_response) result.ok = false;
      server_hint_ms = 0.0;  // hints only come from parsed shed responses
    }

    if (attempt == policy_.max_attempts) break;
    double backoff;
    if (server_hint_ms > 0.0) {
      // An explicit server backpressure hint replaces local jitter — the
      // server knows its queue better than our guess — clamped to the
      // policy's bounds and still capped by the deadline budget below. It
      // also seeds the decorrelated-jitter state so a follow-up shed
      // without a hint grows from here.
      backoff = std::clamp(server_hint_ms, policy_.base_backoff_ms,
                           policy_.max_backoff_ms);
      prev_backoff_ms_ = backoff;
    } else {
      backoff = next_backoff_ms();
    }
    if (budgeted) {
      remaining = policy_.deadline_budget_ms - (now_ms() - start);
      if (remaining <= 0.0) break;
      backoff = std::min(backoff, remaining);
    }
    result.backoff_ms += backoff;
    if (sleeper_) {
      sleeper_(backoff);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          backoff));
    }
  }
  // Retries exhausted: either the last shed response (ok, retryable
  // status) or the last transport error.
  return result;
}

}  // namespace abp::serve
