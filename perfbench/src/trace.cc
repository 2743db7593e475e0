#include "trace.h"

#include <algorithm>
#include <charconv>

#include "stats.h"

namespace perfbench {

void SpanStore::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanStore::take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

bool peek_request(std::string_view payload, std::uint64_t& seq,
                  serve::Endpoint& endpoint) {
  constexpr std::string_view kHeader = "abp-request 1 ";
  if (payload.substr(0, kHeader.size()) != kHeader) return false;
  payload.remove_prefix(kHeader.size());
  const auto [rest, ec] =
      std::from_chars(payload.data(), payload.data() + payload.size(), seq);
  if (ec != std::errc() || rest == payload.data() + payload.size() ||
      *rest != ' ') {
    return false;
  }
  payload.remove_prefix(static_cast<std::size_t>(rest - payload.data()) + 1);
  const std::size_t eol = payload.find('\n');
  const std::optional<serve::Endpoint> ep =
      serve::endpoint_from_name(payload.substr(0, eol));
  if (!ep) return false;
  endpoint = *ep;
  return true;
}

void TimingSink::submit(std::string payload,
                        std::function<void(std::string)> reply) {
  std::uint64_t seq = 0;
  serve::Endpoint endpoint = serve::Endpoint::kLocalize;
  peek_request(payload, seq, endpoint);
  const std::int64_t t0 = now_ns();
  inner_->submit(std::move(payload),
                 [store = store_, layer = layer_, seq, endpoint, t0,
                  reply = std::move(reply)](std::string out) {
                   store->add({seq, t0, now_ns(), layer, endpoint, 0});
                   reply(std::move(out));
                 });
}

void TimingTransport::send_async(
    const serve::Request& request,
    std::function<void(std::string)> on_reply_frame) {
  const std::int64_t t0 = now_ns();
  inner_->send_async(
      request, [store = store_, backend = backend_, seq = request.seq,
                endpoint = request.endpoint, t0,
                cb = std::move(on_reply_frame)](std::string frame) {
        store->add({seq, t0, now_ns(), Layer::kForward, endpoint, backend});
        cb(std::move(frame));
      });
}

std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

}  // namespace perfbench
