#include "serve/fault_transport.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/assert.h"

namespace abp::serve {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kResetBeforeSend: return "reset-before-send";
    case FaultKind::kResetAfterSend: return "reset-after-send";
    case FaultKind::kTruncateRequest: return "truncate-request";
    case FaultKind::kCorruptRequest: return "corrupt-request";
    case FaultKind::kTruncateResponse: return "truncate-response";
    case FaultKind::kCorruptResponse: return "corrupt-response";
    case FaultKind::kStallBeforeExecute: return "stall-before-execute";
    case FaultKind::kSlowLorisRequest: return "slow-loris-request";
    case FaultKind::kDuplicateRequest: return "duplicate-request";
  }
  return "unknown";
}

FaultScript make_retry_storm_script(std::size_t steps, std::uint64_t seed,
                                    bool cycle) {
  Rng rng(derive_seed(seed, 0x570F));
  std::vector<FaultStep> mix;
  mix.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    const std::uint64_t roll = rng.below(100);
    FaultStep step;
    if (roll < 40) {
      step.kind = FaultKind::kNone;
    } else if (roll < 65) {
      step.kind = FaultKind::kDuplicateRequest;
    } else if (roll < 85) {
      step.kind = FaultKind::kResetBeforeSend;
    } else {
      step.kind = FaultKind::kResetAfterSend;
    }
    mix.push_back(step);
  }
  return FaultScript(std::move(mix), cycle);
}

FaultStep FaultScript::next() {
  ++consumed_;
  if (steps_.empty()) return FaultStep{};
  if (next_ >= steps_.size()) {
    if (!cycle_) return FaultStep{};
    next_ = 0;
  }
  return steps_[next_++];
}

FaultTransport::FaultTransport(Server& server, Options options)
    : loopback_(std::make_unique<LoopbackTransport>(server)),
      options_(std::move(options)),
      rng_(derive_seed(options_.seed, 0xFA01)) {}

FaultTransport::FaultTransport(std::function<std::string(std::string)> exchange,
                               Options options)
    : exchange_(std::move(exchange)),
      options_(std::move(options)),
      rng_(derive_seed(options_.seed, 0xFA01)) {
  ABP_CHECK(exchange_ != nullptr, "FaultTransport needs a frame exchange");
}

void FaultTransport::stall(double ms) {
  if (ms <= 0.0) return;
  if (options_.clock) {
    options_.clock->advance(ms);
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

/// Carry the frame to the peer and bring the response frame back. In
/// server mode this is the loopback's exchange, with the stall inserted
/// where a real network would park the request in the queue.
std::string FaultTransport::deliver(std::string frame, double stall_ms) {
  if (!loopback_) {
    stall(stall_ms);  // generic mode: stall before delivery
    return exchange_(std::move(frame));
  }
  // The queued request ages in the stall; deadlines may expire.
  return loopback_->roundtrip_frame(frame, [&] { stall(stall_ms); });
}

std::string FaultTransport::roundtrip_frame(std::string frame) {
  ++exchanges_;
  const FaultStep step = options_.script.next();
  if (step.kind != FaultKind::kNone) ++injected_;
  switch (step.kind) {
    case FaultKind::kNone:
      return deliver(std::move(frame), 0.0);
    case FaultKind::kResetBeforeSend:
      throw ServeError("injected: connection reset before send");
    case FaultKind::kResetAfterSend: {
      deliver(std::move(frame), 0.0);  // the server works; the reply is lost
      throw ServeError("injected: connection reset awaiting response");
    }
    case FaultKind::kTruncateRequest: {
      // A prefix reaches the peer, then the connection dies. The truncated
      // bytes can never form a frame, so the peer sees nothing to answer.
      const std::size_t keep =
          1 + static_cast<std::size_t>(rng_.below(frame.size() - 1));
      frame.resize(keep);
      throw ServeError("injected: connection reset after " +
                       std::to_string(keep) + " bytes of partial frame");
    }
    case FaultKind::kCorruptRequest: {
      const std::size_t pos =
          static_cast<std::size_t>(rng_.below(frame.size()));
      frame[pos] = static_cast<char>(
          frame[pos] ^ (1u << static_cast<unsigned>(rng_.below(8))));
      return deliver(std::move(frame), 0.0);
    }
    case FaultKind::kTruncateResponse: {
      std::string reply = deliver(std::move(frame), 0.0);
      const std::size_t keep =
          1 + static_cast<std::size_t>(rng_.below(reply.size() - 1));
      reply.resize(keep);
      return reply;
    }
    case FaultKind::kCorruptResponse: {
      std::string reply = deliver(std::move(frame), 0.0);
      const std::size_t pos =
          static_cast<std::size_t>(rng_.below(reply.size()));
      reply[pos] = static_cast<char>(
          reply[pos] ^ (1u << static_cast<unsigned>(rng_.below(8))));
      return reply;
    }
    case FaultKind::kStallBeforeExecute:
      return deliver(std::move(frame), step.stall_ms);
    case FaultKind::kSlowLorisRequest: {
      // The peer receives a dribble of bytes that never completes while the
      // connection holds a slot, then the connection dies.
      stall(step.stall_ms);
      throw ServeError("injected: slow-loris connection reset");
    }
    case FaultKind::kDuplicateRequest: {
      // A retransmit the sender never asked for: the same frame reaches the
      // peer twice and the first reply comes back. The peer's dedup layer
      // decides whether the second delivery re-executes.
      std::string first = deliver(frame, 0.0);
      deliver(std::move(frame), 0.0);
      return first;
    }
  }
  throw ServeError("injected: unknown fault kind");  // unreachable
}

void FaultTransport::send_async(
    const Request& request, std::function<void(std::string)> on_reply_frame) {
  on_reply_frame(roundtrip_frame(encode_frame(format_request(request))));
}

Response FaultTransport::roundtrip(const Request& request) {
  const std::string reply_frame =
      roundtrip_frame(encode_frame(format_request(request)));
  FrameDecoder decoder;
  decoder.feed(reply_frame);
  const std::optional<std::string> payload = decoder.next();
  if (!payload) {
    throw ServeError("fault transport: bad response frame" +
                     (decoder.corrupt() ? ": " + decoder.error() : ""));
  }
  std::string error;
  const std::optional<Response> response = parse_response(*payload, &error);
  if (!response) {
    throw ServeError("fault transport: bad response payload: " + error);
  }
  return *response;
}

}  // namespace abp::serve
