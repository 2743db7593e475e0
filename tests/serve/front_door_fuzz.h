/// \file front_door_fuzz.h
/// \brief Seeded mutational fuzzing of the serving front door, shared by the
/// server (`serve_test`) and router (`cluster_test`) suites.
///
/// With no clang there is no libFuzzer, so the fuzzer is a gtest loop. It
/// mutates valid request frames of every endpoint (bit flips, truncations,
/// splices, garbage bytes, oversized or garbage length headers) and feeds
/// each stream in random chunks through `Connection::on_bytes` into a
/// `FrameSink`. A reference `FrameDecoder` over the same bytes names the
/// payloads the connection owes an answer. Every stream is a pure function
/// of (seed, iteration), so `fuzz_stream(seed, iteration)` rebuilds any
/// input a failure names.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "rng/rng.h"
#include "serve/connection.h"
#include "serve/frame_sink.h"
#include "serve/protocol.h"

namespace abp::serve::fuzz {

/// One valid request per endpoint, against deployment `default`.
inline std::vector<Request> seed_requests() {
  std::vector<Request> requests;
  for (const Endpoint endpoint : kAllEndpoints) {
    Request request;
    request.seq = 100 + requests.size();
    request.endpoint = endpoint;
    switch (endpoint) {
      case Endpoint::kLocalize:
      case Endpoint::kErrorAt:
        request.points = {{12, 12}, {50, 50}};
        request.deadline_ms = 5000;
        request.principal = 3;
        break;
      case Endpoint::kPropose:
        request.algorithm = "grid";
        request.count = 2;
        break;
      case Endpoint::kAddBeacon:
        request.points = {{20, 20}};
        request.request_id = 77;
        break;
      case Endpoint::kMutate:
        request.points = {{30, 30}};
        request.version = 2;
        break;
      case Endpoint::kAdmin:
        // `status` only: no single flip turns it into `add` or `drain`.
        request.algorithm = "status";
        request.text = "b1\n";
        break;
      default:
        break;
    }
    requests.push_back(request);
  }
  return requests;
}

inline void flip_bits(std::string& bytes, Rng& rng) {
  if (bytes.empty()) return;
  const std::uint64_t flips = 1 + rng.below(4);
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::size_t pos = static_cast<std::size_t>(rng.below(bytes.size()));
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1u << rng.below(8)));
  }
}

/// A random cut point in [0, size].
inline std::size_t cut(const std::string& bytes, Rng& rng) {
  return static_cast<std::size_t>(rng.below(bytes.size() + 1));
}

/// The byte stream of one fuzz case: one to three request frames, one of
/// them (or the whole stream) mutated.
inline std::string fuzz_stream(std::uint64_t seed, std::size_t iteration) {
  Rng rng(derive_seed(seed, iteration));
  static const std::vector<Request> requests = seed_requests();
  const auto pick = [&] {
    return format_request(requests[rng.below(requests.size())]);
  };
  std::vector<std::string> payloads(1 + rng.below(3));
  for (std::string& payload : payloads) payload = pick();
  std::string& victim = payloads[rng.below(payloads.size())];
  const std::uint64_t kind = rng.below(10);
  // Kinds 1-3 break a payload but keep its framing, so the bytes reach
  // the request parser; kinds 4-9 attack the framing itself.
  switch (kind) {
    case 1:
      flip_bits(victim, rng);
      break;
    case 2:
      victim.resize(cut(victim, rng));
      break;
    case 3: {
      const std::string other = pick();
      victim = victim.substr(0, cut(victim, rng)) + other.substr(cut(other, rng));
      break;
    }
    default:
      break;
  }
  std::string stream;
  for (const std::string& payload : payloads) stream += encode_frame(payload);
  switch (kind) {
    case 4:
      flip_bits(stream, rng);
      break;
    case 5:
      stream.resize(cut(stream, rng));
      break;
    case 6: {
      const std::string other = encode_frame(pick());
      stream = stream.substr(0, cut(stream, rng)) + other.substr(cut(other, rng));
      break;
    }
    case 7: {
      std::string garbage(1 + rng.below(24), '\0');
      for (char& c : garbage) c = static_cast<char>(rng.below(256));
      stream.insert(cut(stream, rng), garbage);
      break;
    }
    case 8:
      // A length past the cap, where a frame boundary should be.
      stream += "abps1 " + std::to_string(kMaxFramePayload + 1 +
                                          rng.below(1u << 30)) + "\n";
      break;
    case 9: {
      std::string length(1 + rng.below(8), '\0');
      for (char& c : length) c = static_cast<char>(' ' + rng.below(95));
      stream += "abps1 " + length + "\nabp-request 1 1 stats\n";
      break;
    }
    default:
      break;
  }
  return stream;
}

/// What one stream produced: the payloads a reference decoder delivers
/// from it, whether it ends corrupt, and the connection's reply payloads
/// in order.
struct Exchange {
  std::vector<std::string> payloads;
  bool corrupt = false;
  std::vector<std::string> replies;
};

/// Feed `stream` through a fresh connection on `sink` in random chunks
/// (the transport's pump hook after each), wait up to 30 s for every
/// reply, and collect what came back.
inline Exchange exchange(FrameSink& sink, const std::string& stream,
                         std::size_t max_inflight, Rng& rng) {
  Exchange result;
  FrameDecoder reference;
  reference.feed(stream);
  while (std::optional<std::string> payload = reference.next()) {
    result.payloads.push_back(std::move(*payload));
  }
  result.corrupt = reference.corrupt();

  Connection::Limits limits;
  limits.max_inflight = max_inflight;
  auto conn = std::make_shared<Connection>(1, sink, limits, nullptr);
  for (std::size_t pos = 0; pos < stream.size();) {
    const std::size_t chunk =
        rng.bernoulli(0.5) ? stream.size() - pos
                           : 1 + static_cast<std::size_t>(rng.below(32));
    const std::size_t n = std::min(chunk, stream.size() - pos);
    conn->on_bytes(std::string_view(stream).substr(pos, n));
    sink.pump_ready();
    pos += n;
    if (!conn->want_read()) break;  // corrupt: the transport stops reading
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (conn->in_flight() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::string written;
  conn->fetch_writable(written);
  FrameDecoder replies;
  replies.feed(written);
  while (std::optional<std::string> reply = replies.next()) {
    result.replies.push_back(std::move(*reply));
  }
  EXPECT_FALSE(replies.corrupt()) << replies.error();
  return result;
}

/// What every front door owes a stream: exactly one reply per delivered
/// payload, in order, each a well-formed response. A payload that parses
/// is answered under its own seq, one that does not with a seq-0
/// `bad-request`; a corrupt stream gets one more `bad-request` last.
inline void expect_one_reply_each(const Exchange& exchange,
                                  const std::string& where) {
  const std::size_t owed = exchange.payloads.size() + (exchange.corrupt ? 1 : 0);
  ASSERT_EQ(exchange.replies.size(), owed) << where;
  for (std::size_t i = 0; i < owed; ++i) {
    std::string error;
    const std::optional<Response> reply =
        parse_response(exchange.replies[i], &error);
    ASSERT_TRUE(reply.has_value()) << where << ", reply " << i << ": " << error;
    const std::optional<Request> request =
        i < exchange.payloads.size() ? parse_request(exchange.payloads[i])
                                     : std::nullopt;
    if (request) {
      EXPECT_EQ(reply->seq, request->seq) << where << ", reply " << i;
    } else {
      EXPECT_EQ(reply->status, Status::kBadRequest) << where << ", reply " << i;
      EXPECT_EQ(reply->seq, 0u) << where << ", reply " << i;
    }
  }
}

}  // namespace abp::serve::fuzz
