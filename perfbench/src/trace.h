// Spans recorded from the benchmark's own files, around calls into the
// program's public interfaces: a timing `FrameSink` in front of
// `serve::Server` / `cluster::Router`, and a timing `ClientTransport`
// handed to `BackendPool` through its transport factory. Spans of one
// request share its wire `seq`; the router forwards and fans out with the
// client's seq, so spans join exactly across layers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serve/frame_sink.h"
#include "serve/protocol.h"
#include "serve/transport.h"

namespace perfbench {

namespace serve = abp::serve;

enum class Layer : std::uint8_t {
  kServer,   ///< Server sink: submit until the reply callback
  kRouter,   ///< Router sink: submit until the reply callback
  kForward,  ///< pool transport: send_async until the reply frame
};

struct Span {
  std::uint64_t seq = 0;
  std::int64_t t0 = 0;  ///< steady-clock ns
  std::int64_t t1 = 0;
  Layer layer = Layer::kServer;
  serve::Endpoint endpoint = serve::Endpoint::kLocalize;
  std::uint8_t backend = 0;  ///< pool spans: index of the backend
};

/// In-memory span buffer, read once when a run ends.
class SpanStore {
 public:
  void add(const Span& span);
  std::vector<Span> take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
};

/// Read seq and endpoint from a request payload's first line without a
/// full parse. False when the header is not a request header.
bool peek_request(std::string_view payload, std::uint64_t& seq,
                  serve::Endpoint& endpoint);

/// Times every frame through `inner`: one span per submitted request, from
/// `submit` until `inner` hands back the reply. Bytes pass through
/// untouched.
class TimingSink final : public serve::FrameSink {
 public:
  TimingSink(serve::FrameSink& inner, Layer layer, SpanStore& store)
      : inner_(&inner), layer_(layer), store_(&store) {}

  TimingSink(const TimingSink&) = delete;
  TimingSink& operator=(const TimingSink&) = delete;

  void submit(std::string payload,
              std::function<void(std::string)> reply) override;
  void shed_overloaded(std::string payload,
                       std::function<void(std::string)> reply,
                       const std::string& why) override {
    inner_->shed_overloaded(std::move(payload), std::move(reply), why);
  }
  void record_bad_frame(std::size_t bytes_in) override {
    inner_->record_bad_frame(bytes_in);
  }
  double now_ms() const override { return inner_->now_ms(); }
  void pump_ready() override { inner_->pump_ready(); }

 private:
  serve::FrameSink* inner_;
  Layer layer_;
  SpanStore* store_;
};

/// Times every pipelined send over `inner` as a `kForward` span tagged
/// with the backend index. Heartbeat roundtrips pass through untimed.
class TimingTransport final : public serve::ClientTransport {
 public:
  TimingTransport(std::unique_ptr<serve::ClientTransport> inner,
                  std::uint8_t backend, SpanStore& store)
      : inner_(std::move(inner)), backend_(backend), store_(&store) {}

  serve::Response roundtrip(const serve::Request& request) override {
    return inner_->roundtrip(request);
  }
  void send_async(const serve::Request& request,
                  std::function<void(std::string)> on_reply_frame) override;
  void flush() override { inner_->flush(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<serve::ClientTransport> inner_;
  std::uint8_t backend_;
  SpanStore* store_;
};

/// Total length of the union of [t0, t1) intervals clipped to
/// [lo, hi), in ns: the part of a parent span its children cover.
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi);

}  // namespace perfbench
