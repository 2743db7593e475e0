#include "serve/transport.h"

#include <utility>

namespace abp::serve {

std::string LoopbackTransport::roundtrip_frame(
    const std::string& frame, const std::function<void()>& before_drain) {
  // Decode exactly as a remote transport would: corrupt framing yields the
  // canonical bad-request response instead of reaching the server.
  FrameDecoder decoder;
  decoder.feed(frame);
  std::optional<std::string> payload = decoder.next();
  if (!payload) {
    return encode_frame(refuse_bad_frame(
        *server_, frame.size(),
        decoder.corrupt() ? decoder.error() : "truncated frame"));
  }
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  server_->submit(std::move(*payload), [&promise](std::string reply) {
    promise.set_value(std::move(reply));
  });
  if (before_drain) before_drain();
  if (server_->options().workers == 0) server_->pump();
  return encode_frame(future.get());
}

Response LoopbackTransport::roundtrip(const Request& request) {
  const std::string reply_frame =
      roundtrip_frame(encode_frame(format_request(request)));
  FrameDecoder decoder;
  decoder.feed(reply_frame);
  const std::optional<std::string> payload = decoder.next();
  if (!payload) throw ServeError("loopback: bad response frame");
  std::string error;
  const std::optional<Response> response = parse_response(*payload, &error);
  if (!response) throw ServeError("loopback: bad response payload: " + error);
  return *response;
}

void LoopbackTransport::send_async(
    const Request& request, std::function<void(std::string)> on_reply_frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  server_->submit(format_request(request),
                  [this, cb = std::move(on_reply_frame)](std::string reply) {
                    cb(encode_frame(reply));
                    std::lock_guard<std::mutex> lock(mu_);
                    if (--outstanding_ == 0) cv_.notify_all();
                  });
}

void LoopbackTransport::flush() {
  if (server_->options().workers == 0) server_->pump();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

}  // namespace abp::serve
