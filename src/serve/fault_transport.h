/// \file fault_transport.h
/// \brief Deterministic fault injection around the serve stack.
///
/// `FaultTransport` sits where a flaky network would: between a client and
/// the server's frame boundary. Each exchange consumes the next step of a
/// `FaultScript` and perturbs the byte stream accordingly — dropped
/// connections (before or after the server works), truncated frames,
/// seeded single-bit corruption, stalls that expire queued deadlines, and
/// slow-loris partial delivery. Every decision is a pure function of the
/// script and the seed, so a chaos run replays bit-identically; wall-clock
/// stalls go through a `ManualClock` shared with `Server::Options::clock_ms`
/// so no test ever sleeps.
///
/// Two wiring modes:
///  * over a `Server`, through a `LoopbackTransport` that stalls between
///    queueing and draining — mid-queue stalls are how deadline shedding
///    is driven;
///  * over any raw frame exchange function (e.g. a lambda around
///    `TcpClientTransport::send_raw`/`read_payload`) — faults on a real
///    socket pair.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "rng/rng.h"
#include "serve/transport.h"

namespace abp::serve {

/// Virtual time source for deterministic deadline tests: install
/// `clock.fn()` as both `Server::Options::clock_ms` and the
/// `RetryingClient` clock, then advance it explicitly.
struct ManualClock {
  double now_ms = 0.0;
  void advance(double ms) { now_ms += ms; }
  std::function<double()> fn() {
    return [this] { return now_ms; };
  }
};

enum class FaultKind {
  kNone,              ///< pass through untouched
  kResetBeforeSend,   ///< connection dies; the server never sees the request
  kResetAfterSend,    ///< server executes, the response is lost in transit
  kTruncateRequest,   ///< a seeded prefix of the frame arrives, then reset
  kCorruptRequest,    ///< one seeded bit of the request frame flips
  kTruncateResponse,  ///< response frame cut short → client framing error
  kCorruptResponse,   ///< one seeded bit of the response frame flips
  kStallBeforeExecute,///< request queues, then `stall_ms` pass before drain
  kSlowLorisRequest,  ///< partial delivery + stall holding the slot, then reset
  kDuplicateRequest,  ///< the frame is delivered twice; first reply returned
};

const char* fault_kind_name(FaultKind kind);

/// All injectable kinds, for chaos-suite iteration.
inline constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::kNone,              FaultKind::kResetBeforeSend,
    FaultKind::kResetAfterSend,    FaultKind::kTruncateRequest,
    FaultKind::kCorruptRequest,    FaultKind::kTruncateResponse,
    FaultKind::kCorruptResponse,   FaultKind::kStallBeforeExecute,
    FaultKind::kSlowLorisRequest,  FaultKind::kDuplicateRequest};

static_assert(std::size(kAllFaultKinds) ==
                  static_cast<std::size_t>(FaultKind::kDuplicateRequest) + 1,
              "every FaultKind enumerator must appear in kAllFaultKinds; "
              "keep kDuplicateRequest the last enumerator or update this");

struct FaultStep {
  FaultKind kind = FaultKind::kNone;
  double stall_ms = 0.0;  ///< kStallBeforeExecute / kSlowLorisRequest
};

/// Scripted fault sequence: one step per exchange, cycling (default) or
/// yielding kNone once exhausted.
class FaultScript {
 public:
  FaultScript() = default;
  explicit FaultScript(std::vector<FaultStep> steps, bool cycle = true)
      : steps_(std::move(steps)), cycle_(cycle) {}

  FaultStep next();
  std::size_t consumed() const { return consumed_; }

 private:
  std::vector<FaultStep> steps_;
  bool cycle_ = true;
  std::size_t next_ = 0;
  std::size_t consumed_ = 0;
};

/// Seeded duplicate-heavy fault mix for retry-storm drills: mostly clean
/// exchanges salted with duplicate deliveries and resets on both sides of
/// the send, the faults a write path must survive exactly-once. The same
/// (steps, seed) always yields the same script.
FaultScript make_retry_storm_script(std::size_t steps, std::uint64_t seed,
                                    bool cycle = true);

class FaultTransport final : public ClientTransport {
 public:
  struct Options {
    FaultScript script;
    std::uint64_t seed = 0xFA017;  ///< positions/bits of truncation/corruption
    ManualClock* clock = nullptr;  ///< stalls advance this; nullptr = real sleep
  };

  /// In-process mode over `server` (manual or threaded).
  FaultTransport(Server& server, Options options);
  /// Wrap any raw frame exchange (bytes in → response frame out). Mid-queue
  /// stalls degrade to stalls before delivery in this mode.
  FaultTransport(std::function<std::string(std::string)> exchange,
                 Options options);

  /// Throws `ServeError` for injected connection-level faults, exactly as a
  /// real transport would.
  Response roundtrip(const Request& request) override;

  /// Synchronous pipelining: the reply callback runs inside the call, after
  /// the scripted fault is applied. Connection-level faults throw (like
  /// `roundtrip`) and the callback never runs.
  void send_async(const Request& request,
                  std::function<void(std::string)> on_reply_frame) override;

  std::string name() const override { return "fault"; }

  /// Frame-level exchange applying the next scripted fault.
  std::string roundtrip_frame(std::string frame);

  std::size_t exchanges() const { return exchanges_; }
  std::size_t faults_injected() const { return injected_; }

 private:
  std::string deliver(std::string frame, double stall_ms);
  void stall(double ms);

  std::unique_ptr<LoopbackTransport> loopback_;  ///< server mode only
  std::function<std::string(std::string)> exchange_;
  Options options_;
  Rng rng_;
  std::size_t exchanges_ = 0;
  std::size_t injected_ = 0;
};

}  // namespace abp::serve
