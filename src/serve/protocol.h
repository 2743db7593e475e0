/// \file protocol.h
/// \brief Request/response model and wire codec of the localization query
/// service.
///
/// The service speaks a versioned, length-prefixed frame protocol designed
/// to be byte-exact round-trippable (like `src/io/`) yet safe against
/// untrusted input — every parse path returns a diagnostic instead of
/// tripping an internal invariant. A frame is
///
///     abps1 <payload-bytes>\n<payload>
///
/// where `abps1` pins the protocol version and `<payload-bytes>` is the
/// decimal length of the payload that follows. The payload itself is a
/// line-oriented text message:
///
///     abp-request 1 <seq> <endpoint>
///     field <name>
///     point <x> <y>            (repeated; localize / error-at / add-beacon)
///     algorithm <name>         (propose)
///     count <k>                (propose)
///     deadline <ms>            (optional; 0 or absent = no deadline)
///     principal <id>           (optional; multi-tenant identity for quotas)
///     version <v>              (optional; expected deployment version)
///     incarnation <id>         (optional; router incarnation on installs)
///     request-id <id> <attempt>  (optional; exactly-once write identity)
///     text <bytes>\n<raw bytes>\n   (snapshot install body, length-prefixed)
///
///     abp-response 1 <seq> <status>
///     message <text>           (single line; set when status != ok)
///     retry-after <ms>         (optional; overloaded backpressure hint)
///     version <v>              (optional; deployment version served)
///     mutation-ack <v>         (mutate responses: version now held)
///     estimate <x> <y> <connected>
///     error <value>
///     position <x> <y>
///     beacon-id <id>
///     text <bytes>\n<raw bytes>\n   (snapshot / stats body, length-prefixed)
///
/// The `version` and request-side `text` records were added for cluster
/// routing (cluster/): the router stamps each forwarded request with the
/// deployment version it replicated, a backend running an older snapshot
/// answers `version-mismatch` (retryable) instead of computing on stale
/// data, and snapshot requests carrying a `text` body *install* that field
/// on the backend. The `mutate` endpoint and `mutation-ack` response
/// record extend that machinery to writes: a mutate request carries the
/// points of one logged `add-beacon` plus the exact version it
/// establishes, a replica at version-1 applies it, a replica already at or
/// past that version acks idempotently, and a lagging replica answers
/// `version-mismatch` for the install-then-retry repair path. `version`
/// requests probe a deployment's current version without the snapshot
/// body (the replicator's replay-vs-resync decision). The `incarnation`
/// record fences snapshot installs: a backend skips one older than the
/// version it holds from the same router incarnation. All cluster records
/// are omitted when zero/empty, so single-server traffic is byte-identical
/// to the pre-cluster protocol.
///
/// The `request-id` record makes writes exactly-once: a client mints one
/// 64-bit id per *logical* `add-beacon` (never per attempt) and counts the
/// delivery attempts alongside it. Servers and the cluster router keep a
/// bounded dedup index of applied ids; a redelivered id is answered with
/// the original ack instead of deploying a second beacon, and a *retry*
/// (attempt > 0) whose id has aged out of the index is answered
/// `dedup-expired` rather than silently re-appended. The record is omitted
/// when the id is zero, so id-free traffic stays byte-identical.
///
/// Doubles are written with 17 significant digits so positions and errors
/// survive the wire bit-exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "geom/vec2.h"

namespace abp::serve {

/// Transport-level failure (connect/send/receive/framing on the client
/// side). Server-side parse failures never throw — they become
/// `Status::kBadRequest` responses.
class ServeError : public std::runtime_error {
 public:
  explicit ServeError(const std::string& what) : std::runtime_error(what) {}
};

enum class Endpoint {
  kLocalize,   ///< centroid position estimates for a batch of points
  kErrorAt,    ///< localization error LE for a batch of points
  kPropose,    ///< run a placement algorithm on the current survey
  kAddBeacon,  ///< deploy beacons at explicit positions
  kSnapshot,   ///< serialized field (abp-field text format)
  kStats,      ///< service metrics dump
  kListFields, ///< names of loaded deployments
  kMutate,     ///< replicated write: apply one logged mutation at a version
  kVersion,    ///< cheap deployment-version probe (no snapshot body)
  kAdmin,      ///< membership control plane (add/drain/status); router-only
};

/// All endpoints, for iteration (metrics tables, fuzzing).
inline constexpr Endpoint kAllEndpoints[] = {
    Endpoint::kLocalize,  Endpoint::kErrorAt,  Endpoint::kPropose,
    Endpoint::kAddBeacon, Endpoint::kSnapshot, Endpoint::kStats,
    Endpoint::kListFields, Endpoint::kMutate,  Endpoint::kVersion,
    Endpoint::kAdmin};

enum class Status {
  kOk,
  kBadRequest,        ///< malformed frame/payload or invalid arguments
  kNotFound,          ///< unknown field or algorithm
  kUnavailable,       ///< server shutting down; retry elsewhere
  kInternal,          ///< handler failure
  kOverloaded,        ///< admission control shed the request; retryable
  kDeadlineExceeded,  ///< request deadline passed before execution
  kVersionMismatch,   ///< deployment version differs from the request's
  /// A write *retry* (request-id with attempt > 0) arrived after its id
  /// aged out of the server's dedup window, so the original outcome can no
  /// longer be proven. Definitive for that id: re-sending it yields the
  /// same answer, and the server will never silently re-append. The caller
  /// must verify the write (e.g. a `version`/`snapshot` read) and mint a
  /// fresh id if another beacon is really wanted.
  kDedupExpired,
};

/// True for statuses a client may safely retry: the request was shed before
/// (or instead of) execution, so a later attempt can succeed. Terminal
/// statuses (`bad-request`, `not-found`, `internal`, `dedup-expired`) will
/// fail identically on every retry and must not be re-sent.
bool status_retryable(Status status);

/// Per-endpoint policy, consulted by every layer that must decide how an
/// endpoint behaves without enumerating endpoints itself: router failover
/// (`idempotent`), the router response cache (`cacheable`), quota/metrics
/// accounting (`mutating`), client-origin rejection (`internal_only`),
/// router-local answering (`router_local`) and server-side request
/// coalescing (`batchable`). One row per endpoint — adding an endpoint
/// means adding one row here, not hunting call sites.
struct EndpointTraits {
  Endpoint endpoint = Endpoint::kLocalize;
  /// Safe for a router to re-send to another replica after a transport
  /// failure mid-call (the first attempt may or may not have executed).
  /// `add-beacon` deploys a new beacon per execution, so a blind retry
  /// could double-deploy; `mutate` carries the exact version it
  /// establishes, so a re-send is detected and acked idempotently by any
  /// replica already at (or past) that version.
  bool idempotent = true;
  /// Read-only and deterministic given the deployment version: a router
  /// may serve a repeat of the same request bytes from a version-fenced
  /// response cache. `propose` is read-only but draws from the
  /// deployment's RNG (successive calls differ by design), and `snapshot`
  /// bodies are too large to keep per-request — neither caches.
  bool cacheable = false;
  /// Changes the deployment's beacon set (and therefore its version).
  bool mutating = false;
  /// Minted by cluster infrastructure only; a router rejects it from
  /// clients (accepting one would fork a replica's version history).
  bool internal_only = false;
  /// Answered by the router itself (metrics, deployment registry) instead
  /// of being forwarded to a backend. Exempt from per-principal quotas so
  /// operators can always introspect a loaded router.
  bool router_local = false;
  /// Eligible for cross-request batching: point queries against the same
  /// deployment coalesce into one pass over the spatial index.
  bool batchable = false;
};

/// The traits row for `endpoint` (total: every endpoint has one).
const EndpointTraits& endpoint_traits(Endpoint endpoint);

const char* endpoint_name(Endpoint endpoint);
std::optional<Endpoint> endpoint_from_name(std::string_view name);
const char* status_name(Status status);
std::optional<Status> status_from_name(std::string_view name);

struct Request {
  std::uint64_t seq = 0;
  Endpoint endpoint = Endpoint::kLocalize;
  /// Target deployment; must match [A-Za-z0-9_.-]{1,64}.
  std::string field = "default";
  std::vector<Vec2> points;
  std::string algorithm;      ///< propose only
  std::uint32_t count = 1;    ///< propose only: beacons to suggest
  /// Execution budget in milliseconds from server-side arrival; 0 means no
  /// deadline. A request still queued when its deadline passes is shed with
  /// `Status::kDeadlineExceeded` instead of being computed.
  std::uint32_t deadline_ms = 0;
  /// Multi-tenant identity: the principal (tenant) this request acts for,
  /// minted by the client. 0 = anonymous — the record is omitted on the
  /// wire, so principal-free traffic stays byte-identical to the
  /// pre-identity protocol. Routers and servers account per-principal
  /// token-bucket quotas and weighted-fair dequeue against it.
  std::uint64_t principal = 0;
  /// Expected deployment version (cluster routing); 0 = unversioned. A
  /// backend whose deployment carries a different non-zero version answers
  /// `kVersionMismatch` instead of serving stale data.
  std::uint64_t version = 0;
  /// Snapshot installs from a router: that router process's incarnation, a
  /// random non-zero id fixed for its lifetime. A backend skips an install
  /// older than the version it holds from the same incarnation, so two
  /// installs that run out of order never move a replica back; an install
  /// from another incarnation (a restarted router, whose versions begin
  /// again at 1) always applies. 0 = unfenced (the record is omitted).
  std::uint64_t incarnation = 0;
  /// Exactly-once write identity: a client-generated 64-bit id minted once
  /// per logical `add-beacon` and held constant across every retry of it.
  /// 0 = id-free (the record is omitted on the wire, keeping pre-existing
  /// traffic byte-identical). On `mutate`, carries the id of the logged
  /// write so replicas reconstruct the same dedup state on replay.
  std::uint64_t request_id = 0;
  /// Delivery attempt counter for `request_id`, 0-based: 0 on the first
  /// send, incremented by the client on each retry (saturating). A server
  /// uses it to tell a first delivery (append if unseen) from a retry
  /// (unseen id ⇒ possibly expired ⇒ `dedup-expired`, never re-append).
  std::uint32_t attempt = 0;
  /// Snapshot-install body: a non-empty `text` on a snapshot request asks
  /// the server to *install* this serialized field (at `version`) rather
  /// than return its current one. Empty for every other use.
  std::string text;

  bool operator==(const Request&) const = default;
};

/// One position estimate (localize).
struct PointEstimate {
  Vec2 estimate;
  std::uint32_t connected = 0;  ///< beacons heard at the query point

  bool operator==(const PointEstimate&) const = default;
};

struct Response {
  std::uint64_t seq = 0;
  Status status = Status::kOk;
  std::string message;                   ///< diagnostic when status != ok
  /// Server-side backpressure hint on `overloaded` sheds: how long the
  /// client should wait before retrying, in milliseconds. 0 = no hint.
  /// `RetryingClient` honors it in place of jittered backoff, capped by
  /// its own backoff ceiling and deadline budget.
  std::uint32_t retry_after_ms = 0;
  /// Version of the deployment that served the request (cluster routing);
  /// 0 = unversioned deployment (record omitted on the wire).
  std::uint64_t version = 0;
  /// Mutation acknowledgement (`mutate` responses only): the deployment
  /// version the replica holds after processing the mutation — equal to the
  /// request's version when the mutation applied, larger when the replica
  /// had already absorbed it via a later snapshot or replay (idempotent
  /// skip). 0 = not a mutation ack (record omitted on the wire, keeping
  /// pre-cluster responses byte-identical).
  std::uint64_t mutation_ack = 0;
  std::vector<PointEstimate> estimates;  ///< localize
  std::vector<double> errors;            ///< error-at
  std::vector<Vec2> positions;           ///< propose / add-beacon echo
  std::vector<std::uint32_t> beacon_ids; ///< add-beacon
  std::string text;                      ///< snapshot / stats / list-fields

  bool operator==(const Response&) const = default;
};

/// Serialize to payload text (the bytes inside a frame).
std::string format_request(const Request& request);
std::string format_response(const Response& response);

/// Serialize a response, enforcing the frame cap on the write side: an
/// oversized payload is replaced by a `kInternal` error response (same seq)
/// so a peer never receives a frame its decoder is guaranteed to reject.
std::string format_response_capped(const Response& response);

/// The one refusal builder: a response answering `seq` with the non-ok
/// `status`, the one-line diagnostic `message`, and `retry_after_ms` as its
/// `retry-after` hint (0 = none). The front doors of `Server` and
/// `cluster::Router` and the service's handlers all refuse through it.
Response refusal(std::uint64_t seq, Status status, std::string message,
                 std::uint32_t retry_after_ms = 0);

/// Parse payload text. On failure returns nullopt and, if `error` is
/// non-null, stores a one-line diagnostic. Never throws on untrusted bytes.
std::optional<Request> parse_request(std::string_view payload,
                                     std::string* error = nullptr);
std::optional<Response> parse_response(std::string_view payload,
                                       std::string* error = nullptr);

/// Frames larger than this are rejected by the decoder (memory safety
/// against hostile length prefixes).
inline constexpr std::size_t kMaxFramePayload = 4u << 20;

/// Requests carrying more points than this are rejected with `bad-request`.
/// Shared by servers and the cluster router so a write the router accepts
/// into its mutation log is never one a replica would refuse.
inline constexpr std::size_t kMaxPointsPerRequest = 65536;

/// Wrap a payload in a length-prefixed frame. The cap applies on the write
/// side too: a payload larger than `kMaxFramePayload` throws `ServeError`
/// instead of emitting a frame every conforming decoder rejects.
std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed arbitrary byte chunks, pull complete
/// payloads. Once the stream is corrupt (bad magic, oversized or malformed
/// length) the decoder stays corrupt — framing cannot be resynchronized.
class FrameDecoder {
 public:
  void feed(std::string_view bytes);
  /// Next complete payload, or nullopt if more bytes are needed (or the
  /// stream is corrupt).
  std::optional<std::string> next();

  bool corrupt() const { return corrupt_; }
  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed by `next()`.
  std::size_t buffered() const { return buffer_.size(); }

 private:
  void mark_corrupt(const std::string& why);

  std::string buffer_;
  bool corrupt_ = false;
  std::string error_;
};

/// True iff `name` is a valid deployment name on the wire.
bool valid_field_name(std::string_view name);

}  // namespace abp::serve
