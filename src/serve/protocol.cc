#include "serve/protocol.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

namespace abp::serve {

namespace {

constexpr std::string_view kFrameMagic = "abps1 ";
constexpr std::string_view kRequestHeader = "abp-request 1";
constexpr std::string_view kResponseHeader = "abp-response 1";
// A frame header is "abps1 " + decimal length + '\n'; with the 4 MiB payload
// cap the length needs at most 7 digits.
constexpr std::size_t kMaxHeaderBytes = kFrameMagic.size() + 8;

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

bool fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

/// Strict finite-double parse of a whole token.
bool parse_double_token(std::string_view token, double* out) {
  if (token.empty() || token.size() >= 64) return false;
  char buf[64];
  token.copy(buf, token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + token.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool parse_u64_token(std::string_view token, std::uint64_t* out) {
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool parse_u32_token(std::string_view token, std::uint32_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64_token(token, &v) || v > 0xFFFFFFFFu) return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

/// Sequential reader over a payload; lines end with '\n' (a final line
/// without one is accepted).
struct Cursor {
  std::string_view payload;
  std::size_t pos = 0;

  bool eof() const { return pos >= payload.size(); }

  std::string_view line() {
    const std::size_t nl = payload.find('\n', pos);
    std::string_view result;
    if (nl == std::string_view::npos) {
      result = payload.substr(pos);
      pos = payload.size();
    } else {
      result = payload.substr(pos, nl - pos);
      pos = nl + 1;
    }
    if (!result.empty() && result.back() == '\r') result.remove_suffix(1);
    return result;
  }

  /// Take exactly `n` raw bytes followed by a newline (text-block body).
  bool raw_block(std::size_t n, std::string* out) {
    if (payload.size() - pos < n) return false;
    out->assign(payload.substr(pos, n));
    pos += n;
    if (pos < payload.size() && payload[pos] == '\n') {
      ++pos;
      return true;
    }
    return pos == payload.size();
  }
};

void append_text_block(std::string& out, const std::string& text) {
  out += "text ";
  out += std::to_string(text.size());
  out += '\n';
  out += text;
  out += '\n';
}

}  // namespace

const char* endpoint_name(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kLocalize: return "localize";
    case Endpoint::kErrorAt: return "error-at";
    case Endpoint::kPropose: return "propose";
    case Endpoint::kAddBeacon: return "add-beacon";
    case Endpoint::kSnapshot: return "snapshot";
    case Endpoint::kStats: return "stats";
    case Endpoint::kListFields: return "list-fields";
    case Endpoint::kMutate: return "mutate";
    case Endpoint::kVersion: return "version";
    case Endpoint::kAdmin: return "admin";
  }
  return "unknown";
}

namespace {

// One row per endpoint, in `kAllEndpoints` order (the static_asserts below
// pin that, so a lookup is a direct index). `mutate` is idempotent by
// construction: it names the exact version it establishes, and a replica at
// or past that version acks without re-applying. `propose` is read-only but
// consumes deployment RNG state, so it must not be cached.
constexpr EndpointTraits kEndpointTraitsTable[] = {
    // endpoint               idem   cache  mutat  intern local  batch
    {Endpoint::kLocalize,     true,  true,  false, false, false, true},
    {Endpoint::kErrorAt,      true,  true,  false, false, false, true},
    {Endpoint::kPropose,      true,  false, false, false, false, false},
    {Endpoint::kAddBeacon,    false, false, true,  false, false, false},
    {Endpoint::kSnapshot,     true,  false, false, false, false, false},
    {Endpoint::kStats,        true,  false, false, false, true,  false},
    {Endpoint::kListFields,   true,  false, false, false, true,  false},
    {Endpoint::kMutate,       true,  false, true,  true,  false, false},
    {Endpoint::kVersion,      true,  false, false, false, false, false},
    // admin is answered by the router's own membership controller
    // (router_local) and never accepted by a backend (internal_only); it is
    // deliberately non-idempotent — a blind re-send of `add` must fail
    // loudly rather than double-run a handoff — and never cacheable.
    {Endpoint::kAdmin,        false, false, false, true,  true,  false},
};

static_assert(std::size(kEndpointTraitsTable) == std::size(kAllEndpoints),
              "every endpoint needs a traits row");

constexpr bool traits_rows_match_endpoint_order() {
  for (std::size_t i = 0; i < std::size(kAllEndpoints); ++i) {
    if (kEndpointTraitsTable[i].endpoint != kAllEndpoints[i]) return false;
  }
  return true;
}

static_assert(traits_rows_match_endpoint_order(),
              "traits rows must follow kAllEndpoints order");

}  // namespace

const EndpointTraits& endpoint_traits(Endpoint endpoint) {
  const auto index = static_cast<std::size_t>(endpoint);
  if (index < std::size(kEndpointTraitsTable)) {
    return kEndpointTraitsTable[index];
  }
  return kEndpointTraitsTable[0];  // unreachable for valid enum values
}

std::optional<Endpoint> endpoint_from_name(std::string_view name) {
  for (const Endpoint endpoint : kAllEndpoints) {
    if (name == endpoint_name(endpoint)) return endpoint;
  }
  return std::nullopt;
}

const char* status_name(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kBadRequest: return "bad-request";
    case Status::kNotFound: return "not-found";
    case Status::kUnavailable: return "unavailable";
    case Status::kInternal: return "internal";
    case Status::kOverloaded: return "overloaded";
    case Status::kDeadlineExceeded: return "deadline-exceeded";
    case Status::kVersionMismatch: return "version-mismatch";
    case Status::kDedupExpired: return "dedup-expired";
  }
  return "unknown";
}

std::optional<Status> status_from_name(std::string_view name) {
  for (const Status status :
       {Status::kOk, Status::kBadRequest, Status::kNotFound,
        Status::kUnavailable, Status::kInternal, Status::kOverloaded,
        Status::kDeadlineExceeded, Status::kVersionMismatch,
        Status::kDedupExpired}) {
    if (name == status_name(status)) return status;
  }
  return std::nullopt;
}

bool status_retryable(Status status) {
  // `dedup-expired` is deliberately terminal: it only answers retries, so
  // re-sending the same id can never change the outcome — looping on it
  // would burn the whole backoff budget for nothing.
  return status == Status::kOverloaded || status == Status::kUnavailable ||
         status == Status::kDeadlineExceeded ||
         status == Status::kVersionMismatch;
}

bool valid_field_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string format_request(const Request& request) {
  std::string out;
  out += kRequestHeader;
  out += ' ';
  out += std::to_string(request.seq);
  out += ' ';
  out += endpoint_name(request.endpoint);
  out += '\n';
  out += "field ";
  out += request.field;
  out += '\n';
  for (const Vec2 p : request.points) {
    out += "point ";
    append_double(out, p.x);
    out += ' ';
    append_double(out, p.y);
    out += '\n';
  }
  if (!request.algorithm.empty()) {
    out += "algorithm ";
    out += request.algorithm;
    out += '\n';
  }
  if (request.count != 1) {
    out += "count ";
    out += std::to_string(request.count);
    out += '\n';
  }
  if (request.deadline_ms != 0) {
    out += "deadline ";
    out += std::to_string(request.deadline_ms);
    out += '\n';
  }
  if (request.principal != 0) {
    out += "principal ";
    out += std::to_string(request.principal);
    out += '\n';
  }
  if (request.version != 0) {
    out += "version ";
    out += std::to_string(request.version);
    out += '\n';
  }
  if (request.incarnation != 0) {
    out += "incarnation ";
    out += std::to_string(request.incarnation);
    out += '\n';
  }
  if (request.request_id != 0) {
    out += "request-id ";
    out += std::to_string(request.request_id);
    out += ' ';
    out += std::to_string(request.attempt);
    out += '\n';
  }
  if (!request.text.empty()) append_text_block(out, request.text);
  return out;
}

std::optional<Request> parse_request(std::string_view payload,
                                     std::string* error) {
  Cursor cursor{payload};
  const auto header = split_tokens(cursor.line());
  if (header.size() != 4 || header[0] != "abp-request" || header[1] != "1") {
    fail(error, "not an abp-request version-1 payload");
    return std::nullopt;
  }
  Request request;
  if (!parse_u64_token(header[2], &request.seq)) {
    fail(error, "malformed request sequence number");
    return std::nullopt;
  }
  const auto endpoint = endpoint_from_name(header[3]);
  if (!endpoint) {
    fail(error, "unknown endpoint: " + std::string(header[3]));
    return std::nullopt;
  }
  request.endpoint = *endpoint;
  while (!cursor.eof()) {
    const std::string_view line = cursor.line();
    const auto tokens = split_tokens(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "field" && tokens.size() == 2) {
      if (!valid_field_name(tokens[1])) {
        fail(error, "invalid field name");
        return std::nullopt;
      }
      request.field.assign(tokens[1]);
    } else if (tokens[0] == "point" && tokens.size() == 3) {
      Vec2 p;
      if (!parse_double_token(tokens[1], &p.x) ||
          !parse_double_token(tokens[2], &p.y)) {
        fail(error, "malformed point record: " + std::string(line));
        return std::nullopt;
      }
      request.points.push_back(p);
    } else if (tokens[0] == "algorithm" && tokens.size() == 2) {
      request.algorithm.assign(tokens[1]);
    } else if (tokens[0] == "count" && tokens.size() == 2) {
      if (!parse_u32_token(tokens[1], &request.count) || request.count == 0) {
        fail(error, "malformed count record: " + std::string(line));
        return std::nullopt;
      }
    } else if (tokens[0] == "deadline" && tokens.size() == 2) {
      // Zero is a valid "no deadline"; negative or non-numeric is malformed.
      if (!parse_u32_token(tokens[1], &request.deadline_ms)) {
        fail(error, "malformed deadline record: " + std::string(line));
        return std::nullopt;
      }
    } else if (tokens[0] == "principal") {
      // Canonical form carries a non-zero id (anonymous requests omit the
      // record entirely), so a truncated or zero-id record is malformed.
      if (tokens.size() != 2 ||
          !parse_u64_token(tokens[1], &request.principal) ||
          request.principal == 0) {
        fail(error, "malformed principal record: " + std::string(line));
        return std::nullopt;
      }
    } else if (tokens[0] == "version" && tokens.size() == 2) {
      // Zero is a valid "unversioned"; non-numeric is malformed.
      if (!parse_u64_token(tokens[1], &request.version)) {
        fail(error, "malformed version record: " + std::string(line));
        return std::nullopt;
      }
    } else if (tokens[0] == "incarnation") {
      // Zero is never sent (the record is omitted instead).
      if (tokens.size() != 2 ||
          !parse_u64_token(tokens[1], &request.incarnation) ||
          request.incarnation == 0) {
        fail(error, "malformed incarnation record: " + std::string(line));
        return std::nullopt;
      }
    } else if (tokens[0] == "request-id") {
      // Canonical form is `request-id <id> <attempt>` with id != 0 (zero
      // ids never appear on the wire — the record is simply omitted), so a
      // truncated or zero-id record is malformed, not "absent".
      if (tokens.size() != 3 ||
          !parse_u64_token(tokens[1], &request.request_id) ||
          request.request_id == 0 ||
          !parse_u32_token(tokens[2], &request.attempt)) {
        fail(error, "malformed request-id record: " + std::string(line));
        return std::nullopt;
      }
    } else if (tokens[0] == "text" && tokens.size() == 2) {
      std::uint64_t n = 0;
      if (!parse_u64_token(tokens[1], &n) || n > kMaxFramePayload ||
          !cursor.raw_block(static_cast<std::size_t>(n), &request.text)) {
        fail(error, "malformed text block");
        return std::nullopt;
      }
    } else {
      fail(error, "unexpected request record: " + std::string(line));
      return std::nullopt;
    }
  }
  return request;
}

std::string format_response(const Response& response) {
  std::string out;
  out += kResponseHeader;
  out += ' ';
  out += std::to_string(response.seq);
  out += ' ';
  out += status_name(response.status);
  out += '\n';
  if (!response.message.empty()) {
    out += "message ";
    for (const char c : response.message) {
      out += (c == '\n' || c == '\r') ? ' ' : c;
    }
    out += '\n';
  }
  if (response.retry_after_ms != 0) {
    out += "retry-after ";
    out += std::to_string(response.retry_after_ms);
    out += '\n';
  }
  if (response.version != 0) {
    out += "version ";
    out += std::to_string(response.version);
    out += '\n';
  }
  if (response.mutation_ack != 0) {
    out += "mutation-ack ";
    out += std::to_string(response.mutation_ack);
    out += '\n';
  }
  for (const PointEstimate& e : response.estimates) {
    out += "estimate ";
    append_double(out, e.estimate.x);
    out += ' ';
    append_double(out, e.estimate.y);
    out += ' ';
    out += std::to_string(e.connected);
    out += '\n';
  }
  for (const double v : response.errors) {
    out += "error ";
    append_double(out, v);
    out += '\n';
  }
  for (const Vec2 p : response.positions) {
    out += "position ";
    append_double(out, p.x);
    out += ' ';
    append_double(out, p.y);
    out += '\n';
  }
  for (const std::uint32_t id : response.beacon_ids) {
    out += "beacon-id ";
    out += std::to_string(id);
    out += '\n';
  }
  if (!response.text.empty()) append_text_block(out, response.text);
  return out;
}

std::optional<Response> parse_response(std::string_view payload,
                                       std::string* error) {
  Cursor cursor{payload};
  const auto header = split_tokens(cursor.line());
  if (header.size() != 4 || header[0] != "abp-response" || header[1] != "1") {
    fail(error, "not an abp-response version-1 payload");
    return std::nullopt;
  }
  Response response;
  if (!parse_u64_token(header[2], &response.seq)) {
    fail(error, "malformed response sequence number");
    return std::nullopt;
  }
  const auto status = status_from_name(header[3]);
  if (!status) {
    fail(error, "unknown status: " + std::string(header[3]));
    return std::nullopt;
  }
  response.status = *status;
  while (!cursor.eof()) {
    const std::string_view line = cursor.line();
    if (line.rfind("message ", 0) == 0) {
      response.message.assign(line.substr(8));
      continue;
    }
    const auto tokens = split_tokens(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "estimate" && tokens.size() == 4) {
      PointEstimate e;
      if (!parse_double_token(tokens[1], &e.estimate.x) ||
          !parse_double_token(tokens[2], &e.estimate.y) ||
          !parse_u32_token(tokens[3], &e.connected)) {
        fail(error, "malformed estimate record: " + std::string(line));
        return std::nullopt;
      }
      response.estimates.push_back(e);
    } else if (tokens[0] == "error" && tokens.size() == 2) {
      double v = 0.0;
      if (!parse_double_token(tokens[1], &v)) {
        fail(error, "malformed error record: " + std::string(line));
        return std::nullopt;
      }
      response.errors.push_back(v);
    } else if (tokens[0] == "position" && tokens.size() == 3) {
      Vec2 p;
      if (!parse_double_token(tokens[1], &p.x) ||
          !parse_double_token(tokens[2], &p.y)) {
        fail(error, "malformed position record: " + std::string(line));
        return std::nullopt;
      }
      response.positions.push_back(p);
    } else if (tokens[0] == "retry-after" && tokens.size() == 2) {
      // Zero is a valid "no hint"; non-numeric is malformed.
      if (!parse_u32_token(tokens[1], &response.retry_after_ms)) {
        fail(error, "malformed retry-after record: " + std::string(line));
        return std::nullopt;
      }
    } else if (tokens[0] == "version" && tokens.size() == 2) {
      if (!parse_u64_token(tokens[1], &response.version)) {
        fail(error, "malformed version record: " + std::string(line));
        return std::nullopt;
      }
    } else if (tokens[0] == "mutation-ack" && tokens.size() == 2) {
      if (!parse_u64_token(tokens[1], &response.mutation_ack)) {
        fail(error, "malformed mutation-ack record: " + std::string(line));
        return std::nullopt;
      }
    } else if (tokens[0] == "beacon-id" && tokens.size() == 2) {
      std::uint32_t id = 0;
      if (!parse_u32_token(tokens[1], &id)) {
        fail(error, "malformed beacon-id record: " + std::string(line));
        return std::nullopt;
      }
      response.beacon_ids.push_back(id);
    } else if (tokens[0] == "text" && tokens.size() == 2) {
      std::uint64_t n = 0;
      if (!parse_u64_token(tokens[1], &n) || n > kMaxFramePayload ||
          !cursor.raw_block(static_cast<std::size_t>(n), &response.text)) {
        fail(error, "malformed text block");
        return std::nullopt;
      }
    } else {
      fail(error, "unexpected response record: " + std::string(line));
      return std::nullopt;
    }
  }
  return response;
}

std::string format_response_capped(const Response& response) {
  std::string payload = format_response(response);
  if (payload.size() > kMaxFramePayload) {
    payload = format_response(refusal(response.seq, Status::kInternal,
                                      "response payload exceeds the " +
                                          std::to_string(kMaxFramePayload) +
                                          "-byte frame cap"));
  }
  return payload;
}

Response refusal(std::uint64_t seq, Status status, std::string message,
                 std::uint32_t retry_after_ms) {
  Response response;
  response.seq = seq;
  response.status = status;
  response.message = std::move(message);
  response.retry_after_ms = retry_after_ms;
  return response;
}

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw ServeError("refusing to emit frame: payload of " +
                     std::to_string(payload.size()) +
                     " bytes exceeds the " +
                     std::to_string(kMaxFramePayload) + "-byte cap");
  }
  std::string frame;
  frame.reserve(kFrameMagic.size() + 12 + payload.size());
  frame += kFrameMagic;
  frame += std::to_string(payload.size());
  frame += '\n';
  frame += payload;
  return frame;
}

void FrameDecoder::mark_corrupt(const std::string& why) {
  corrupt_ = true;
  error_ = why;
  buffer_.clear();
}

void FrameDecoder::feed(std::string_view bytes) {
  if (corrupt_) return;
  buffer_.append(bytes);
}

std::optional<std::string> FrameDecoder::next() {
  if (corrupt_ || buffer_.empty()) return std::nullopt;
  const std::size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) {
    if (buffer_.size() > kMaxHeaderBytes) {
      mark_corrupt("frame header missing newline");
    }
    return std::nullopt;
  }
  if (nl > kMaxHeaderBytes ||
      buffer_.compare(0, kFrameMagic.size(), kFrameMagic) != 0) {
    mark_corrupt("bad frame magic (expected 'abps1')");
    return std::nullopt;
  }
  std::uint64_t length = 0;
  const std::string_view length_text =
      std::string_view(buffer_).substr(kFrameMagic.size(),
                                       nl - kFrameMagic.size());
  if (!parse_u64_token(length_text, &length)) {
    mark_corrupt("malformed frame length");
    return std::nullopt;
  }
  if (length > kMaxFramePayload) {
    mark_corrupt("frame payload exceeds limit");
    return std::nullopt;
  }
  if (buffer_.size() - nl - 1 < length) return std::nullopt;  // need more
  std::string payload = buffer_.substr(nl + 1, length);
  buffer_.erase(0, nl + 1 + length);
  return payload;
}

}  // namespace abp::serve
