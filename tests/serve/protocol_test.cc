#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>

namespace abp::serve {
namespace {

Request full_request() {
  Request request;
  request.seq = 42;
  request.endpoint = Endpoint::kLocalize;
  request.field = "west-ridge_2";
  request.points = {{0.1234567890123456, 99.9}, {-3.5, 7.0}};
  return request;
}

TEST(Protocol, RequestRoundTripExact) {
  const Request request = full_request();
  std::string error;
  const auto copy = parse_request(format_request(request), &error);
  ASSERT_TRUE(copy.has_value()) << error;
  EXPECT_EQ(*copy, request);
}

TEST(Protocol, RequestRoundTripAllEndpoints) {
  for (const Endpoint endpoint : kAllEndpoints) {
    Request request;
    request.seq = 7;
    request.endpoint = endpoint;
    request.algorithm = endpoint == Endpoint::kPropose ? "max" : "";
    request.count = endpoint == Endpoint::kPropose ? 3 : 1;
    const auto copy = parse_request(format_request(request));
    ASSERT_TRUE(copy.has_value()) << endpoint_name(endpoint);
    EXPECT_EQ(*copy, request) << endpoint_name(endpoint);
  }
}

TEST(Protocol, ResponseRoundTripExact) {
  Response response;
  response.seq = 91;
  response.status = Status::kOk;
  response.estimates = {{{1.5, 2.5}, 4}, {{-0.25, 1e-17}, 0}};
  response.errors = {0.0, 12.75};
  response.positions = {{33.3, 44.4}};
  response.beacon_ids = {17, 2};
  response.text = "abp-field 1\nbounds 0 0 10 10\nwith\nnewlines\n";
  std::string error;
  const auto copy = parse_response(format_response(response), &error);
  ASSERT_TRUE(copy.has_value()) << error;
  EXPECT_EQ(*copy, response);
}

TEST(Protocol, OverloadedResponseRoundTripsRetryAfterHint) {
  Response response;
  response.seq = 11;
  response.status = Status::kOverloaded;
  response.message = "queue full";
  response.retry_after_ms = 250;
  const auto copy = parse_response(format_response(response));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(*copy, response);
  EXPECT_EQ(copy->retry_after_ms, 250u);

  // A zero hint is omitted from the wire and parses back to zero.
  response.retry_after_ms = 0;
  const std::string wire = format_response(response);
  EXPECT_EQ(wire.find("retry-after"), std::string::npos);
  const auto no_hint = parse_response(wire);
  ASSERT_TRUE(no_hint.has_value());
  EXPECT_EQ(no_hint->retry_after_ms, 0u);
}

TEST(Protocol, ErrorResponseCarriesMessage) {
  Response response;
  response.seq = 3;
  response.status = Status::kNotFound;
  response.message = "unknown field: nowhere";
  const auto copy = parse_response(format_response(response));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->status, Status::kNotFound);
  EXPECT_EQ(copy->message, "unknown field: nowhere");
}

TEST(Protocol, NewlinesInMessageAreFlattened) {
  Response response;
  response.message = "line1\nline2";
  response.status = Status::kInternal;
  const auto copy = parse_response(format_response(response));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->message, "line1 line2");
}

TEST(Protocol, ParseRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(parse_request("", &error).has_value());
  EXPECT_FALSE(parse_request("hello world\n", &error).has_value());
  EXPECT_FALSE(parse_request("abp-request 2 1 localize\n", &error));
  EXPECT_FALSE(parse_request("abp-request 1 x localize\n", &error));
  EXPECT_FALSE(parse_request("abp-request 1 1 teleport\n", &error));
  EXPECT_FALSE(parse_response("abp-request 1 1 localize\n", &error));
}

TEST(Protocol, ParseRejectsMalformedRecords) {
  const std::string head = "abp-request 1 1 localize\n";
  EXPECT_FALSE(parse_request(head + "point 1\n").has_value());
  EXPECT_FALSE(parse_request(head + "point a b\n").has_value());
  EXPECT_FALSE(parse_request(head + "point 1 2 3\n").has_value());
  EXPECT_FALSE(parse_request(head + "point inf 2\n").has_value());
  EXPECT_FALSE(parse_request(head + "point nan 2\n").has_value());
  EXPECT_FALSE(parse_request(head + "field bad name\n").has_value());
  EXPECT_FALSE(parse_request(head + "field ..$$..\n").has_value());
  EXPECT_FALSE(parse_request(head + "count 0\n").has_value());
  EXPECT_FALSE(parse_request(head + "count -3\n").has_value());
  EXPECT_FALSE(parse_request(head + "wibble 1\n").has_value());
}

TEST(Protocol, ParseRejectsEmptyPayload) {
  std::string error;
  EXPECT_FALSE(parse_request("", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_response("", &error).has_value());
  EXPECT_FALSE(parse_request("\n\n\n", &error).has_value());
}

TEST(Protocol, ParseAcceptsCrlfLineEndings) {
  const std::string payload =
      "abp-request 1 5 localize\r\nfield default\r\npoint 1 2\r\n";
  const auto request = parse_request(payload);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->seq, 5u);
  ASSERT_EQ(request->points.size(), 1u);
  EXPECT_EQ(request->points[0], (Vec2{1, 2}));
}

TEST(Protocol, DuplicateScalarRecordsLastWins) {
  // Scalar records (field, count, deadline) overwrite; repeatable records
  // (point) accumulate. Duplicates must never crash or corrupt.
  const std::string head = "abp-request 1 1 propose\n";
  const auto request = parse_request(head +
                                     "field first\nfield second\n"
                                     "count 2\ncount 5\n"
                                     "deadline 10\ndeadline 90\n"
                                     "point 1 1\npoint 2 2\n");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->field, "second");
  EXPECT_EQ(request->count, 5u);
  EXPECT_EQ(request->deadline_ms, 90u);
  EXPECT_EQ(request->points.size(), 2u);
}

TEST(Protocol, DeadlineRecordParsing) {
  const std::string head = "abp-request 1 1 localize\npoint 1 2\n";
  // Absent: no deadline.
  EXPECT_EQ(parse_request(head)->deadline_ms, 0u);
  // Explicit zero is valid and means "no deadline".
  EXPECT_EQ(parse_request(head + "deadline 0\n")->deadline_ms, 0u);
  EXPECT_EQ(parse_request(head + "deadline 250\n")->deadline_ms, 250u);
  // Negative, non-numeric and >u32 values are malformed, not clamped.
  std::string error;
  EXPECT_FALSE(parse_request(head + "deadline -5\n", &error).has_value());
  EXPECT_NE(error.find("deadline"), std::string::npos);
  EXPECT_FALSE(parse_request(head + "deadline soon\n").has_value());
  EXPECT_FALSE(parse_request(head + "deadline 4294967296\n").has_value());
  EXPECT_FALSE(parse_request(head + "deadline\n").has_value());
}

TEST(Protocol, DeadlineRoundTrips) {
  Request request = full_request();
  request.deadline_ms = 1500;
  const auto copy = parse_request(format_request(request));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(*copy, request);
}

TEST(Protocol, VersionRecordRoundTripsBothDirections) {
  Request request = full_request();
  request.version = 9;
  const auto request_copy = parse_request(format_request(request));
  ASSERT_TRUE(request_copy.has_value());
  EXPECT_EQ(request_copy->version, 9u);
  EXPECT_EQ(*request_copy, request);

  Response response;
  response.seq = 5;
  response.status = Status::kVersionMismatch;
  response.message = "backend has v1, request wants v2";
  response.version = 1;
  const auto response_copy = parse_response(format_response(response));
  ASSERT_TRUE(response_copy.has_value());
  EXPECT_EQ(response_copy->version, 1u);
  EXPECT_EQ(*response_copy, response);
}

TEST(Protocol, VersionZeroIsOmittedForPreClusterByteIdentity) {
  // Unversioned traffic must format exactly as before the cluster work:
  // a routed response with the version stripped is byte-identical to a
  // direct single-server response.
  const Request request = full_request();
  EXPECT_EQ(format_request(request).find("version"), std::string::npos);
  Response response;
  response.seq = 1;
  response.status = Status::kOk;
  EXPECT_EQ(format_response(response).find("version"), std::string::npos);
  // Explicit `version 0` parses as unversioned.
  EXPECT_EQ(parse_request("abp-request 1 1 stats\nversion 0\n")->version, 0u);
}

TEST(Protocol, MalformedVersionRecordIsRejected) {
  const std::string head = "abp-request 1 1 localize\npoint 1 2\n";
  std::string error;
  EXPECT_FALSE(parse_request(head + "version two\n", &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos);
  EXPECT_FALSE(parse_request(head + "version\n").has_value());
  EXPECT_FALSE(
      parse_response("abp-response 1 1 ok\nversion -3\n").has_value());
}

Request full_mutate_request() {
  Request request;
  request.seq = 12;
  request.endpoint = Endpoint::kMutate;
  request.field = "default";
  request.version = 4;
  request.points = {{20, 20}, {0.1234567890123456, -99.9}};
  return request;
}

TEST(Protocol, MutateRequestRoundTrips) {
  const Request request = full_mutate_request();
  std::string error;
  const auto copy = parse_request(format_request(request), &error);
  ASSERT_TRUE(copy.has_value()) << error;
  EXPECT_EQ(*copy, request);
  EXPECT_EQ(copy->version, 4u);
}

TEST(Protocol, MutationAckRecordRoundTrips) {
  Response response;
  response.seq = 13;
  response.status = Status::kOk;
  response.positions = {{20, 20}};
  response.beacon_ids = {4};
  response.mutation_ack = 4;
  const auto copy = parse_response(format_response(response));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->mutation_ack, 4u);
  EXPECT_EQ(*copy, response);
}

TEST(Protocol, MutationAckZeroIsOmittedForPreClusterByteIdentity) {
  // Every response that predates the mutation log has mutation_ack == 0,
  // so the record must vanish from the wire — a routed add-beacon response
  // stays byte-identical to a pre-cluster single server's.
  Response response;
  response.seq = 1;
  response.status = Status::kOk;
  response.positions = {{20, 20}};
  response.beacon_ids = {4};
  EXPECT_EQ(format_response(response).find("mutation-ack"),
            std::string::npos);
  // Explicit `mutation-ack 0` parses as absent.
  EXPECT_EQ(
      parse_response("abp-response 1 1 ok\nmutation-ack 0\n")->mutation_ack,
      0u);
}

TEST(Protocol, MalformedMutationAckRecordIsRejected) {
  const std::string head = "abp-response 1 1 ok\n";
  std::string error;
  EXPECT_FALSE(
      parse_response(head + "mutation-ack four\n", &error).has_value());
  EXPECT_NE(error.find("mutation-ack"), std::string::npos);
  EXPECT_FALSE(parse_response(head + "mutation-ack\n").has_value());
  EXPECT_FALSE(parse_response(head + "mutation-ack -2\n").has_value());
}

TEST(Protocol, RequestIdRecordRoundTrips) {
  Request request = full_request();
  request.endpoint = Endpoint::kAddBeacon;
  request.request_id = 0xDEADBEEFCAFED00Dull;
  request.attempt = 3;
  std::string error;
  const auto copy = parse_request(format_request(request), &error);
  ASSERT_TRUE(copy.has_value()) << error;
  EXPECT_EQ(copy->request_id, 0xDEADBEEFCAFED00Dull);
  EXPECT_EQ(copy->attempt, 3u);
  EXPECT_EQ(*copy, request);
}

TEST(Protocol, RequestIdZeroIsOmittedForPreClusterByteIdentity) {
  // Id-free traffic must format exactly as before the dedup work — clients
  // that never send ids keep producing byte-identical frames.
  Request request = full_request();
  request.endpoint = Endpoint::kAddBeacon;
  EXPECT_EQ(format_request(request).find("request-id"), std::string::npos);
  // attempt without an id never reaches the wire either.
  request.attempt = 5;
  EXPECT_EQ(format_request(request).find("request-id"), std::string::npos);
}

TEST(Protocol, MalformedRequestIdRecordIsRejected) {
  const std::string head = "abp-request 1 1 add-beacon\npoint 1 2\n";
  std::string error;
  // Truncated: the canonical record carries both id and attempt.
  EXPECT_FALSE(parse_request(head + "request-id 7\n", &error).has_value());
  EXPECT_NE(error.find("request-id"), std::string::npos);
  EXPECT_FALSE(parse_request(head + "request-id\n").has_value());
  // Zero ids never appear on the wire (the record is omitted instead).
  EXPECT_FALSE(parse_request(head + "request-id 0 1\n").has_value());
  // Non-numeric id or attempt.
  EXPECT_FALSE(parse_request(head + "request-id seven 0\n").has_value());
  EXPECT_FALSE(parse_request(head + "request-id 7 two\n").has_value());
  // Attempt counter past u32 range is malformed, not silently wrapped.
  EXPECT_FALSE(
      parse_request(head + "request-id 7 4294967296\n").has_value());
  // The saturation value itself is still in range.
  const auto copy = parse_request(head + "request-id 7 4294967295\n");
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->attempt, 4294967295u);
}

TEST(Protocol, PrincipalRecordRoundTrips) {
  Request request = full_request();
  request.principal = 0x5EED5EED5EED5EEDull;
  std::string error;
  const auto copy = parse_request(format_request(request), &error);
  ASSERT_TRUE(copy.has_value()) << error;
  EXPECT_EQ(copy->principal, 0x5EED5EED5EED5EEDull);
  EXPECT_EQ(*copy, request);
}

TEST(Protocol, PrincipalZeroIsOmittedForPreTenancyByteIdentity) {
  // Anonymous traffic must format exactly as before the multi-tenant work —
  // clients that never send a principal keep producing byte-identical
  // frames, which also keeps the router cache key stable across them.
  Request request = full_request();
  EXPECT_EQ(request.principal, 0u);
  EXPECT_EQ(format_request(request).find("principal"), std::string::npos);
}

TEST(Protocol, MalformedPrincipalRecordIsRejected) {
  const std::string head = "abp-request 1 1 localize\npoint 1 2\n";
  std::string error;
  EXPECT_FALSE(parse_request(head + "principal\n", &error).has_value());
  EXPECT_NE(error.find("malformed principal record"), std::string::npos);
  // Zero ids never appear on the wire (the record is omitted instead).
  EXPECT_FALSE(parse_request(head + "principal 0\n").has_value());
  EXPECT_FALSE(parse_request(head + "principal seven\n").has_value());
  EXPECT_FALSE(parse_request(head + "principal 7 8\n").has_value());
}

TEST(Protocol, IncarnationRecordRoundTripsAndZeroIsOmitted) {
  Request request = full_request();
  EXPECT_EQ(format_request(request).find("incarnation"), std::string::npos);
  request.endpoint = Endpoint::kSnapshot;
  request.text = "field body\n";
  request.version = 9;
  request.incarnation = 0xFEEDFACE12345678ull;
  std::string error;
  const auto copy = parse_request(format_request(request), &error);
  ASSERT_TRUE(copy.has_value()) << error;
  EXPECT_EQ(copy->incarnation, 0xFEEDFACE12345678ull);
  EXPECT_EQ(*copy, request);
}

TEST(Protocol, MalformedIncarnationRecordIsRejected) {
  const std::string head = "abp-request 1 1 snapshot\nversion 3\n";
  std::string error;
  EXPECT_FALSE(parse_request(head + "incarnation\n", &error).has_value());
  EXPECT_NE(error.find("malformed incarnation record"), std::string::npos);
  EXPECT_FALSE(parse_request(head + "incarnation 0\n").has_value());
  EXPECT_FALSE(parse_request(head + "incarnation x1\n").has_value());
  EXPECT_FALSE(parse_request(head + "incarnation 7 8\n").has_value());
}

TEST(Protocol, DedupExpiredStatusRoundTripsAndIsTerminal) {
  Response response;
  response.seq = 3;
  response.status = Status::kDedupExpired;
  response.message = "request id unknown and the dedup window rolled over";
  const auto copy = parse_response(format_response(response));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->status, Status::kDedupExpired);
  EXPECT_EQ(*copy, response);
  // Retrying the same id can never change the answer: the client must
  // verify the write and mint a fresh id instead of looping.
  EXPECT_FALSE(status_retryable(Status::kDedupExpired));
}

TEST(Protocol, TruncatedMutateFrameDoesNotDecode) {
  // A mutate frame cut mid-points must neither decode nor corrupt the
  // stream: the decoder just waits for the rest of the payload.
  const std::string frame = encode_frame(format_request(full_mutate_request()));
  FrameDecoder decoder;
  decoder.feed(frame.substr(0, frame.size() / 2));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.corrupt());
  decoder.feed(frame.substr(frame.size() / 2));
  const auto payload = decoder.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*parse_request(*payload), full_mutate_request());
}

TEST(Protocol, MaxPointsMutateAlwaysFitsTheFrameCap) {
  // The per-request point cap is sized so a full mutate — worst-case
  // 17-significant-digit coordinates included — still frames: replication
  // can never be wedged by an accepted write that cannot be shipped.
  Request request = full_mutate_request();
  request.points.assign(kMaxPointsPerRequest,
                        {-2.2250738585072014e-308, -1.7976931348623157e+308});
  const std::string payload = format_request(request);
  EXPECT_LE(payload.size(), kMaxFramePayload);
  EXPECT_NO_THROW(encode_frame(payload));
}

TEST(Protocol, RequestTextBlockRoundTripsRawBytes) {
  // Snapshot installs carry the field file verbatim — including newlines
  // and lines that look like protocol records.
  Request request;
  request.seq = 6;
  request.endpoint = Endpoint::kSnapshot;
  request.field = "default";
  request.version = 2;
  request.text = "abp-field 1\nbounds 0 0 10 10\npoint 1 2\n";
  const auto copy = parse_request(format_request(request));
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->text, request.text);
  EXPECT_EQ(*copy, request);
  // Empty text emits no record at all.
  request.text.clear();
  EXPECT_EQ(format_request(request).find("text"), std::string::npos);
}

TEST(Protocol, RequestTextBlockLengthIsValidated) {
  const std::string head = "abp-request 1 1 snapshot\nfield f\n";
  std::string error;
  EXPECT_FALSE(parse_request(head + "text 9999\nshort\n", &error).has_value());
  EXPECT_NE(error.find("text"), std::string::npos);
  EXPECT_FALSE(parse_request(head + "text -1\nx\n").has_value());
  EXPECT_FALSE(parse_request(head + "text\n").has_value());
}

TEST(Protocol, EndpointTraitsCoverEveryEndpoint) {
  for (const Endpoint endpoint : kAllEndpoints) {
    EXPECT_EQ(endpoint_traits(endpoint).endpoint, endpoint)
        << endpoint_name(endpoint);
  }
}

TEST(Protocol, OnlyWritesAndAdminAreNonIdempotent) {
  // add-beacon mints a new beacon per delivery; admin verbs transition the
  // membership state machine, so a blind re-delivery could add or drain
  // twice. Everything else may be retried freely.
  for (const Endpoint endpoint : kAllEndpoints) {
    EXPECT_EQ(endpoint_traits(endpoint).idempotent,
              endpoint != Endpoint::kAddBeacon &&
                  endpoint != Endpoint::kAdmin)
        << endpoint_name(endpoint);
  }
}

TEST(Protocol, EndpointTraitsEncodeLayerPolicy) {
  // Cacheable ⊂ idempotent and read-only: exactly the deterministic point
  // queries. Mutating: the write path pair (admin mutates *membership*, not
  // deployment state, so it is deliberately not `mutating`). Internal-only:
  // replication machinery plus the membership plane — never client-facing.
  // Router-local: answered by the router itself; admin is both router-local
  // and internal-only, so the router answers it and a direct backend
  // rejects it. Batchable == cacheable here by coincidence of both being
  // the point queries, asserted separately so a future divergence is a
  // conscious choice.
  for (const Endpoint endpoint : kAllEndpoints) {
    const EndpointTraits& traits = endpoint_traits(endpoint);
    const bool point_query = endpoint == Endpoint::kLocalize ||
                             endpoint == Endpoint::kErrorAt;
    EXPECT_EQ(traits.cacheable, point_query) << endpoint_name(endpoint);
    EXPECT_EQ(traits.batchable, point_query) << endpoint_name(endpoint);
    EXPECT_EQ(traits.mutating, endpoint == Endpoint::kAddBeacon ||
                                   endpoint == Endpoint::kMutate)
        << endpoint_name(endpoint);
    EXPECT_EQ(traits.internal_only, endpoint == Endpoint::kMutate ||
                                        endpoint == Endpoint::kAdmin)
        << endpoint_name(endpoint);
    EXPECT_EQ(traits.router_local, endpoint == Endpoint::kStats ||
                                       endpoint == Endpoint::kListFields ||
                                       endpoint == Endpoint::kAdmin)
        << endpoint_name(endpoint);
    if (traits.cacheable) {
      EXPECT_TRUE(traits.idempotent) << endpoint_name(endpoint);
    }
  }
}

TEST(Protocol, ResilienceStatusesRoundTrip) {
  for (const Status status : {Status::kOverloaded, Status::kDeadlineExceeded,
                              Status::kVersionMismatch}) {
    EXPECT_TRUE(status_retryable(status));
    EXPECT_EQ(status_from_name(status_name(status)), status);
    Response response;
    response.seq = 11;
    response.status = status;
    response.message = "shed";
    const auto copy = parse_response(format_response(response));
    ASSERT_TRUE(copy.has_value()) << status_name(status);
    EXPECT_EQ(copy->status, status);
  }
  EXPECT_FALSE(status_retryable(Status::kOk));
  EXPECT_FALSE(status_retryable(Status::kBadRequest));
  EXPECT_FALSE(status_retryable(Status::kNotFound));
  EXPECT_FALSE(status_retryable(Status::kInternal));
  EXPECT_TRUE(status_retryable(Status::kUnavailable));
}

TEST(Protocol, FormatResponseCappedReplacesOversizedPayload) {
  Response response;
  response.seq = 77;
  response.status = Status::kOk;
  response.text = std::string(kMaxFramePayload + 1024, 'x');
  const std::string payload = format_response_capped(response);
  EXPECT_LE(payload.size(), kMaxFramePayload);
  const auto parsed = parse_response(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seq, 77u);  // the peer can still correlate the reply
  EXPECT_EQ(parsed->status, Status::kInternal);
  EXPECT_NE(parsed->message.find("4194304"), std::string::npos);
  // The capped payload always frames cleanly.
  EXPECT_NO_THROW(encode_frame(payload));
  // A payload under the cap passes through byte-identical.
  Response small;
  small.seq = 78;
  small.status = Status::kOk;
  EXPECT_EQ(format_response_capped(small), format_response(small));
}

TEST(Protocol, EncodeFrameRejectsOversizedPayload) {
  EXPECT_NO_THROW(encode_frame(std::string(kMaxFramePayload, 'x')));
  EXPECT_THROW(encode_frame(std::string(kMaxFramePayload + 1, 'x')),
               ServeError);
}

TEST(Protocol, ParseReportsDiagnostic) {
  std::string error;
  EXPECT_FALSE(
      parse_request("abp-request 1 1 teleport\n", &error).has_value());
  EXPECT_NE(error.find("teleport"), std::string::npos);
}

TEST(Protocol, FieldNameValidation) {
  EXPECT_TRUE(valid_field_name("default"));
  EXPECT_TRUE(valid_field_name("a-b_c.9"));
  EXPECT_FALSE(valid_field_name(""));
  EXPECT_FALSE(valid_field_name("has space"));
  EXPECT_FALSE(valid_field_name("semi;colon"));
  EXPECT_FALSE(valid_field_name(std::string(65, 'a')));
}

TEST(Protocol, FrameRoundTrip) {
  const std::string payload = format_request(full_request());
  FrameDecoder decoder;
  decoder.feed(encode_frame(payload));
  const auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.corrupt());
}

TEST(Protocol, FrameDecoderHandlesBytewiseFeeding) {
  const std::string payload = "abp-request 1 5 stats\n";
  const std::string frame = encode_frame(payload);
  FrameDecoder decoder;
  for (const char c : frame) {
    decoder.feed(std::string_view(&c, 1));
  }
  const auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
}

TEST(Protocol, FrameDecoderHandlesPipelinedFrames) {
  const std::string a = "abp-request 1 1 stats\n";
  const std::string b = "abp-request 1 2 list-fields\n";
  FrameDecoder decoder;
  decoder.feed(encode_frame(a) + encode_frame(b));
  EXPECT_EQ(decoder.next().value_or(""), a);
  EXPECT_EQ(decoder.next().value_or(""), b);
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(Protocol, FrameDecoderNeedsFullPayload) {
  const std::string frame = encode_frame("abp-request 1 1 stats\n");
  FrameDecoder decoder;
  decoder.feed(frame.substr(0, frame.size() - 5));
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.corrupt());
  decoder.feed(frame.substr(frame.size() - 5));
  EXPECT_TRUE(decoder.next().has_value());
}

TEST(Protocol, FrameDecoderRejectsBadMagic) {
  FrameDecoder decoder;
  decoder.feed("nonsense 22\nabp-request 1 1 stats\n");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.corrupt());
  // Corrupt is sticky: further feeds are ignored.
  decoder.feed(encode_frame("abp-request 1 1 stats\n"));
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(Protocol, FrameDecoderRejectsOversizedLength) {
  FrameDecoder decoder;
  decoder.feed("abps1 99999999999\n");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.corrupt());
}

TEST(Protocol, FrameDecoderRejectsNonNumericLength) {
  FrameDecoder decoder;
  decoder.feed("abps1 12x\npayload");
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.corrupt());
}

TEST(Protocol, FrameDecoderRejectsRunawayHeader) {
  FrameDecoder decoder;
  decoder.feed(std::string(100, 'a'));  // no newline, far past a header
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.corrupt());
}

TEST(Protocol, TextBlockLengthIsValidated) {
  // Claimed text length larger than the remaining payload must fail
  // cleanly, not read out of range.
  const std::string payload = "abp-response 1 1 ok\ntext 9999\nshort\n";
  std::string error;
  EXPECT_FALSE(parse_response(payload, &error).has_value());
  EXPECT_NE(error.find("text"), std::string::npos);
}

}  // namespace
}  // namespace abp::serve
