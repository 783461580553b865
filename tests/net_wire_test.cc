// Tests for src/net/wire.h: frame encode/decode, message codecs, the status
// envelope, and — the part that earns its keep — a corpus of malformed
// frames (truncations at every prefix length, wrong magic/version/type,
// oversized declared payloads, checksum flips, trailing bytes) that must all
// decode to clean errors, never crashes. Runs under ASan in CI.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "net/wire.h"

namespace edgeshed::net {
namespace {

// ---------------------------------------------------------------------------
// Frame round trips

TEST(WireFrameTest, EncodeDecodeRoundTrip) {
  const std::string payload = "hello frames";
  std::string bytes = EncodeFrame(MessageType::kShedRequest, payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());

  DecodeResult result = DecodeFrame(bytes);
  ASSERT_EQ(result.event, DecodeEvent::kFrame);
  EXPECT_EQ(result.consumed, bytes.size());
  EXPECT_EQ(result.frame.type, MessageType::kShedRequest);
  EXPECT_EQ(result.frame.payload, payload);
}

TEST(WireFrameTest, EmptyPayloadRoundTrip) {
  std::string bytes = EncodeFrame(MessageType::kListDatasetsRequest, "");
  DecodeResult result = DecodeFrame(bytes);
  ASSERT_EQ(result.event, DecodeEvent::kFrame);
  EXPECT_EQ(result.consumed, kFrameHeaderBytes);
  EXPECT_TRUE(result.frame.payload.empty());
}

TEST(WireFrameTest, EveryMessageTypeRoundTrips) {
  const MessageType types[] = {
      MessageType::kShedRequest,         MessageType::kGetStatusRequest,
      MessageType::kWaitRequest,         MessageType::kCancelRequest,
      MessageType::kListDatasetsRequest, MessageType::kPingRequest,
      MessageType::kShedResponse,        MessageType::kGetStatusResponse,
      MessageType::kWaitResponse,        MessageType::kCancelResponse,
      MessageType::kListDatasetsResponse, MessageType::kPingResponse,
      MessageType::kApplyMutationsRequest,
      MessageType::kApplyMutationsResponse,
      MessageType::kErrorResponse,
  };
  for (MessageType type : types) {
    SCOPED_TRACE(MessageTypeToString(type));
    DecodeResult result = DecodeFrame(EncodeFrame(type, "x"));
    ASSERT_EQ(result.event, DecodeEvent::kFrame);
    EXPECT_EQ(result.frame.type, type);
    EXPECT_TRUE(IsKnownMessageType(static_cast<uint8_t>(type)));
  }
  EXPECT_TRUE(IsRequestType(MessageType::kShedRequest));
  EXPECT_FALSE(IsRequestType(MessageType::kShedResponse));
  EXPECT_EQ(ResponseTypeFor(MessageType::kPingRequest),
            MessageType::kPingResponse);
  EXPECT_EQ(ResponseTypeFor(MessageType::kWaitRequest),
            MessageType::kWaitResponse);
  EXPECT_TRUE(IsRequestType(MessageType::kApplyMutationsRequest));
  EXPECT_EQ(ResponseTypeFor(MessageType::kApplyMutationsRequest),
            MessageType::kApplyMutationsResponse);
}

TEST(WireFrameTest, TwoFramesBackToBackDecodeOneAtATime) {
  std::string bytes = EncodeFrame(MessageType::kPingRequest, "a");
  const size_t first = bytes.size();
  bytes += EncodeFrame(MessageType::kCancelRequest, "bb");

  DecodeResult r1 = DecodeFrame(bytes);
  ASSERT_EQ(r1.event, DecodeEvent::kFrame);
  EXPECT_EQ(r1.consumed, first);
  EXPECT_EQ(r1.frame.payload, "a");

  DecodeResult r2 = DecodeFrame(std::string_view(bytes).substr(r1.consumed));
  ASSERT_EQ(r2.event, DecodeEvent::kFrame);
  EXPECT_EQ(r2.frame.type, MessageType::kCancelRequest);
  EXPECT_EQ(r2.frame.payload, "bb");
}

// ---------------------------------------------------------------------------
// Malformed-frame corpus

TEST(WireRobustnessTest, TruncationAtEveryPrefixNeedsMoreData) {
  // A valid frame cut at *every* possible length must be either an honest
  // "need more" or (never) an error/crash — truncation is not malformation.
  const std::string bytes =
      EncodeFrame(MessageType::kShedRequest, "payload bytes here");
  for (size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE(len);
    DecodeResult result = DecodeFrame(std::string_view(bytes).substr(0, len));
    EXPECT_EQ(result.event, DecodeEvent::kNeedMoreData);
    EXPECT_EQ(result.consumed, 0u);
  }
}

TEST(WireRobustnessTest, WrongMagicFailsFast) {
  std::string bytes = EncodeFrame(MessageType::kPingRequest, "p");
  bytes[0] = 'X';
  DecodeResult result = DecodeFrame(bytes);
  ASSERT_EQ(result.event, DecodeEvent::kError);
  EXPECT_EQ(result.error.code(), StatusCode::kInvalidArgument);

  // Garbage should be rejected as soon as the magic bytes exist — a 4-byte
  // HTTP-looking prefix must not stall waiting for a bogus length field.
  DecodeResult early = DecodeFrame("GET /");
  EXPECT_EQ(early.event, DecodeEvent::kError);
}

TEST(WireRobustnessTest, WrongVersionIsError) {
  std::string bytes = EncodeFrame(MessageType::kPingRequest, "p");
  bytes[4] = static_cast<char>(kWireVersion + 1);
  DecodeResult result = DecodeFrame(bytes);
  ASSERT_EQ(result.event, DecodeEvent::kError);
  EXPECT_EQ(result.error.code(), StatusCode::kInvalidArgument);
}

TEST(WireRobustnessTest, UnknownMessageTypeIsError) {
  std::string bytes = EncodeFrame(MessageType::kPingRequest, "p");
  bytes[5] = 0x42;  // not a MessageType
  DecodeResult result = DecodeFrame(bytes);
  ASSERT_EQ(result.event, DecodeEvent::kError);
  EXPECT_EQ(result.error.code(), StatusCode::kInvalidArgument);
}

TEST(WireRobustnessTest, OversizedDeclaredLengthRejectedBeforeBuffering) {
  std::string bytes = EncodeFrame(MessageType::kPingRequest, "p");
  const uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&bytes[8], &huge, sizeof(huge));  // little-endian host in CI
  DecodeResult result =
      DecodeFrame(std::string_view(bytes).substr(0, kFrameHeaderBytes));
  ASSERT_EQ(result.event, DecodeEvent::kError);
  EXPECT_EQ(result.error.code(), StatusCode::kInvalidArgument);
}

TEST(WireRobustnessTest, FlippedPayloadByteIsDataLoss) {
  std::string bytes =
      EncodeFrame(MessageType::kShedRequest, "checksummed payload");
  for (size_t i = kFrameHeaderBytes; i < bytes.size(); ++i) {
    SCOPED_TRACE(i);
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    DecodeResult result = DecodeFrame(corrupt);
    ASSERT_EQ(result.event, DecodeEvent::kError);
    EXPECT_EQ(result.error.code(), StatusCode::kDataLoss);
  }
}

TEST(WireRobustnessTest, FlippedChecksumByteIsDataLoss) {
  std::string bytes = EncodeFrame(MessageType::kShedRequest, "abc");
  bytes[12] = static_cast<char>(bytes[12] ^ 0xFF);
  DecodeResult result = DecodeFrame(bytes);
  ASSERT_EQ(result.event, DecodeEvent::kError);
  EXPECT_EQ(result.error.code(), StatusCode::kDataLoss);
}

TEST(WireRobustnessTest, RandomBytesNeverCrash) {
  // Seeded fuzz: random buffers of random lengths through the decoder. The
  // only contract is "no crash, no huge allocation" — any DecodeEvent is
  // acceptable. ASan in CI turns latent memory bugs here into failures.
  Rng rng(20260807);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t len = rng.UniformU64(64);
    std::string buffer(len, '\0');
    for (char& c : buffer) c = static_cast<char>(rng.Next() & 0xFF);
    DecodeResult result = DecodeFrame(buffer);
    if (result.event == DecodeEvent::kFrame) {
      EXPECT_LE(result.consumed, buffer.size());
    }
  }
}

TEST(WireRobustnessTest, MutatedValidFramesNeverCrash) {
  // Second corpus: start from a valid frame and flip random bytes, which
  // exercises deeper decode paths than pure noise does.
  Rng rng(424242);
  const std::string base =
      EncodeFrame(MessageType::kShedRequest,
                  EncodeShedRequest(ShedRequest{"grqc", "crr", 0.5, 42, 0,
                                                true}));
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = base;
    const int flips = 1 + static_cast<int>(rng.UniformU64(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformU64(mutated.size());
      mutated[pos] = static_cast<char>(rng.Next() & 0xFF);
    }
    DecodeResult result = DecodeFrame(mutated);
    if (result.event == DecodeEvent::kFrame) {
      // Whatever decoded must also survive the message-level decoder.
      ShedRequest request;
      Status status = DecodeShedRequest(result.frame.payload, &request);
      (void)status;
    }
  }
}

// ---------------------------------------------------------------------------
// Status <-> wire code

TEST(WireStatusTest, EveryStatusCodeRoundTripsLosslessly) {
  const StatusCode codes[] = {
      StatusCode::kOk,
      StatusCode::kInvalidArgument,
      StatusCode::kNotFound,
      StatusCode::kFailedPrecondition,
      StatusCode::kOutOfRange,
      StatusCode::kUnimplemented,
      StatusCode::kInternal,
      StatusCode::kIOError,
      StatusCode::kCancelled,
      StatusCode::kDeadlineExceeded,
      StatusCode::kResourceExhausted,
      StatusCode::kDataLoss,
  };
  for (StatusCode code : codes) {
    SCOPED_TRACE(StatusCodeToString(code));
    auto back = StatusCodeFromWireCode(WireCodeFromStatus(code));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, code);
  }
}

TEST(WireStatusTest, UnknownWireCodeIsInvalidArgument) {
  auto decoded = StatusCodeFromWireCode(0xEE);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Response envelope

TEST(WireEnvelopeTest, OkEnvelopeCarriesBody) {
  std::string payload = EncodeResponsePayload(Status::OK(), "body bytes");
  std::string_view body;
  Status status = DecodeResponsePayload(payload, &body);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(body, "body bytes");
}

TEST(WireEnvelopeTest, ErrorEnvelopeRoundTripsStatusLosslessly) {
  const Status original =
      Status::ResourceExhausted("server overloaded: 9 in flight");
  std::string payload = EncodeResponsePayload(original);
  std::string_view body;
  Status status = DecodeResponsePayload(payload, &body);
  EXPECT_EQ(status.code(), original.code());
  EXPECT_EQ(status.message(), original.message());
  EXPECT_TRUE(body.empty());
}

TEST(WireEnvelopeTest, DataLossSurvivesTheWire) {
  std::string payload =
      EncodeResponsePayload(Status::DataLoss("checksum mismatch"));
  std::string_view body;
  Status status = DecodeResponsePayload(payload, &body);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(status.message(), "checksum mismatch");
}

TEST(WireEnvelopeTest, TruncatedErrorEnvelopeFailsDecoding) {
  // An error envelope is code + message with no body, so every strict
  // prefix is undecodable (the message's length prefix outruns the bytes).
  // OK envelopes are different: bytes after the envelope are the body, whose
  // length this layer cannot know — truncated bodies are the typed
  // decoders' problem.
  std::string payload =
      EncodeResponsePayload(Status::NotFound("unknown job id 7"));
  for (size_t len = 0; len < payload.size(); ++len) {
    SCOPED_TRACE(len);
    std::string_view body;
    Status status = DecodeResponsePayload(
        std::string_view(payload).substr(0, len), &body);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.code(), StatusCode::kNotFound);  // failed, not decoded
  }
}

// ---------------------------------------------------------------------------
// Message codecs

TEST(WireMessageTest, ShedRequestRoundTrip) {
  ShedRequest request;
  request.dataset = "livejournal";
  request.method = "bm2";
  request.p = 0.37;
  request.seed = 991;
  request.deadline_ms = 1500;
  request.wait = false;
  request.output = "fleet.shard3.kept";

  ShedRequest decoded;
  ASSERT_TRUE(DecodeShedRequest(EncodeShedRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.dataset, request.dataset);
  EXPECT_EQ(decoded.method, request.method);
  EXPECT_DOUBLE_EQ(decoded.p, request.p);
  EXPECT_EQ(decoded.seed, request.seed);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.wait, request.wait);
  EXPECT_EQ(decoded.output, request.output);
}

TEST(WireMessageTest, ShedRequestEmptyOutputRoundTripsEmpty) {
  ShedRequest decoded;
  decoded.output = "stale";
  ASSERT_TRUE(
      DecodeShedRequest(EncodeShedRequest(ShedRequest{}), &decoded).ok());
  EXPECT_TRUE(decoded.output.empty());
}

TEST(WireMessageTest, ShedRequestRejectsTrailingBytes) {
  std::string payload = EncodeShedRequest(ShedRequest{"g", "crr", 0.5, 1, 0,
                                                      true});
  payload += '\0';
  ShedRequest decoded;
  Status status = DecodeShedRequest(payload, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(WireMessageTest, JobIdAndPingRoundTrip) {
  JobIdRequest job;
  ASSERT_TRUE(
      DecodeJobIdRequest(EncodeJobIdRequest(JobIdRequest{77}), &job).ok());
  EXPECT_EQ(job.job_id, 77u);

  PingMessage pong;
  ASSERT_TRUE(DecodePing(EncodePing(PingMessage{0xDEADBEEF}), &pong).ok());
  EXPECT_EQ(pong.token, 0xDEADBEEFu);
}

TEST(WireMessageTest, ResultSummaryRoundTripWithStats) {
  ResultSummary summary;
  summary.job_id = 5;
  summary.kept_edges = 7860;
  summary.total_delta = 1853.0;
  summary.average_delta = 0.3535;
  summary.reduction_seconds = 1.25;
  summary.deduplicated = true;
  summary.stats = {{"swaps", 120.0}, {"phase1_seconds", 0.8}};

  ResultSummary decoded;
  ASSERT_TRUE(
      DecodeResultSummaryBody(EncodeResultSummaryBody(summary), &decoded)
          .ok());
  EXPECT_EQ(decoded.job_id, summary.job_id);
  EXPECT_EQ(decoded.kept_edges, summary.kept_edges);
  EXPECT_DOUBLE_EQ(decoded.total_delta, summary.total_delta);
  EXPECT_TRUE(decoded.deduplicated);
  ASSERT_EQ(decoded.stats.size(), 2u);
  EXPECT_EQ(decoded.stats[0].first, "swaps");
  EXPECT_DOUBLE_EQ(decoded.stats[1].second, 0.8);
}

TEST(WireMessageTest, ShedResponseWithAndWithoutResult) {
  ShedResponse submitted;
  submitted.job_id = 9;
  ShedResponse decoded;
  ASSERT_TRUE(
      DecodeShedResponseBody(EncodeShedResponseBody(submitted), &decoded)
          .ok());
  EXPECT_EQ(decoded.job_id, 9u);
  EXPECT_FALSE(decoded.has_result);

  ShedResponse finished;
  finished.job_id = 10;
  finished.has_result = true;
  finished.result.kept_edges = 42;
  ASSERT_TRUE(
      DecodeShedResponseBody(EncodeShedResponseBody(finished), &decoded)
          .ok());
  EXPECT_TRUE(decoded.has_result);
  EXPECT_EQ(decoded.result.kept_edges, 42u);
}

TEST(WireMessageTest, GetStatusAndListDatasetsRoundTrip) {
  GetStatusResponse status_response;
  status_response.state = 2;
  status_response.code = WireCodeFromStatus(StatusCode::kCancelled);
  status_response.message = "deadline";
  status_response.deduplicated = true;
  status_response.queue_seconds = 0.5;
  status_response.run_seconds = 1.5;
  GetStatusResponse status_decoded;
  ASSERT_TRUE(DecodeGetStatusResponseBody(
                  EncodeGetStatusResponseBody(status_response),
                  &status_decoded)
                  .ok());
  EXPECT_EQ(status_decoded.state, status_response.state);
  EXPECT_EQ(status_decoded.code, status_response.code);
  EXPECT_EQ(status_decoded.message, "deadline");
  EXPECT_DOUBLE_EQ(status_decoded.run_seconds, 1.5);

  ListDatasetsResponse list;
  list.names = {"enron", "grqc", "hepph"};
  ListDatasetsResponse list_decoded;
  ASSERT_TRUE(DecodeListDatasetsResponseBody(
                  EncodeListDatasetsResponseBody(list), &list_decoded)
                  .ok());
  EXPECT_EQ(list_decoded.names, list.names);
}

TEST(WireMessageTest, ApplyMutationsRoundTrip) {
  ApplyMutationsRequest request;
  request.dataset = "grqc";
  request.inserts = {{1, 9}, {0, 1047}};
  request.deletes = {{0, 1}};
  ApplyMutationsRequest request_decoded;
  ASSERT_TRUE(DecodeApplyMutationsRequest(EncodeApplyMutationsRequest(request),
                                          &request_decoded)
                  .ok());
  EXPECT_EQ(request_decoded.dataset, "grqc");
  EXPECT_EQ(request_decoded.inserts, request.inserts);
  EXPECT_EQ(request_decoded.deletes, request.deletes);

  ApplyMutationsResponse response;
  response.version = 7;
  response.live_edges = 3138;
  response.overlay_inserted = 2;
  response.overlay_deleted = 1;
  response.compacting = 1;
  ApplyMutationsResponse response_decoded;
  ASSERT_TRUE(DecodeApplyMutationsResponseBody(
                  EncodeApplyMutationsResponseBody(response),
                  &response_decoded)
                  .ok());
  EXPECT_EQ(response_decoded.version, 7u);
  EXPECT_EQ(response_decoded.live_edges, 3138u);
  EXPECT_EQ(response_decoded.overlay_inserted, 2u);
  EXPECT_EQ(response_decoded.overlay_deleted, 1u);
  EXPECT_EQ(response_decoded.compacting, 1u);
}

TEST(WireMessageTest, ApplyMutationsEmptyListsRoundTrip) {
  ApplyMutationsRequest request;
  request.dataset = "d";
  ApplyMutationsRequest decoded;
  ASSERT_TRUE(DecodeApplyMutationsRequest(EncodeApplyMutationsRequest(request),
                                          &decoded)
                  .ok());
  EXPECT_TRUE(decoded.inserts.empty());
  EXPECT_TRUE(decoded.deletes.empty());
}

TEST(WireMessageTest, ApplyMutationsHostileCountFailsWithoutAllocating) {
  // A hostile peer can declare any edge count in 4 bytes; the decoder must
  // bound its reserve by the bytes actually present and fail cleanly
  // instead of attempting a multi-GB allocation.
  WireWriter w;
  w.PutString("grqc");
  w.PutU32(0xFFFFFFFFu);  // insert count with no edge bytes behind it
  ApplyMutationsRequest decoded;
  EXPECT_FALSE(DecodeApplyMutationsRequest(w.Take(), &decoded).ok());

  WireWriter w2;
  w2.PutString("grqc");
  w2.PutU32(3);  // declares 3 inserts, supplies 1
  w2.PutU32(0);
  w2.PutU32(1);
  ApplyMutationsRequest decoded2;
  EXPECT_FALSE(DecodeApplyMutationsRequest(w2.Take(), &decoded2).ok());

  WireWriter w3;
  w3.PutString("grqc");
  w3.PutU32(0);  // inserts
  w3.PutU32(0);  // deletes
  w3.PutU32(7);  // trailing garbage must be rejected
  ApplyMutationsRequest decoded3;
  EXPECT_FALSE(DecodeApplyMutationsRequest(w3.Take(), &decoded3).ok());
}

// ---------------------------------------------------------------------------
// v1 <-> v2 compatibility (QoS tails)

TEST(WireCompatTest, OnlyTheCurrentFrameVersionIsAccepted) {
  std::string bytes = EncodeFrame(MessageType::kPingRequest,
                                  EncodePing(PingMessage{1}));
  ASSERT_EQ(static_cast<uint8_t>(bytes[4]), kWireVersion);
  EXPECT_EQ(DecodeFrame(bytes).event, DecodeEvent::kFrame);
  // The CRC covers only the payload, so patching the version byte leaves
  // the frame otherwise valid: the version alone must reject it.
  for (const int version : {kWireVersion - 1, 1, 0, kWireVersion + 1}) {
    bytes[4] = static_cast<char>(version);
    const DecodeResult result = DecodeFrame(bytes);
    ASSERT_EQ(result.event, DecodeEvent::kError) << "version " << version;
    EXPECT_EQ(result.error.code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireCompatTest, ShedRequestCutBeforeQosFieldsIsInvalidArgument) {
  // Tenant and priority are required: a body that stops after `output`
  // (the shape of the retired v1 encoding) is truncated, not defaulted.
  WireWriter w;
  w.PutString("clique");
  w.PutString("crr");
  w.PutDouble(0.4);
  w.PutU64(11);
  w.PutU64(2500);
  w.PutU8(1);          // wait
  w.PutString("out");  // output

  ShedRequest decoded;
  const Status status = DecodeShedRequest(w.bytes(), &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(WireCompatTest, ShedRequestRoundTripsTenantAndPriority) {
  ShedRequest request;
  request.dataset = "g";
  request.tenant = "gold";
  request.priority = 1;
  ShedRequest decoded;
  ASSERT_TRUE(DecodeShedRequest(EncodeShedRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.tenant, "gold");
  EXPECT_EQ(decoded.priority, 1);
}

TEST(WireCompatTest, ResultSummaryCutBeforeQosFieldsIsInvalidArgument) {
  WireWriter w;
  w.PutU64(3);       // job_id
  w.PutU64(120);     // kept_edges
  w.PutDouble(1.0);  // total_delta
  w.PutDouble(0.5);  // average_delta
  w.PutDouble(0.2);  // reduction_seconds
  w.PutU8(0);        // deduplicated
  w.PutU32(1);       // one stat
  w.PutString("swaps");
  w.PutDouble(12.0);

  ResultSummary decoded;
  const Status status = DecodeResultSummaryBody(w.bytes(), &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(WireCompatTest, GetStatusResponseCutBeforeQosFieldsIsInvalidArgument) {
  WireWriter w;
  w.PutU8(2);         // state
  w.PutU8(0);         // code
  w.PutString("");    // message
  w.PutU8(0);         // deduplicated
  w.PutDouble(0.01);  // queue_seconds
  w.PutDouble(0.25);  // run_seconds

  GetStatusResponse decoded;
  const Status status = DecodeGetStatusResponseBody(w.bytes(), &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(WireCompatTest, AppliedTierRoundTripsOnSummaryAndStatus) {
  ResultSummary summary;
  summary.job_id = 8;
  summary.applied_method = "bm2";
  summary.applied_p = 0.25;
  summary.degrade_kind = static_cast<uint8_t>(DegradeKind::kCheaperTier);
  ResultSummary summary_decoded;
  ASSERT_TRUE(DecodeResultSummaryBody(EncodeResultSummaryBody(summary),
                                      &summary_decoded)
                  .ok());
  EXPECT_EQ(summary_decoded.applied_method, "bm2");
  EXPECT_DOUBLE_EQ(summary_decoded.applied_p, 0.25);
  EXPECT_EQ(summary_decoded.degrade_kind,
            static_cast<uint8_t>(DegradeKind::kCheaperTier));

  // The summary also survives embedded in a ShedResponse — it is that
  // message's last field, which is what makes the optional tail safe.
  ShedResponse response;
  response.job_id = 8;
  response.has_result = true;
  response.result = summary;
  ShedResponse response_decoded;
  ASSERT_TRUE(DecodeShedResponseBody(EncodeShedResponseBody(response),
                                     &response_decoded)
                  .ok());
  EXPECT_EQ(response_decoded.result.applied_method, "bm2");
  EXPECT_EQ(response_decoded.result.degrade_kind,
            static_cast<uint8_t>(DegradeKind::kCheaperTier));

  GetStatusResponse status;
  status.state = 2;
  status.applied_method = "local-degree";
  status.applied_p = 0.5;
  status.degrade_kind = static_cast<uint8_t>(DegradeKind::kCachedCoarserP);
  GetStatusResponse status_decoded;
  ASSERT_TRUE(DecodeGetStatusResponseBody(
                  EncodeGetStatusResponseBody(status), &status_decoded)
                  .ok());
  EXPECT_EQ(status_decoded.applied_method, "local-degree");
  EXPECT_EQ(status_decoded.degrade_kind,
            static_cast<uint8_t>(DegradeKind::kCachedCoarserP));
}

TEST(WireMessageTest, WireReaderTrapsOverreadWithStickyFailure) {
  WireWriter writer;
  writer.PutU32(7);
  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.GetU32(), 7u);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.GetU64(), 0u);  // over-read
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.Finish("test").ok());
}

}  // namespace
}  // namespace edgeshed::net
