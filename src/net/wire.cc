#include "net/wire.h"

#include <bit>
#include <cstring>

#include "common/check.h"
#include "common/crc32.h"
#include "common/strings.h"

namespace edgeshed::net {

namespace {

void AppendLE(std::string* out, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

uint64_t ReadLE(const unsigned char* bytes, int count) {
  uint64_t value = 0;
  for (int i = 0; i < count; ++i) {
    value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

}  // namespace

std::string_view MessageTypeToString(MessageType type) {
  switch (type) {
    case MessageType::kShedRequest:
      return "ShedRequest";
    case MessageType::kGetStatusRequest:
      return "GetStatusRequest";
    case MessageType::kWaitRequest:
      return "WaitRequest";
    case MessageType::kCancelRequest:
      return "CancelRequest";
    case MessageType::kListDatasetsRequest:
      return "ListDatasetsRequest";
    case MessageType::kPingRequest:
      return "PingRequest";
    case MessageType::kApplyMutationsRequest:
      return "ApplyMutationsRequest";
    case MessageType::kShedResponse:
      return "ShedResponse";
    case MessageType::kGetStatusResponse:
      return "GetStatusResponse";
    case MessageType::kWaitResponse:
      return "WaitResponse";
    case MessageType::kCancelResponse:
      return "CancelResponse";
    case MessageType::kListDatasetsResponse:
      return "ListDatasetsResponse";
    case MessageType::kPingResponse:
      return "PingResponse";
    case MessageType::kApplyMutationsResponse:
      return "ApplyMutationsResponse";
    case MessageType::kErrorResponse:
      return "ErrorResponse";
  }
  return "Unknown";
}

bool IsRequestType(MessageType type) {
  const uint8_t value = static_cast<uint8_t>(type);
  return value >= 1 &&
         value <= static_cast<uint8_t>(MessageType::kApplyMutationsRequest);
}

bool IsKnownMessageType(uint8_t type) {
  if (type == static_cast<uint8_t>(MessageType::kErrorResponse)) return true;
  const uint8_t base = type & 0x7F;
  return base >= 1 &&
         base <= static_cast<uint8_t>(MessageType::kApplyMutationsRequest);
}

MessageType ResponseTypeFor(MessageType request) {
  EDGESHED_CHECK(IsRequestType(request))
      << "not a request type: " << static_cast<int>(request);
  return static_cast<MessageType>(static_cast<uint8_t>(request) | 0x80);
}

uint8_t WireCodeFromStatus(StatusCode code) {
  return static_cast<uint8_t>(code);
}

StatusOr<StatusCode> StatusCodeFromWireCode(uint8_t wire_code) {
  if (wire_code > static_cast<uint8_t>(StatusCode::kDataLoss)) {
    return Status::InvalidArgument(
        StrFormat("unknown wire error code %u",
                  static_cast<unsigned>(wire_code)));
  }
  return static_cast<StatusCode>(wire_code);
}

// ---------------------------------------------------------------------------
// Frames

std::string EncodeFrame(MessageType type, std::string_view payload) {
  EDGESHED_CHECK(payload.size() <= kMaxPayloadBytes)
      << "frame payload too large: " << payload.size();
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kWireMagic, sizeof(kWireMagic));
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  AppendLE(&out, 0, 2);  // reserved
  AppendLE(&out, payload.size(), 4);
  AppendLE(&out, Crc32(payload), 4);
  out.append(payload);
  return out;
}

DecodeResult DecodeFrame(std::string_view buffer) {
  DecodeResult result;
  if (buffer.empty()) {
    result.event = DecodeEvent::kNeedMoreData;
    return result;
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(buffer.data());

  // Magic and version are prefix-checkable: reject garbage streams on the
  // very first bytes rather than stalling in kNeedMoreData forever.
  const size_t magic_check = std::min(buffer.size(), sizeof(kWireMagic));
  if (std::memcmp(buffer.data(), kWireMagic, magic_check) != 0) {
    result.event = DecodeEvent::kError;
    result.error = Status::InvalidArgument("bad frame magic");
    return result;
  }
  if (buffer.size() > 4 && bytes[4] != kWireVersion) {
    result.event = DecodeEvent::kError;
    result.error = Status::InvalidArgument(
        StrFormat("unsupported wire version %u (want %u)",
                  static_cast<unsigned>(bytes[4]),
                  static_cast<unsigned>(kWireVersion)));
    return result;
  }
  if (buffer.size() > 5 && !IsKnownMessageType(bytes[5])) {
    result.event = DecodeEvent::kError;
    result.error = Status::InvalidArgument(
        StrFormat("unknown message type %u",
                  static_cast<unsigned>(bytes[5])));
    return result;
  }
  if (buffer.size() < kFrameHeaderBytes) {
    result.event = DecodeEvent::kNeedMoreData;
    return result;
  }

  const uint32_t payload_len = static_cast<uint32_t>(ReadLE(bytes + 8, 4));
  if (payload_len > kMaxPayloadBytes) {
    result.event = DecodeEvent::kError;
    result.error = Status::InvalidArgument(
        StrFormat("oversized frame: declared payload %u > cap %u",
                  payload_len, kMaxPayloadBytes));
    return result;
  }
  if (buffer.size() < kFrameHeaderBytes + payload_len) {
    result.event = DecodeEvent::kNeedMoreData;
    return result;
  }

  const std::string_view payload =
      buffer.substr(kFrameHeaderBytes, payload_len);
  const uint32_t declared_crc = static_cast<uint32_t>(ReadLE(bytes + 12, 4));
  const uint32_t actual_crc = Crc32(payload);
  if (declared_crc != actual_crc) {
    result.event = DecodeEvent::kError;
    result.error = Status::DataLoss(
        StrFormat("frame checksum mismatch: declared %08x, computed %08x",
                  declared_crc, actual_crc));
    return result;
  }

  result.event = DecodeEvent::kFrame;
  result.consumed = kFrameHeaderBytes + payload_len;
  result.frame.type = static_cast<MessageType>(bytes[5]);
  result.frame.payload.assign(payload);
  return result;
}

// ---------------------------------------------------------------------------
// Payload primitives

void WireWriter::PutU8(uint8_t value) { AppendLE(&bytes_, value, 1); }
void WireWriter::PutU16(uint16_t value) { AppendLE(&bytes_, value, 2); }
void WireWriter::PutU32(uint32_t value) { AppendLE(&bytes_, value, 4); }
void WireWriter::PutU64(uint64_t value) { AppendLE(&bytes_, value, 8); }

void WireWriter::PutDouble(double value) {
  PutU64(std::bit_cast<uint64_t>(value));
}

void WireWriter::PutString(std::string_view value) {
  EDGESHED_CHECK(value.size() <= kMaxStringBytes)
      << "wire string too large: " << value.size();
  PutU32(static_cast<uint32_t>(value.size()));
  bytes_.append(value);
}

const unsigned char* WireReader::Take(size_t n) {
  if (!ok_ || bytes_.size() - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  const auto* p =
      reinterpret_cast<const unsigned char*>(bytes_.data()) + pos_;
  pos_ += n;
  return p;
}

uint8_t WireReader::GetU8() {
  const unsigned char* p = Take(1);
  return p == nullptr ? 0 : static_cast<uint8_t>(ReadLE(p, 1));
}

uint16_t WireReader::GetU16() {
  const unsigned char* p = Take(2);
  return p == nullptr ? 0 : static_cast<uint16_t>(ReadLE(p, 2));
}

uint32_t WireReader::GetU32() {
  const unsigned char* p = Take(4);
  return p == nullptr ? 0 : static_cast<uint32_t>(ReadLE(p, 4));
}

uint64_t WireReader::GetU64() {
  const unsigned char* p = Take(8);
  return p == nullptr ? 0 : ReadLE(p, 8);
}

double WireReader::GetDouble() { return std::bit_cast<double>(GetU64()); }

std::string WireReader::GetString() {
  const uint32_t len = GetU32();
  if (!ok_ || len > kMaxStringBytes) {
    ok_ = false;
    return {};
  }
  const unsigned char* p = Take(len);
  if (p == nullptr) return {};
  return std::string(reinterpret_cast<const char*>(p), len);
}

Status WireReader::Finish(std::string_view what) const {
  if (!ok_) {
    return Status::InvalidArgument(
        StrFormat("truncated %.*s payload", static_cast<int>(what.size()),
                  what.data()));
  }
  if (remaining() != 0) {
    return Status::InvalidArgument(
        StrFormat("%zu trailing bytes after %.*s payload", remaining(),
                  static_cast<int>(what.size()), what.data()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Messages

std::string EncodeShedRequest(const ShedRequest& request) {
  WireWriter w;
  w.PutString(request.dataset);
  w.PutString(request.method);
  w.PutDouble(request.p);
  w.PutU64(request.seed);
  w.PutU64(request.deadline_ms);
  w.PutU8(request.wait ? 1 : 0);
  w.PutString(request.output);
  w.PutString(request.tenant);
  w.PutU8(request.priority);
  return w.Take();
}

Status DecodeShedRequest(std::string_view payload, ShedRequest* out) {
  WireReader r(payload);
  out->dataset = r.GetString();
  out->method = r.GetString();
  out->p = r.GetDouble();
  out->seed = r.GetU64();
  out->deadline_ms = r.GetU64();
  out->wait = r.GetU8() != 0;
  out->output = r.GetString();
  out->tenant = r.GetString();
  out->priority = r.GetU8();
  return r.Finish("ShedRequest");
}

std::string EncodeJobIdRequest(const JobIdRequest& request) {
  WireWriter w;
  w.PutU64(request.job_id);
  return w.Take();
}

Status DecodeJobIdRequest(std::string_view payload, JobIdRequest* out) {
  WireReader r(payload);
  out->job_id = r.GetU64();
  return r.Finish("JobIdRequest");
}

std::string EncodePing(const PingMessage& message) {
  WireWriter w;
  w.PutU64(message.token);
  return w.Take();
}

Status DecodePing(std::string_view payload, PingMessage* out) {
  WireReader r(payload);
  out->token = r.GetU64();
  return r.Finish("Ping");
}

namespace {

void PutEdgeList(WireWriter* w,
                 const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  EDGESHED_CHECK(edges.size() <= kMaxPayloadBytes / 8)
      << "mutation edge list too large for one frame";
  w->PutU32(static_cast<uint32_t>(edges.size()));
  for (const auto& [u, v] : edges) {
    w->PutU32(u);
    w->PutU32(v);
  }
}

void GetEdgeList(WireReader* r,
                 std::vector<std::pair<uint32_t, uint32_t>>* edges) {
  const uint32_t count = r->GetU32();
  edges->clear();
  // 8 bytes per edge: never reserve more than the remaining payload can
  // hold, so a hostile count buys no allocation — the reads below trip the
  // reader's failure bit instead.
  edges->reserve(std::min<uint64_t>(count, r->remaining() / 8));
  for (uint32_t i = 0; i < count && r->ok(); ++i) {
    const uint32_t u = r->GetU32();
    const uint32_t v = r->GetU32();
    if (!r->ok()) break;
    edges->emplace_back(u, v);
  }
}

}  // namespace

std::string EncodeApplyMutationsRequest(const ApplyMutationsRequest& request) {
  WireWriter w;
  w.PutString(request.dataset);
  PutEdgeList(&w, request.inserts);
  PutEdgeList(&w, request.deletes);
  return w.Take();
}

Status DecodeApplyMutationsRequest(std::string_view payload,
                                   ApplyMutationsRequest* out) {
  WireReader r(payload);
  out->dataset = r.GetString();
  GetEdgeList(&r, &out->inserts);
  GetEdgeList(&r, &out->deletes);
  return r.Finish("ApplyMutationsRequest");
}

std::string EncodeApplyMutationsResponseBody(
    const ApplyMutationsResponse& response) {
  WireWriter w;
  w.PutU64(response.version);
  w.PutU64(response.live_edges);
  w.PutU64(response.overlay_inserted);
  w.PutU64(response.overlay_deleted);
  w.PutU8(response.compacting);
  return w.Take();
}

Status DecodeApplyMutationsResponseBody(std::string_view body,
                                        ApplyMutationsResponse* out) {
  WireReader r(body);
  out->version = r.GetU64();
  out->live_edges = r.GetU64();
  out->overlay_inserted = r.GetU64();
  out->overlay_deleted = r.GetU64();
  out->compacting = r.GetU8();
  return r.Finish("ApplyMutationsResponse");
}

namespace {

void PutResultSummary(WireWriter* w, const ResultSummary& summary) {
  w->PutU64(summary.job_id);
  w->PutU64(summary.kept_edges);
  w->PutDouble(summary.total_delta);
  w->PutDouble(summary.average_delta);
  w->PutDouble(summary.reduction_seconds);
  w->PutU8(summary.deduplicated ? 1 : 0);
  w->PutU32(static_cast<uint32_t>(summary.stats.size()));
  for (const auto& [name, value] : summary.stats) {
    w->PutString(name);
    w->PutDouble(value);
  }
  w->PutString(summary.applied_method);
  w->PutDouble(summary.applied_p);
  w->PutU8(summary.degrade_kind);
}

void GetResultSummary(WireReader* r, ResultSummary* out) {
  out->job_id = r->GetU64();
  out->kept_edges = r->GetU64();
  out->total_delta = r->GetDouble();
  out->average_delta = r->GetDouble();
  out->reduction_seconds = r->GetDouble();
  out->deduplicated = r->GetU8() != 0;
  const uint32_t stat_count = r->GetU32();
  out->stats.clear();
  // Each entry is at least 12 bytes (length prefix + double), so a bogus
  // count fails the bounds check within one iteration instead of reserving
  // attacker-chosen memory up front.
  for (uint32_t i = 0; i < stat_count && r->ok(); ++i) {
    std::string name = r->GetString();
    const double value = r->GetDouble();
    out->stats.emplace_back(std::move(name), value);
  }
  out->applied_method = r->GetString();
  out->applied_p = r->GetDouble();
  out->degrade_kind = r->GetU8();
}

}  // namespace

std::string EncodeResultSummaryBody(const ResultSummary& summary) {
  WireWriter w;
  PutResultSummary(&w, summary);
  return w.Take();
}

Status DecodeResultSummaryBody(std::string_view body, ResultSummary* out) {
  WireReader r(body);
  GetResultSummary(&r, out);
  return r.Finish("ResultSummary");
}

std::string EncodeShedResponseBody(const ShedResponse& response) {
  WireWriter w;
  w.PutU64(response.job_id);
  w.PutU8(response.has_result ? 1 : 0);
  if (response.has_result) PutResultSummary(&w, response.result);
  return w.Take();
}

Status DecodeShedResponseBody(std::string_view body, ShedResponse* out) {
  WireReader r(body);
  out->job_id = r.GetU64();
  out->has_result = r.GetU8() != 0;
  if (out->has_result) GetResultSummary(&r, &out->result);
  return r.Finish("ShedResponse");
}

std::string EncodeGetStatusResponseBody(const GetStatusResponse& response) {
  WireWriter w;
  w.PutU8(response.state);
  w.PutU8(response.code);
  w.PutString(response.message);
  w.PutU8(response.deduplicated ? 1 : 0);
  w.PutDouble(response.queue_seconds);
  w.PutDouble(response.run_seconds);
  w.PutString(response.applied_method);
  w.PutDouble(response.applied_p);
  w.PutU8(response.degrade_kind);
  return w.Take();
}

Status DecodeGetStatusResponseBody(std::string_view body,
                                   GetStatusResponse* out) {
  WireReader r(body);
  out->state = r.GetU8();
  out->code = r.GetU8();
  out->message = r.GetString();
  out->deduplicated = r.GetU8() != 0;
  out->queue_seconds = r.GetDouble();
  out->run_seconds = r.GetDouble();
  out->applied_method = r.GetString();
  out->applied_p = r.GetDouble();
  out->degrade_kind = r.GetU8();
  return r.Finish("GetStatusResponse");
}

std::string EncodeListDatasetsResponseBody(
    const ListDatasetsResponse& response) {
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(response.names.size()));
  for (const std::string& name : response.names) w.PutString(name);
  return w.Take();
}

Status DecodeListDatasetsResponseBody(std::string_view body,
                                      ListDatasetsResponse* out) {
  WireReader r(body);
  const uint32_t count = r.GetU32();
  out->names.clear();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    out->names.push_back(r.GetString());
  }
  return r.Finish("ListDatasetsResponse");
}

// ---------------------------------------------------------------------------
// Response envelope

std::string EncodeResponsePayload(const Status& status,
                                  std::string_view body) {
  EDGESHED_CHECK(status.ok() || body.empty())
      << "error responses must not carry a body";
  WireWriter w;
  w.PutU8(WireCodeFromStatus(status.code()));
  // Truncate (rather than CHECK) pathological messages: the envelope must
  // always be encodable, whatever text a Status picked up along the way.
  std::string_view message = status.message();
  if (message.size() > kMaxStringBytes) {
    message = message.substr(0, kMaxStringBytes);
  }
  w.PutString(message);
  std::string out = w.Take();
  out.append(body);
  return out;
}

Status DecodeResponsePayload(std::string_view payload,
                             std::string_view* body) {
  WireReader r(payload);
  const uint8_t wire_code = r.GetU8();
  std::string message = r.GetString();
  if (!r.ok()) {
    *body = {};
    return Status::InvalidArgument("truncated response envelope");
  }
  auto code = StatusCodeFromWireCode(wire_code);
  if (!code.ok()) {
    *body = {};
    return code.status();
  }
  if (*code != StatusCode::kOk) {
    *body = {};
    return Status(*code, std::move(message));
  }
  *body = payload.substr(payload.size() - r.remaining());
  return Status::OK();
}

}  // namespace edgeshed::net
