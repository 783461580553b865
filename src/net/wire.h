#ifndef EDGESHED_NET_WIRE_H_
#define EDGESHED_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/statusor.h"

namespace edgeshed::net {

/// Binary wire protocol for remote shedding jobs (DESIGN.md §10).
///
/// Every message is one length-prefixed frame:
///
///   offset  size  field
///   0       4     magic "ESRP"
///   4       1     protocol version (kWireVersion)
///   5       1     message type (MessageType)
///   6       2     reserved, written as 0, ignored on read
///   8       4     payload length in bytes, little-endian
///   12      4     CRC-32 (IEEE) of the payload bytes, little-endian
///   16      ...   payload
///
/// All integers are little-endian fixed width; doubles travel as the
/// little-endian bytes of their IEEE-754 binary64 representation; strings are
/// a u32 byte length followed by raw bytes. Decoding is defensive end to end:
/// a malformed, truncated, or oversized frame produces a clean
/// InvalidArgument (or DataLoss for checksum mismatches), never a crash or an
/// allocation proportional to an attacker-chosen length.
///
/// Responses share their request's type value with the high bit set
/// (`ResponseTypeFor`). Every response payload begins with a status envelope
/// — wire error code + message, a lossless image of `edgeshed::Status` — and
/// carries its typed body only when the code is OK. `kErrorResponse` is the
/// reply to frames too broken to attribute to a request type.

inline constexpr char kWireMagic[4] = {'E', 'S', 'R', 'P'};
/// The one protocol version this build speaks; DecodeFrame rejects every
/// other. Every field of every message is required.
inline constexpr uint8_t kWireVersion = 3;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Hard cap on one frame's payload; DecodeFrame rejects larger declared
/// lengths before buffering anything.
inline constexpr uint32_t kMaxPayloadBytes = 4u << 20;  // 4 MiB
/// Cap on one encoded string field (dataset names, error messages).
inline constexpr uint32_t kMaxStringBytes = 1u << 20;  // 1 MiB

enum class MessageType : uint8_t {
  kShedRequest = 1,
  kGetStatusRequest = 2,
  kWaitRequest = 3,
  kCancelRequest = 4,
  kListDatasetsRequest = 5,
  kPingRequest = 6,
  kApplyMutationsRequest = 7,
  kShedResponse = 0x81,
  kGetStatusResponse = 0x82,
  kWaitResponse = 0x83,
  kCancelResponse = 0x84,
  kListDatasetsResponse = 0x85,
  kPingResponse = 0x86,
  kApplyMutationsResponse = 0x87,
  /// Reply to a frame whose request type could not be determined.
  kErrorResponse = 0xFF,
};

std::string_view MessageTypeToString(MessageType type);
bool IsRequestType(MessageType type);
bool IsKnownMessageType(uint8_t type);
/// The response type paired with `request` (request | 0x80).
MessageType ResponseTypeFor(MessageType request);

// ---------------------------------------------------------------------------
// Status <-> wire error code

/// Wire error codes are the numeric values of `StatusCode` — the mapping is
/// the identity today, but callers go through these helpers so the enums can
/// diverge without a protocol break. Round-tripping any StatusCode through
/// WireCodeFromStatus/StatusCodeFromWireCode is lossless (tested).
uint8_t WireCodeFromStatus(StatusCode code);
StatusOr<StatusCode> StatusCodeFromWireCode(uint8_t wire_code);

// ---------------------------------------------------------------------------
// Frames

struct Frame {
  MessageType type = MessageType::kPingRequest;
  std::string payload;
};

/// Serializes one frame (header + payload). Payloads larger than
/// kMaxPayloadBytes are a programming error upstream; encode clamps nothing
/// and CHECKs instead of emitting an undecodable frame.
std::string EncodeFrame(MessageType type, std::string_view payload);

enum class DecodeEvent {
  /// `buffer` holds a valid prefix of a frame; read more bytes.
  kNeedMoreData,
  /// One complete frame decoded; `consumed` bytes were used.
  kFrame,
  /// The stream is unrecoverably malformed; close the connection.
  kError,
};

struct DecodeResult {
  DecodeEvent event = DecodeEvent::kNeedMoreData;
  /// Bytes of `buffer` consumed (only meaningful for kFrame).
  size_t consumed = 0;
  Frame frame;          // valid for kFrame
  Status error;         // valid for kError
};

/// Incremental frame decoder: give it the unconsumed front of a connection's
/// read buffer. Magic and version are checked as soon as enough bytes exist,
/// so garbage streams fail fast instead of waiting for a bogus length;
/// declared payload lengths above kMaxPayloadBytes fail before buffering;
/// CRC mismatches return DataLoss.
DecodeResult DecodeFrame(std::string_view buffer);

// ---------------------------------------------------------------------------
// Payload primitives (exposed for tests and the message codecs)

/// Append-only payload builder over a std::string.
class WireWriter {
 public:
  void PutU8(uint8_t value);
  void PutU16(uint16_t value);
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutDouble(double value);
  /// CHECKs size <= kMaxStringBytes.
  void PutString(std::string_view value);

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked payload reader. Any over-read trips a sticky failure bit;
/// callers check `ok()` (or use Finish(), which also rejects trailing
/// bytes) once at the end instead of after every field.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t GetU8();
  uint16_t GetU16();
  uint32_t GetU32();
  uint64_t GetU64();
  double GetDouble();
  /// Fails (and returns empty) on lengths beyond the remaining bytes or
  /// kMaxStringBytes.
  std::string GetString();

  bool ok() const { return ok_; }
  size_t remaining() const { return bytes_.size() - pos_; }

  /// OK iff every read succeeded and the payload is fully consumed.
  Status Finish(std::string_view what) const;

 private:
  const unsigned char* Take(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Messages

/// Submit a shedding job; with `wait` set the response carries the finished
/// result (one round trip), otherwise just the job id for later Wait/Status.
struct ShedRequest {
  std::string dataset;
  std::string method = "crr";
  double p = 0.5;
  uint64_t seed = 42;
  uint64_t deadline_ms = 0;
  bool wait = true;
  /// Optional output name: when non-empty, the worker writes the kept
  /// subgraph as a v3 binary snapshot named `<output>.esg` in its configured
  /// output directory (RpcServerOptions::output_dir) once the job finishes.
  /// A bare name, not a path — servers reject separators and dot-prefixes,
  /// and servers without an output directory reject the request outright.
  std::string output;
  /// Tenant name for fair-share scheduling ("" = the default tenant, which
  /// preserves the single-FIFO semantics) and the priority lane flag
  /// (nonzero = dispatch ahead of normal-lane work).
  std::string tenant;
  uint8_t priority = 0;
};

/// How (if at all) the serving layer degraded a request under load. The
/// applied tier always travels back to the caller — degradation is recorded,
/// never silent (DESIGN.md §13).
enum class DegradeKind : uint8_t {
  kNone = 0,
  /// Method stepped down the core::ShedderCostLadder (e.g. crr -> bm2).
  kCheaperTier = 1,
  /// Served an already-cached result for the same dataset/method/seed at a
  /// coarser preservation ratio p' <= requested p.
  kCachedCoarserP = 2,
};

/// Result of a finished job, mirroring core::SheddingResult minus the kept
/// edge list itself (which is graph-sized; remote callers get the counts and
/// stats, and fetch reduced graphs out of band if they need the edges).
struct ResultSummary {
  uint64_t job_id = 0;
  uint64_t kept_edges = 0;
  double total_delta = 0.0;
  double average_delta = 0.0;
  double reduction_seconds = 0.0;
  bool deduplicated = false;
  std::vector<std::pair<std::string, double>> stats;
  /// The method/p actually answered with and why they differ from the
  /// request (kNone when served exactly as asked).
  std::string applied_method;
  double applied_p = 0.0;
  uint8_t degrade_kind = 0;  // DegradeKind numeric value
};

struct ShedResponse {
  uint64_t job_id = 0;
  bool has_result = false;
  ResultSummary result;  // valid iff has_result
};

struct JobIdRequest {  // GetStatus / Wait / Cancel
  uint64_t job_id = 0;
};

struct GetStatusResponse {
  uint8_t state = 0;  // service::JobState numeric value
  uint8_t code = 0;   // wire error code of the job's status
  std::string message;
  bool deduplicated = false;
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  /// Mirrors ResultSummary's degradation record so wait=false submitters
  /// still learn the applied tier.
  std::string applied_method;
  double applied_p = 0.0;
  uint8_t degrade_kind = 0;  // DegradeKind numeric value
};

struct ListDatasetsResponse {
  std::vector<std::string> names;
};

struct PingMessage {
  uint64_t token = 0;
};

/// Apply one mutation batch to a dataset's dynamic graph (DESIGN.md
/// §15). Edges travel as (u, v) node-id pairs; the server canonicalizes and
/// validates (self-loops, duplicates, non-live deletes, already-live
/// inserts all reject the whole batch, naming the offending pair).
struct ApplyMutationsRequest {
  std::string dataset;
  std::vector<std::pair<uint32_t, uint32_t>> inserts;
  std::vector<std::pair<uint32_t, uint32_t>> deletes;
};

/// Success body of kApplyMutationsResponse: the installed version plus a
/// snapshot of the overlay so callers can watch compaction behave.
struct ApplyMutationsResponse {
  uint64_t version = 0;
  uint64_t live_edges = 0;
  uint64_t overlay_inserted = 0;
  uint64_t overlay_deleted = 0;
  uint8_t compacting = 0;  // background compaction in flight right now
};

std::string EncodeShedRequest(const ShedRequest& request);
Status DecodeShedRequest(std::string_view payload, ShedRequest* out);

std::string EncodeJobIdRequest(const JobIdRequest& request);
Status DecodeJobIdRequest(std::string_view payload, JobIdRequest* out);

std::string EncodePing(const PingMessage& message);
Status DecodePing(std::string_view payload, PingMessage* out);

std::string EncodeApplyMutationsRequest(const ApplyMutationsRequest& request);
Status DecodeApplyMutationsRequest(std::string_view payload,
                                   ApplyMutationsRequest* out);

std::string EncodeApplyMutationsResponseBody(
    const ApplyMutationsResponse& response);
Status DecodeApplyMutationsResponseBody(std::string_view body,
                                        ApplyMutationsResponse* out);

// Response bodies (no envelope; see EncodeResponsePayload).
std::string EncodeShedResponseBody(const ShedResponse& response);
Status DecodeShedResponseBody(std::string_view body, ShedResponse* out);

std::string EncodeResultSummaryBody(const ResultSummary& summary);
Status DecodeResultSummaryBody(std::string_view body, ResultSummary* out);

std::string EncodeGetStatusResponseBody(const GetStatusResponse& response);
Status DecodeGetStatusResponseBody(std::string_view body,
                                   GetStatusResponse* out);

std::string EncodeListDatasetsResponseBody(
    const ListDatasetsResponse& response);
Status DecodeListDatasetsResponseBody(std::string_view body,
                                      ListDatasetsResponse* out);

// ---------------------------------------------------------------------------
// Response envelope

/// Builds a response payload: status envelope + body. `body` must be empty
/// unless `status` is OK (error responses carry no body).
std::string EncodeResponsePayload(const Status& status,
                                  std::string_view body = {});

/// Splits a response payload into its envelope Status and body view (into
/// `payload`; valid while `payload` lives). A non-OK envelope yields that
/// Status reconstructed losslessly and an empty body.
Status DecodeResponsePayload(std::string_view payload,
                             std::string_view* body);

}  // namespace edgeshed::net

#endif  // EDGESHED_NET_WIRE_H_
