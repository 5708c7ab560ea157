#ifndef MSQL_NET_WIRE_H_
#define MSQL_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/value.h"

// The msqld wire protocol (docs/NETWORKING.md): a stream of length-prefixed
// binary frames in each direction. Frame layout:
//
//   u32  payload length (little-endian; excludes this header)
//   u8   frame type (FrameType)
//   ...  payload (type-specific, see the *Msg structs below)
//
// Integers are little-endian. Strings are u32 length + raw bytes. Values
// are a u8 TypeKind tag followed by the kind's payload (nothing for NULL,
// u8 for BOOL, i64 for INT64/DATE, 8 raw bytes for DOUBLE, string for
// STRING). The protocol is strictly request/response per connection: the
// client sends Hello/Query/Prepare/Bind/Execute/Close frames, the server
// answers each with one Error frame or one or more ResultBatch frames (the
// last carrying the trailer). Cancel is the one fire-and-forget frame: it
// has no response of its own — the statement it reaches unwinds with a
// kCancelled Error response.
namespace msql::net {

inline constexpr uint16_t kProtocolVersion = 1;

// Hard cap on a single frame's payload; a peer declaring more is treated
// as a protocol error (it would otherwise dictate our allocation).
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

// Frame header: u32 length + u8 type.
inline constexpr size_t kFrameHeaderBytes = 5;

enum class FrameType : uint8_t {
  kHello = 1,
  kQuery = 2,
  kPrepare = 3,
  kBind = 4,
  kExecute = 5,
  kClose = 6,
  kCancel = 7,
  kResultBatch = 8,
  kError = 9,
};

const char* FrameTypeName(FrameType type);

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

// --- primitive append helpers (little-endian) ---

void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutDouble(std::string* out, double v);
void PutString(std::string* out, const std::string& s);
void PutValue(std::string* out, const Value& v);

// Cursor-based payload reader; every getter fails with kIo on underflow
// instead of reading past the end, so a truncated or malicious payload
// surfaces as a clean error.
class WireReader {
 public:
  explicit WireReader(const std::string& buf) : buf_(buf) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<Value> GetValue();

  bool AtEnd() const { return off_ >= buf_.size(); }
  size_t remaining() const { return buf_.size() - off_; }

 private:
  Status Need(size_t n);

  const std::string& buf_;
  size_t off_ = 0;
};

// Appends one complete frame (header + payload) to `out`.
void AppendFrame(std::string* out, FrameType type, const std::string& payload);

// Decodes the frame header at `header` (kFrameHeaderBytes bytes): sets
// *type and returns the payload length, or kIo for a payload over
// kMaxFramePayload or an unknown frame type. TryParseFrame and the
// client's blocking reader both check headers here.
Result<uint32_t> DecodeFrameHeader(const char* header, FrameType* type);

// Attempts to parse one complete frame starting at buf[*off]. Returns true
// and advances *off past the frame when one is fully buffered; false when
// more bytes are needed; an error Status for malformed input (oversized
// payload, unknown frame type).
Result<bool> TryParseFrame(const std::string& buf, size_t* off, Frame* out);

// --- typed payloads ---

// Hello is symmetric: the client introduces itself (version + user), the
// server confirms (version + banner in `user`).
struct HelloMsg {
  uint16_t version = kProtocolVersion;
  std::string user;
};

// Wire trace context (Query / Execute): bit 0 of `trace_flags` asks the
// server to trace the statement and return the per-phase footer on the
// final ResultBatch. `trace_id` is an optional client-chosen correlation
// id that lands in the server's QueryTrace (slow-query log, /tracez,
// msql_system.queries); it is capped at kMaxTraceIdBytes printable ASCII
// characters — anything else is a protocol error.
inline constexpr uint8_t kTraceFlagEnabled = 0x1;
inline constexpr size_t kMaxTraceIdBytes = 64;

// Validates a decoded trace id (length + printable ASCII, no spaces).
Status ValidateTraceId(const std::string& trace_id);

struct QueryMsg {
  std::string sql;
  uint32_t timeout_ms = 0;  // 0 = server default
  uint8_t trace_flags = 0;  // kTraceFlag*
  std::string trace_id;     // optional; only sent when trace_flags != 0
};

struct PrepareMsg {
  std::string sql;
  std::vector<TypeKind> param_types;
};

struct BindMsg {
  uint32_t stmt_id = 0;
  Row params;
};

struct ExecuteMsg {
  uint32_t stmt_id = 0;
  uint32_t timeout_ms = 0;
  uint8_t trace_flags = 0;  // kTraceFlag*
  std::string trace_id;
};

// stmt_id 0 requests a graceful connection close (the server acks, flushes
// and closes); nonzero closes one prepared statement.
struct CloseMsg {
  uint32_t stmt_id = 0;
};

struct ErrorMsg {
  uint8_t code = 0;  // ErrorCode, truncated to u8
  std::string message;
};

// One server response frame. `kind` 0 is a row-less ack (Prepare / Bind /
// Close); kind 1 carries rows. Schema travels in every batch so decoding
// is stateless; `last` marks the final batch of a response and validates
// the trailer fields.
struct ResultBatchMsg {
  uint32_t stmt_id = 0;      // echoes the statement; 0 for text queries
  uint8_t kind = 0;          // 0 = ack, 1 = rows
  bool last = true;
  uint16_t param_count = 0;  // Prepare ack: '?' ordinals in the statement
  std::vector<std::string> columns;
  std::vector<TypeKind> types;
  std::vector<Row> rows;
  // Trailer (meaningful when last): execution stats for the client.
  uint64_t total_rows = 0;
  uint64_t total_us = 0;
  uint8_t plan_cache = 0;  // QueryStats::PlanCacheOutcome

  // Optional trace footer, present when the statement was sent with
  // kTraceFlagEnabled: the server-side span summary (per-phase µs and
  // guard-charged bytes). Decoders treat an absent footer (older peers)
  // as has_footer = 0.
  uint8_t has_footer = 0;
  uint32_t admission_wait_us = 0;
  uint32_t queue_wait_us = 0;
  uint32_t parse_us = 0;
  uint32_t bind_us = 0;
  uint32_t measure_expand_us = 0;
  uint32_t plan_us = 0;
  uint32_t execute_us = 0;
  uint32_t render_us = 0;
  uint64_t guard_bytes = 0;
};

std::string EncodeHello(const HelloMsg& msg);
std::string EncodeQuery(const QueryMsg& msg);
std::string EncodePrepare(const PrepareMsg& msg);
std::string EncodeBind(const BindMsg& msg);
std::string EncodeExecute(const ExecuteMsg& msg);
std::string EncodeClose(const CloseMsg& msg);
std::string EncodeError(const ErrorMsg& msg);
std::string EncodeResultBatch(const ResultBatchMsg& msg);

Result<HelloMsg> DecodeHello(const std::string& payload);
Result<QueryMsg> DecodeQuery(const std::string& payload);
Result<PrepareMsg> DecodePrepare(const std::string& payload);
Result<BindMsg> DecodeBind(const std::string& payload);
Result<ExecuteMsg> DecodeExecute(const std::string& payload);
Result<CloseMsg> DecodeClose(const std::string& payload);
Result<ErrorMsg> DecodeError(const std::string& payload);
Result<ResultBatchMsg> DecodeResultBatch(const std::string& payload);

// Status <-> Error frame. Unknown u8 codes decode as kIo.
ErrorMsg ErrorFromStatus(const Status& status);
Status StatusFromError(const ErrorMsg& msg);

}  // namespace msql::net

#endif  // MSQL_NET_WIRE_H_
