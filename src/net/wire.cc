#include "net/wire.h"

#include <cstring>

#include "common/string_util.h"

namespace msql::net {

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "Hello";
    case FrameType::kQuery:
      return "Query";
    case FrameType::kPrepare:
      return "Prepare";
    case FrameType::kBind:
      return "Bind";
    case FrameType::kExecute:
      return "Execute";
    case FrameType::kClose:
      return "Close";
    case FrameType::kCancel:
      return "Cancel";
    case FrameType::kResultBatch:
      return "ResultBatch";
    case FrameType::kError:
      return "Error";
  }
  return "Unknown";
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v & 0xff));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    PutU8(out, static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    PutU8(out, static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case TypeKind::kNull:
      break;
    case TypeKind::kBool:
      PutU8(out, v.bool_val() ? 1 : 0);
      break;
    case TypeKind::kInt64:
      PutI64(out, v.int_val());
      break;
    case TypeKind::kDouble:
      PutDouble(out, v.double_val());
      break;
    case TypeKind::kString:
      PutString(out, v.str());
      break;
    case TypeKind::kDate:
      PutI64(out, v.date_days());
      break;
  }
}

Status WireReader::Need(size_t n) {
  if (buf_.size() - off_ < n) {
    return Status(ErrorCode::kIo,
                  StrCat("truncated frame payload: need ", n, " byte(s), ",
                         buf_.size() - off_, " available"));
  }
  return Status::Ok();
}

Result<uint8_t> WireReader::GetU8() {
  MSQL_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(buf_[off_++]);
}

Result<uint16_t> WireReader::GetU16() {
  MSQL_RETURN_IF_ERROR(Need(2));
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<uint16_t>(static_cast<uint8_t>(buf_[off_ + i])) << (8 * i);
  }
  off_ += 2;
  return v;
}

Result<uint32_t> WireReader::GetU32() {
  MSQL_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[off_ + i])) << (8 * i);
  }
  off_ += 4;
  return v;
}

Result<uint64_t> WireReader::GetU64() {
  MSQL_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(buf_[off_ + i])) << (8 * i);
  }
  off_ += 8;
  return v;
}

Result<int64_t> WireReader::GetI64() {
  MSQL_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> WireReader::GetDouble() {
  MSQL_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<std::string> WireReader::GetString() {
  MSQL_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (len > kMaxFramePayload) {
    return Status(ErrorCode::kIo,
                  StrCat("string length ", len, " exceeds frame cap"));
  }
  MSQL_RETURN_IF_ERROR(Need(len));
  std::string s = buf_.substr(off_, len);
  off_ += len;
  return s;
}

Result<Value> WireReader::GetValue() {
  MSQL_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  switch (static_cast<TypeKind>(tag)) {
    case TypeKind::kNull:
      return Value::Null();
    case TypeKind::kBool: {
      MSQL_ASSIGN_OR_RETURN(uint8_t b, GetU8());
      return Value::Bool(b != 0);
    }
    case TypeKind::kInt64: {
      MSQL_ASSIGN_OR_RETURN(int64_t i, GetI64());
      return Value::Int(i);
    }
    case TypeKind::kDouble: {
      MSQL_ASSIGN_OR_RETURN(double d, GetDouble());
      return Value::Double(d);
    }
    case TypeKind::kString: {
      MSQL_ASSIGN_OR_RETURN(std::string s, GetString());
      return Value::String(std::move(s));
    }
    case TypeKind::kDate: {
      MSQL_ASSIGN_OR_RETURN(int64_t days, GetI64());
      return Value::Date(days);
    }
  }
  return Status(ErrorCode::kIo,
                StrCat("unknown value type tag ", static_cast<int>(tag)));
}

void AppendFrame(std::string* out, FrameType type,
                 const std::string& payload) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU8(out, static_cast<uint8_t>(type));
  out->append(payload);
}

Result<uint32_t> DecodeFrameHeader(const char* header, FrameType* type) {
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(header[i])) << (8 * i);
  }
  if (len > kMaxFramePayload) {
    return Status(ErrorCode::kIo,
                  StrCat("frame payload of ", len, " bytes exceeds the ",
                         kMaxFramePayload, "-byte cap"));
  }
  const uint8_t tag = static_cast<uint8_t>(header[4]);
  if (tag < static_cast<uint8_t>(FrameType::kHello) ||
      tag > static_cast<uint8_t>(FrameType::kError)) {
    return Status(ErrorCode::kIo,
                  StrCat("unknown frame type ", static_cast<int>(tag)));
  }
  *type = static_cast<FrameType>(tag);
  return len;
}

Result<bool> TryParseFrame(const std::string& buf, size_t* off, Frame* out) {
  if (buf.size() - *off < kFrameHeaderBytes) return false;
  MSQL_ASSIGN_OR_RETURN(const uint32_t len,
                        DecodeFrameHeader(buf.data() + *off, &out->type));
  if (buf.size() - *off < kFrameHeaderBytes + len) return false;
  out->payload = buf.substr(*off + kFrameHeaderBytes, len);
  *off += kFrameHeaderBytes + len;
  return true;
}

std::string EncodeHello(const HelloMsg& msg) {
  std::string p;
  PutU16(&p, msg.version);
  PutString(&p, msg.user);
  return p;
}

Result<HelloMsg> DecodeHello(const std::string& payload) {
  WireReader r(payload);
  HelloMsg msg;
  MSQL_ASSIGN_OR_RETURN(msg.version, r.GetU16());
  MSQL_ASSIGN_OR_RETURN(msg.user, r.GetString());
  return msg;
}

Status ValidateTraceId(const std::string& trace_id) {
  if (trace_id.size() > kMaxTraceIdBytes) {
    return Status(ErrorCode::kInvalidArgument,
                  StrCat("trace id of ", trace_id.size(),
                         " bytes exceeds the ", kMaxTraceIdBytes,
                         "-byte cap"));
  }
  for (char c : trace_id) {
    if (c < 0x21 || c > 0x7e) {
      return Status(ErrorCode::kInvalidArgument,
                    "trace id must be printable ASCII without spaces");
    }
  }
  return Status::Ok();
}

namespace {

// Trace context is appended only when set, so untraced statements stay
// byte-identical to protocol peers that predate the fields; decoders treat
// the absence as flags 0.
void PutTraceContext(std::string* p, uint8_t trace_flags,
                     const std::string& trace_id) {
  if (trace_flags == 0 && trace_id.empty()) return;
  PutU8(p, trace_flags);
  PutString(p, trace_id);
}

Status GetTraceContext(WireReader* r, uint8_t* trace_flags,
                       std::string* trace_id) {
  if (r->AtEnd()) return Status::Ok();
  MSQL_ASSIGN_OR_RETURN(*trace_flags, r->GetU8());
  MSQL_ASSIGN_OR_RETURN(*trace_id, r->GetString());
  return ValidateTraceId(*trace_id);
}

}  // namespace

std::string EncodeQuery(const QueryMsg& msg) {
  std::string p;
  PutString(&p, msg.sql);
  PutU32(&p, msg.timeout_ms);
  PutTraceContext(&p, msg.trace_flags, msg.trace_id);
  return p;
}

Result<QueryMsg> DecodeQuery(const std::string& payload) {
  WireReader r(payload);
  QueryMsg msg;
  MSQL_ASSIGN_OR_RETURN(msg.sql, r.GetString());
  MSQL_ASSIGN_OR_RETURN(msg.timeout_ms, r.GetU32());
  MSQL_RETURN_IF_ERROR(GetTraceContext(&r, &msg.trace_flags, &msg.trace_id));
  return msg;
}

std::string EncodePrepare(const PrepareMsg& msg) {
  std::string p;
  PutString(&p, msg.sql);
  PutU16(&p, static_cast<uint16_t>(msg.param_types.size()));
  for (TypeKind t : msg.param_types) PutU8(&p, static_cast<uint8_t>(t));
  return p;
}

Result<PrepareMsg> DecodePrepare(const std::string& payload) {
  WireReader r(payload);
  PrepareMsg msg;
  MSQL_ASSIGN_OR_RETURN(msg.sql, r.GetString());
  MSQL_ASSIGN_OR_RETURN(uint16_t n, r.GetU16());
  msg.param_types.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    MSQL_ASSIGN_OR_RETURN(uint8_t t, r.GetU8());
    if (t > static_cast<uint8_t>(TypeKind::kDate)) {
      return Status(ErrorCode::kIo,
                    StrCat("unknown parameter type tag ",
                           static_cast<int>(t)));
    }
    msg.param_types.push_back(static_cast<TypeKind>(t));
  }
  return msg;
}

std::string EncodeBind(const BindMsg& msg) {
  std::string p;
  PutU32(&p, msg.stmt_id);
  PutU16(&p, static_cast<uint16_t>(msg.params.size()));
  for (const Value& v : msg.params) PutValue(&p, v);
  return p;
}

Result<BindMsg> DecodeBind(const std::string& payload) {
  WireReader r(payload);
  BindMsg msg;
  MSQL_ASSIGN_OR_RETURN(msg.stmt_id, r.GetU32());
  MSQL_ASSIGN_OR_RETURN(uint16_t n, r.GetU16());
  msg.params.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    MSQL_ASSIGN_OR_RETURN(Value v, r.GetValue());
    msg.params.push_back(std::move(v));
  }
  return msg;
}

std::string EncodeExecute(const ExecuteMsg& msg) {
  std::string p;
  PutU32(&p, msg.stmt_id);
  PutU32(&p, msg.timeout_ms);
  PutTraceContext(&p, msg.trace_flags, msg.trace_id);
  return p;
}

Result<ExecuteMsg> DecodeExecute(const std::string& payload) {
  WireReader r(payload);
  ExecuteMsg msg;
  MSQL_ASSIGN_OR_RETURN(msg.stmt_id, r.GetU32());
  MSQL_ASSIGN_OR_RETURN(msg.timeout_ms, r.GetU32());
  MSQL_RETURN_IF_ERROR(GetTraceContext(&r, &msg.trace_flags, &msg.trace_id));
  return msg;
}

std::string EncodeClose(const CloseMsg& msg) {
  std::string p;
  PutU32(&p, msg.stmt_id);
  return p;
}

Result<CloseMsg> DecodeClose(const std::string& payload) {
  WireReader r(payload);
  CloseMsg msg;
  MSQL_ASSIGN_OR_RETURN(msg.stmt_id, r.GetU32());
  return msg;
}

std::string EncodeError(const ErrorMsg& msg) {
  std::string p;
  PutU8(&p, msg.code);
  PutString(&p, msg.message);
  return p;
}

Result<ErrorMsg> DecodeError(const std::string& payload) {
  WireReader r(payload);
  ErrorMsg msg;
  MSQL_ASSIGN_OR_RETURN(msg.code, r.GetU8());
  MSQL_ASSIGN_OR_RETURN(msg.message, r.GetString());
  return msg;
}

std::string EncodeResultBatch(const ResultBatchMsg& msg) {
  std::string p;
  PutU32(&p, msg.stmt_id);
  PutU8(&p, msg.kind);
  PutU8(&p, msg.last ? 1 : 0);
  PutU16(&p, msg.param_count);
  PutU16(&p, static_cast<uint16_t>(msg.columns.size()));
  for (size_t i = 0; i < msg.columns.size(); ++i) {
    PutString(&p, msg.columns[i]);
    PutU8(&p, static_cast<uint8_t>(msg.types[i]));
  }
  PutU32(&p, static_cast<uint32_t>(msg.rows.size()));
  for (const Row& row : msg.rows) {
    for (const Value& v : row) PutValue(&p, v);
  }
  PutU64(&p, msg.total_rows);
  PutU64(&p, msg.total_us);
  PutU8(&p, msg.plan_cache);
  // The trace footer is appended only when present, keeping untraced
  // responses byte-identical to the pre-footer protocol.
  if (msg.has_footer != 0) {
    PutU8(&p, 1);
    PutU32(&p, msg.admission_wait_us);
    PutU32(&p, msg.queue_wait_us);
    PutU32(&p, msg.parse_us);
    PutU32(&p, msg.bind_us);
    PutU32(&p, msg.measure_expand_us);
    PutU32(&p, msg.plan_us);
    PutU32(&p, msg.execute_us);
    PutU32(&p, msg.render_us);
    PutU64(&p, msg.guard_bytes);
  }
  return p;
}

Result<ResultBatchMsg> DecodeResultBatch(const std::string& payload) {
  WireReader r(payload);
  ResultBatchMsg msg;
  MSQL_ASSIGN_OR_RETURN(msg.stmt_id, r.GetU32());
  MSQL_ASSIGN_OR_RETURN(msg.kind, r.GetU8());
  MSQL_ASSIGN_OR_RETURN(uint8_t last, r.GetU8());
  msg.last = last != 0;
  MSQL_ASSIGN_OR_RETURN(msg.param_count, r.GetU16());
  MSQL_ASSIGN_OR_RETURN(uint16_t ncols, r.GetU16());
  msg.columns.reserve(ncols);
  msg.types.reserve(ncols);
  for (uint16_t i = 0; i < ncols; ++i) {
    MSQL_ASSIGN_OR_RETURN(std::string name, r.GetString());
    MSQL_ASSIGN_OR_RETURN(uint8_t t, r.GetU8());
    msg.columns.push_back(std::move(name));
    msg.types.push_back(static_cast<TypeKind>(t));
  }
  MSQL_ASSIGN_OR_RETURN(uint32_t nrows, r.GetU32());
  msg.rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    Row row;
    row.reserve(ncols);
    for (uint16_t c = 0; c < ncols; ++c) {
      MSQL_ASSIGN_OR_RETURN(Value v, r.GetValue());
      row.push_back(std::move(v));
    }
    msg.rows.push_back(std::move(row));
  }
  MSQL_ASSIGN_OR_RETURN(msg.total_rows, r.GetU64());
  MSQL_ASSIGN_OR_RETURN(msg.total_us, r.GetU64());
  MSQL_ASSIGN_OR_RETURN(msg.plan_cache, r.GetU8());
  if (!r.AtEnd()) {
    MSQL_ASSIGN_OR_RETURN(msg.has_footer, r.GetU8());
    if (msg.has_footer != 0) {
      MSQL_ASSIGN_OR_RETURN(msg.admission_wait_us, r.GetU32());
      MSQL_ASSIGN_OR_RETURN(msg.queue_wait_us, r.GetU32());
      MSQL_ASSIGN_OR_RETURN(msg.parse_us, r.GetU32());
      MSQL_ASSIGN_OR_RETURN(msg.bind_us, r.GetU32());
      MSQL_ASSIGN_OR_RETURN(msg.measure_expand_us, r.GetU32());
      MSQL_ASSIGN_OR_RETURN(msg.plan_us, r.GetU32());
      MSQL_ASSIGN_OR_RETURN(msg.execute_us, r.GetU32());
      MSQL_ASSIGN_OR_RETURN(msg.render_us, r.GetU32());
      MSQL_ASSIGN_OR_RETURN(msg.guard_bytes, r.GetU64());
    }
  }
  return msg;
}

ErrorMsg ErrorFromStatus(const Status& status) {
  ErrorMsg msg;
  msg.code = static_cast<uint8_t>(status.code());
  msg.message = status.message();
  return msg;
}

Status StatusFromError(const ErrorMsg& msg) {
  ErrorCode code = ErrorCode::kIo;
  if (msg.code >= static_cast<uint8_t>(ErrorCode::kOk) &&
      msg.code <= static_cast<uint8_t>(ErrorCode::kDeadlineExceeded)) {
    code = static_cast<ErrorCode>(msg.code);
  }
  if (code == ErrorCode::kOk) code = ErrorCode::kIo;
  return Status(code, msg.message);
}

}  // namespace msql::net
