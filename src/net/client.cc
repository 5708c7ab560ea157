#include "net/client.h"

#include <utility>

#include "common/query_stats.h"
#include "common/string_util.h"

namespace msql::net {

Status Client::Connect(const std::string& host, uint16_t port,
                       ClientOptions options) {
  if (sock_.valid()) {
    return Status(ErrorCode::kInvalidArgument, "client already connected");
  }
  options_ = std::move(options);
  MSQL_ASSIGN_OR_RETURN(sock_,
                        ConnectTo(host, port, options_.connect_timeout_ms));
  HelloMsg hello;
  hello.version = kProtocolVersion;
  hello.user = options_.user;
  Status sent = SendFrame(FrameType::kHello, EncodeHello(hello));
  if (!sent.ok()) {
    sock_.Close();
    return sent;
  }
  Result<Frame> reply = ReadFrame();
  if (!reply.ok()) {
    sock_.Close();
    return reply.status();
  }
  if (reply.value().type == FrameType::kError) {
    sock_.Close();
    MSQL_ASSIGN_OR_RETURN(ErrorMsg err, DecodeError(reply.value().payload));
    return StatusFromError(err);
  }
  if (reply.value().type != FrameType::kHello) {
    sock_.Close();
    return Status(ErrorCode::kIo,
                  StrCat("handshake expected Hello, got ",
                         FrameTypeName(reply.value().type)));
  }
  Result<HelloMsg> ack = DecodeHello(reply.value().payload);
  if (!ack.ok()) {
    sock_.Close();
    return ack.status();
  }
  server_banner_ = ack.value().user;
  return Status::Ok();
}

void Client::Disconnect() {
  if (!sock_.valid()) return;
  CloseMsg close;
  close.stmt_id = 0;
  if (SendFrame(FrameType::kClose, EncodeClose(close)).ok()) {
    ReadAck().status();  // best effort: wait for the server's ack
  }
  sock_.Close();
}

Result<ResultSet> Client::Query(const std::string& sql, uint32_t timeout_ms) {
  if (!sock_.valid()) {
    return Status(ErrorCode::kInvalidArgument, "client is not connected");
  }
  QueryMsg msg;
  msg.sql = sql;
  msg.timeout_ms = timeout_ms;
  if (trace_enabled_) {
    msg.trace_flags = kTraceFlagEnabled;
    msg.trace_id = trace_id_;
  }
  MSQL_RETURN_IF_ERROR(SendFrame(FrameType::kQuery, EncodeQuery(msg)));
  return ReadResponse();
}

Result<ClientStatement> Client::Prepare(
    const std::string& sql, const std::vector<TypeKind>& param_types) {
  if (!sock_.valid()) {
    return Status(ErrorCode::kInvalidArgument, "client is not connected");
  }
  PrepareMsg msg;
  msg.sql = sql;
  msg.param_types = param_types;
  MSQL_RETURN_IF_ERROR(SendFrame(FrameType::kPrepare, EncodePrepare(msg)));
  MSQL_ASSIGN_OR_RETURN(ResultBatchMsg ack, ReadAck());
  ClientStatement stmt;
  stmt.stmt_id = ack.stmt_id;
  stmt.param_count = ack.param_count;
  return stmt;
}

Status Client::Bind(const ClientStatement& stmt, const Row& params) {
  if (!sock_.valid()) {
    return Status(ErrorCode::kInvalidArgument, "client is not connected");
  }
  BindMsg msg;
  msg.stmt_id = stmt.stmt_id;
  msg.params = params;
  MSQL_RETURN_IF_ERROR(SendFrame(FrameType::kBind, EncodeBind(msg)));
  return ReadAck().status();
}

Result<ResultSet> Client::Execute(const ClientStatement& stmt,
                                  uint32_t timeout_ms) {
  if (!sock_.valid()) {
    return Status(ErrorCode::kInvalidArgument, "client is not connected");
  }
  ExecuteMsg msg;
  msg.stmt_id = stmt.stmt_id;
  msg.timeout_ms = timeout_ms;
  if (trace_enabled_) {
    msg.trace_flags = kTraceFlagEnabled;
    msg.trace_id = trace_id_;
  }
  MSQL_RETURN_IF_ERROR(SendFrame(FrameType::kExecute, EncodeExecute(msg)));
  return ReadResponse();
}

Status Client::CloseStatement(const ClientStatement& stmt) {
  if (!sock_.valid()) {
    return Status(ErrorCode::kInvalidArgument, "client is not connected");
  }
  CloseMsg msg;
  msg.stmt_id = stmt.stmt_id;
  MSQL_RETURN_IF_ERROR(SendFrame(FrameType::kClose, EncodeClose(msg)));
  return ReadAck().status();
}

Status Client::Cancel() {
  if (!sock_.valid()) {
    return Status(ErrorCode::kInvalidArgument, "client is not connected");
  }
  return SendFrame(FrameType::kCancel, std::string());
}

Status Client::SendFrame(FrameType type, const std::string& payload) {
  std::string frame;
  AppendFrame(&frame, type, payload);
  return WriteAll(sock_.fd(), frame.data(), frame.size(),
                  options_.io_timeout_ms);
}

Result<Frame> Client::ReadFrame() {
  char header[kFrameHeaderBytes];
  MSQL_RETURN_IF_ERROR(
      ReadExact(sock_.fd(), header, sizeof(header), options_.io_timeout_ms));
  Frame frame;
  MSQL_ASSIGN_OR_RETURN(const uint32_t len,
                        DecodeFrameHeader(header, &frame.type));
  frame.payload.resize(len);
  if (len > 0) {
    MSQL_RETURN_IF_ERROR(ReadExact(sock_.fd(), frame.payload.data(), len,
                                   options_.io_timeout_ms));
  }
  return frame;
}

Result<ResultBatchMsg> Client::ReadAck() {
  MSQL_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
  if (frame.type == FrameType::kError) {
    MSQL_ASSIGN_OR_RETURN(ErrorMsg err, DecodeError(frame.payload));
    return StatusFromError(err);
  }
  if (frame.type != FrameType::kResultBatch) {
    return Status(ErrorCode::kIo, StrCat("expected ResultBatch ack, got ",
                                         FrameTypeName(frame.type)));
  }
  return DecodeResultBatch(frame.payload);
}

Result<ResultSet> Client::ReadResponse() {
  std::vector<std::string> columns;
  std::vector<DataType> types;
  std::vector<Row> rows;
  bool have_schema = false;
  while (true) {
    MSQL_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
    if (frame.type == FrameType::kError) {
      MSQL_ASSIGN_OR_RETURN(ErrorMsg err, DecodeError(frame.payload));
      return StatusFromError(err);
    }
    if (frame.type != FrameType::kResultBatch) {
      return Status(ErrorCode::kIo, StrCat("expected ResultBatch, got ",
                                           FrameTypeName(frame.type)));
    }
    MSQL_ASSIGN_OR_RETURN(ResultBatchMsg batch,
                          DecodeResultBatch(frame.payload));
    if (!have_schema) {
      columns = batch.columns;
      types.reserve(batch.types.size());
      for (TypeKind kind : batch.types) {
        DataType t;
        t.kind = kind;
        types.push_back(t);
      }
      have_schema = true;
    }
    for (Row& row : batch.rows) rows.push_back(std::move(row));
    if (batch.last) {
      ResultSet result(std::move(columns), std::move(types), std::move(rows));
      auto stats = std::make_shared<QueryStats>();
      stats->total_us = static_cast<int64_t>(batch.total_us);
      stats->plan_cache =
          static_cast<QueryStats::PlanCacheOutcome>(batch.plan_cache);
      if (batch.has_footer != 0) {
        stats->admission_wait_us = batch.admission_wait_us;
        stats->queue_wait_us = batch.queue_wait_us;
        stats->parse_us = batch.parse_us;
        stats->bind_us = batch.bind_us;
        stats->measure_expand_us = batch.measure_expand_us;
        stats->plan_us = batch.plan_us;
        stats->execute_us = batch.execute_us;
        stats->render_us = batch.render_us;
        stats->bytes_charged = batch.guard_bytes;
      }
      result.set_stats(std::move(stats));
      return result;
    }
  }
}

}  // namespace msql::net
