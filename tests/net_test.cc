// End-to-end tests for the msqld network front end: wire-protocol
// round-trips, the Hello/Query/Prepare/Bind/Execute lifecycle over a real
// loopback socket, plan-cache behavior observed from the client side,
// admission control, deadline propagation, and slow/half-closed clients.

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "gtest/gtest.h"
#include "net/admin.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "testing/compare.h"

namespace msql {
namespace {

constexpr char kSetup[] = R"(
CREATE TABLE Orders (prodName VARCHAR, custName VARCHAR, revenue INTEGER);
INSERT INTO Orders VALUES
  ('Happy', 'Alice', 6), ('Acme', 'Bob', 5), ('Happy', 'Alice', 7),
  ('Whizz', 'Celia', 3), ('Happy', 'Bob', 4);
CREATE VIEW EO AS SELECT *, SUM(revenue) AS MEASURE r FROM Orders;
)";

constexpr char kMeasureQuery[] =
    "SELECT prodName, AGGREGATE(r) AS v FROM EO GROUP BY prodName "
    "ORDER BY prodName";

class NetTest : public ::testing::Test {
 protected:
  void StartServer(net::ServerOptions options = {}) {
    EngineOptions engine_options;
    engine_options.enable_plan_cache = true;
    engine_options.enable_system_tables = true;
    engine_ = std::make_unique<Engine>(engine_options);
    ASSERT_TRUE(engine_->Execute(kSetup).ok());
    server_ = std::make_unique<net::MsqldServer>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  net::ClientOptions User(const std::string& user) {
    net::ClientOptions options;
    options.user = user;
    return options;
  }

  // Starts a statement on `client` that holds a statement worker until its
  // own `timeout_ms` ends it, and returns once the server has it in flight.
  // With num_worker_threads = 1, statements dispatched meanwhile queue.
  std::thread HoldWorker(net::Client& client, uint32_t timeout_ms) {
    if (engine_->Execute("CREATE TABLE T (v INTEGER)").ok()) {
      std::vector<Row> rows;
      for (int i = 0; i < 200; ++i) rows.push_back({Value::Int(i)});
      EXPECT_TRUE(engine_->InsertRows("T", std::move(rows)).ok());
    }
    std::thread slow([&client, timeout_ms] {
      client.Query("SELECT COUNT(*) FROM T a, T b, T c "
                   "WHERE a.v + b.v + c.v < 0",
                   timeout_ms);
    });
    bool busy = false;
    for (int i = 0; i < 500 && !busy; ++i) {
      for (const auto& conn : server_->SnapshotConnections()) {
        if (conn.state == "busy") busy = true;
      }
      if (!busy) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(busy);
    return slow;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<net::MsqldServer> server_;
};

// Minimal HTTP/1.1 GET against the admin endpoint: one request, read until
// the server closes (it always sends Connection: close).
std::string HttpGet(uint16_t port, const std::string& path) {
  auto sock = net::ConnectTo("127.0.0.1", port, 2000);
  if (!sock.ok()) return "";
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (!net::WriteAll(sock.value().fd(), request.data(), request.size(), 2000)
           .ok()) {
    return "";
  }
  std::string response;
  char buf[4096];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{sock.value().fd(), POLLIN, 0};
    if (poll(&pfd, 1, 200) <= 0) continue;
    const ssize_t got = ::recv(sock.value().fd(), buf, sizeof(buf), 0);
    if (got <= 0) break;
    response.append(buf, static_cast<size_t>(got));
  }
  return response;
}

TEST(WireTest, ValueAndFrameRoundTrip) {
  std::string payload;
  net::PutValue(&payload, Value::Null());
  net::PutValue(&payload, Value::Bool(true));
  net::PutValue(&payload, Value::Int(-42));
  net::PutValue(&payload, Value::Double(2.5));
  net::PutValue(&payload, Value::String("héllo"));
  net::WireReader reader(payload);
  EXPECT_TRUE(reader.GetValue().value().is_null());
  EXPECT_EQ(reader.GetValue().value().bool_val(), true);
  EXPECT_EQ(reader.GetValue().value().int_val(), -42);
  EXPECT_EQ(reader.GetValue().value().double_val(), 2.5);
  EXPECT_EQ(reader.GetValue().value().str(), "héllo");
  EXPECT_TRUE(reader.AtEnd());
  // Underflow is a clean error, not a read past the end.
  EXPECT_FALSE(reader.GetValue().ok());

  net::ResultBatchMsg msg;
  msg.stmt_id = 7;
  msg.kind = 1;
  msg.last = true;
  msg.columns = {"a", "b"};
  msg.types = {TypeKind::kInt64, TypeKind::kString};
  msg.rows = {{Value::Int(1), Value::String("x")},
              {Value::Null(), Value::String("y")}};
  msg.total_rows = 2;
  msg.total_us = 1234;
  msg.plan_cache = 2;
  auto decoded = net::DecodeResultBatch(net::EncodeResultBatch(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().stmt_id, 7u);
  EXPECT_EQ(decoded.value().columns, msg.columns);
  ASSERT_EQ(decoded.value().rows.size(), 2u);
  EXPECT_EQ(decoded.value().rows[0][0].int_val(), 1);
  EXPECT_TRUE(decoded.value().rows[1][0].is_null());
  EXPECT_EQ(decoded.value().total_us, 1234u);
  EXPECT_EQ(decoded.value().plan_cache, 2u);
}

TEST(WireTest, TryParseFrameHandlesPartialAndMalformedInput) {
  std::string buf;
  net::AppendFrame(&buf, net::FrameType::kQuery,
                   net::EncodeQuery({"SELECT 1", 0}));
  // Byte-at-a-time delivery: the parser reports "need more" until the
  // frame completes, then yields it exactly once.
  std::string partial;
  net::Frame frame;
  for (size_t i = 0; i + 1 < buf.size(); ++i) {
    partial.push_back(buf[i]);
    size_t off = 0;
    auto r = net::TryParseFrame(partial, &off, &frame);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value()) << "frame yielded early at byte " << i;
  }
  partial.push_back(buf.back());
  size_t off = 0;
  auto complete = net::TryParseFrame(partial, &off, &frame);
  ASSERT_TRUE(complete.ok());
  ASSERT_TRUE(complete.value());
  EXPECT_EQ(off, buf.size());
  EXPECT_EQ(frame.type, net::FrameType::kQuery);

  // A declared payload over the cap is rejected before any buffering.
  std::string huge;
  net::PutU32(&huge, net::kMaxFramePayload + 1);
  net::PutU8(&huge, static_cast<uint8_t>(net::FrameType::kQuery));
  off = 0;
  EXPECT_FALSE(net::TryParseFrame(huge, &off, &frame).ok());

  // Unknown frame types are protocol errors.
  std::string unknown;
  net::PutU32(&unknown, 0);
  net::PutU8(&unknown, 250);
  off = 0;
  EXPECT_FALSE(net::TryParseFrame(unknown, &off, &frame).ok());

  // The blocking client checks headers with the same decoder.
  net::FrameType type;
  EXPECT_FALSE(net::DecodeFrameHeader(huge.data(), &type).ok());
  EXPECT_FALSE(net::DecodeFrameHeader(unknown.data(), &type).ok());
  auto header = net::DecodeFrameHeader(buf.data(), &type);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value(), buf.size() - net::kFrameHeaderBytes);
  EXPECT_EQ(type, net::FrameType::kQuery);
}

TEST_F(NetTest, QueryRoundTripAndPlanCacheWarmth) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("alice")).ok());
  EXPECT_EQ(client.server_banner(), "msqld");

  auto cold = client.Query(kMeasureQuery);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold.value().num_rows(), 3u);
  EXPECT_EQ(cold.value().Get(1, "v").int_val(), 17);  // Happy: 6 + 7 + 4
  ASSERT_NE(cold.value().stats(), nullptr);
  EXPECT_EQ(cold.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kMiss);

  auto warm = client.Query(kMeasureQuery);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_NE(warm.value().stats(), nullptr);
  EXPECT_EQ(warm.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kHit);

  // The warm result is byte-for-byte the cold result.
  auto diff = testing::DiffResults(cold.value(), warm.value(),
                                   testing::CompareOptions{});
  EXPECT_FALSE(diff.has_value()) << *diff;

  // Server-side errors arrive as typed Statuses, connection stays usable.
  auto bad = client.Query("SELECT nope FROM nothing");
  EXPECT_FALSE(bad.ok());
  auto again = client.Query("SELECT 1");
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST_F(NetTest, PrepareBindExecuteLifecycle) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("bob")).ok());

  auto stmt = client.Prepare(
      "SELECT prodName, AGGREGATE(r) AS v FROM EO WHERE revenue > ? "
      "GROUP BY prodName ORDER BY prodName",
      {TypeKind::kInt64});
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().param_count, 1);

  // Executing before Bind is refused.
  auto unbound = client.Execute(stmt.value());
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), ErrorCode::kInvalidArgument);

  ASSERT_TRUE(client.Bind(stmt.value(), {Value::Int(4)}).ok());
  auto first = client.Execute(stmt.value());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().num_rows(), 2u);  // Acme 5, Happy 6+7

  // Rebind narrows the filter; the same bound plan serves the new value.
  ASSERT_TRUE(client.Bind(stmt.value(), {Value::Int(6)}).ok());
  auto second = client.Execute(stmt.value());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().num_rows(), 1u);  // Happy 7
  ASSERT_NE(second.value().stats(), nullptr);
  EXPECT_EQ(second.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kHit);

  // Parameter type mismatch on Bind is a typed error, not a disconnect.
  Status mismatch = client.Bind(stmt.value(), {Value::String("not a number")});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(mismatch.message().find("parameter $1 type mismatch"),
            std::string::npos)
      << mismatch.ToString();
  Status arity = client.Bind(stmt.value(), {Value::Int(1), Value::Int(2)});
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.code(), ErrorCode::kInvalidArgument);

  ASSERT_TRUE(client.CloseStatement(stmt.value()).ok());
  auto closed = client.Execute(stmt.value());
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(NetTest, ExecuteSurvivesCatalogGenerationBump) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("carol")).ok());

  auto stmt = client.Prepare(kMeasureQuery, {});
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE(client.Execute(stmt.value()).ok());

  // Mutate the catalog underneath the prepared statement. The server
  // re-prepares transparently; the client sees fresh data, not kCatalog.
  ASSERT_TRUE(
      engine_->Execute("INSERT INTO Orders VALUES ('Acme', 'Dana', 9)").ok());
  auto after = client.Execute(stmt.value());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().Get(0, "v").int_val(), 14);  // Acme: 5 + 9
}

TEST_F(NetTest, ProtocolViolationsGetCleanErrors) {
  StartServer();
  // A frame before Hello is refused with kPermission.
  {
    auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(sock.ok());
    std::string frames;
    net::AppendFrame(&frames, net::FrameType::kQuery,
                     net::EncodeQuery({"SELECT 1", 0}));
    ASSERT_TRUE(net::WriteAll(sock.value().fd(), frames.data(), frames.size(),
                              2000)
                    .ok());
    uint8_t header[net::kFrameHeaderBytes];
    ASSERT_TRUE(
        net::ReadExact(sock.value().fd(), header, sizeof(header), 2000).ok());
    EXPECT_EQ(header[4], static_cast<uint8_t>(net::FrameType::kError));
  }
  // Garbage bytes get an Error frame, then the server closes.
  {
    auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(sock.ok());
    std::string garbage = "this is not a frame and the length is absurd";
    garbage[0] = '\xff';
    garbage[1] = '\xff';
    garbage[2] = '\xff';
    garbage[3] = '\xff';
    ASSERT_TRUE(net::WriteAll(sock.value().fd(), garbage.data(),
                              garbage.size(), 2000)
                    .ok());
    uint8_t header[net::kFrameHeaderBytes];
    ASSERT_TRUE(
        net::ReadExact(sock.value().fd(), header, sizeof(header), 2000).ok());
    EXPECT_EQ(header[4], static_cast<uint8_t>(net::FrameType::kError));
  }
  // Version mismatch is refused.
  {
    auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
    ASSERT_TRUE(sock.ok());
    net::HelloMsg hello;
    hello.version = 999;
    hello.user = "eve";
    std::string frames;
    net::AppendFrame(&frames, net::FrameType::kHello, net::EncodeHello(hello));
    ASSERT_TRUE(net::WriteAll(sock.value().fd(), frames.data(), frames.size(),
                              2000)
                    .ok());
    uint8_t header[net::kFrameHeaderBytes];
    ASSERT_TRUE(
        net::ReadExact(sock.value().fd(), header, sizeof(header), 2000).ok());
    EXPECT_EQ(header[4], static_cast<uint8_t>(net::FrameType::kError));
  }
  // The server keeps serving healthy clients afterwards.
  net::Client healthy;
  ASSERT_TRUE(
      healthy.Connect("127.0.0.1", server_->port(), User("frank")).ok());
  EXPECT_TRUE(healthy.Query("SELECT 1").ok());
}

TEST_F(NetTest, QueryLargerThanOneReadArrivesWhole) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("lena")).ok());
  // A 200 KiB string literal: the Query frame spans several of the
  // handler's 64 KiB reads and stays under max_inbuf_bytes (1 MiB). The
  // letters vary with position, so a lost or reordered chunk shows.
  std::string text(200 * 1024, 'x');
  for (size_t i = 0; i < text.size(); i += 1000) {
    text[i] = static_cast<char>('a' + (i / 1000) % 26);
  }
  auto r =
      client.Query("SELECT '" + text + "' AS s, COUNT(*) AS n FROM Orders");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().Get(0, "s").str(), text);
  EXPECT_EQ(r.value().Get(0, "n").int_val(), 5);
}

// Reads one frame from a blocking socket.
Result<net::Frame> ReadFrameFrom(int fd) {
  char header[net::kFrameHeaderBytes];
  MSQL_RETURN_IF_ERROR(net::ReadExact(fd, header, sizeof(header), 5000));
  net::Frame frame;
  MSQL_ASSIGN_OR_RETURN(const uint32_t len,
                        net::DecodeFrameHeader(header, &frame.type));
  frame.payload.resize(len);
  if (len > 0) {
    MSQL_RETURN_IF_ERROR(net::ReadExact(fd, frame.payload.data(), len, 5000));
  }
  return frame;
}

TEST_F(NetTest, ResultLargerThanTheSocketBufferIsFlushedByTheHandler) {
  StartServer();
  // About 6 MB on the wire: more than the loopback socket buffers hold
  // while the client is not reading, less than max_outbuf_bytes (8 MiB).
  constexpr int kRows = 100000;
  auto text_of = [](int i) {
    return std::string(40, static_cast<char>('a' + i % 26));
  };
  ASSERT_TRUE(engine_->Execute("CREATE TABLE Big (i INTEGER, s VARCHAR)").ok());
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    rows.push_back({Value::Int(i), Value::String(text_of(i))});
  }
  ASSERT_TRUE(engine_->InsertRows("Big", std::move(rows)).ok());

  auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(sock.ok());
  const int fd = sock.value().fd();
  net::HelloMsg hello;
  hello.user = "maya";
  std::string frames;
  net::AppendFrame(&frames, net::FrameType::kHello, net::EncodeHello(hello));
  ASSERT_TRUE(net::WriteAll(fd, frames.data(), frames.size(), 2000).ok());
  auto reply = ReadFrameFrom(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, net::FrameType::kHello);

  net::QueryMsg query;
  query.sql = "SELECT i, s FROM Big ORDER BY i";
  frames.clear();
  net::AppendFrame(&frames, net::FrameType::kQuery, net::EncodeQuery(query));
  ASSERT_TRUE(net::WriteAll(fd, frames.data(), frames.size(), 2000).ok());
  // The worker's inline flush stops at a full socket; the rest waits in
  // the server's output buffer for the handler's EPOLLOUT-driven flush.
  bool pending = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pending && std::chrono::steady_clock::now() < deadline) {
    for (const auto& conn : server_->SnapshotConnections()) {
      if (conn.user == "maya" && conn.outbuf_bytes > 0) pending = true;
    }
    if (!pending) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(pending);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  int next = 0;
  while (true) {
    auto frame = ReadFrameFrom(fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame.value().type, net::FrameType::kResultBatch);
    auto batch = net::DecodeResultBatch(frame.value().payload);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (const Row& row : batch.value().rows) {
      ASSERT_EQ(row[0].int_val(), next);
      ASSERT_EQ(row[1].str(), text_of(next));
      ++next;
    }
    if (batch.value().last) break;
  }
  EXPECT_EQ(next, kRows);
}

TEST_F(NetTest, HalfClosedClientIsDrainedNotWedged) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("gina")).ok());

  // Half-close: shut down our write side mid-conversation, as a crashed or
  // lazy client would. The server must notice EOF, drain, and release the
  // connection without wedging a handler thread.
  auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(sock.ok());
  net::HelloMsg hello;
  hello.user = "gina2";
  std::string frames;
  net::AppendFrame(&frames, net::FrameType::kHello, net::EncodeHello(hello));
  ASSERT_TRUE(net::WriteAll(sock.value().fd(), frames.data(), frames.size(),
                            2000)
                  .ok());
  shutdown(sock.value().fd(), SHUT_WR);

  // A healthy client on the same server stays fully served meanwhile.
  for (int i = 0; i < 5; ++i) {
    auto r = client.Query(kMeasureQuery);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // The half-closed connection ends with EOF once the server drains it.
  char buf[4096];
  while (true) {
    Status st = net::ReadExact(sock.value().fd(), buf, 1, 5000);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), ErrorCode::kIo) << st.ToString();
      break;
    }
  }
}

TEST_F(NetTest, SlowClientIsShedWithResourceExhausted) {
  net::ServerOptions options;
  // A response bigger than the output buffer cannot be delivered — it must
  // be shed with a typed error rather than buffered without bound.
  options.max_outbuf_bytes = 512;
  StartServer(options);
  ASSERT_TRUE(engine_
                  ->Execute("CREATE TABLE Wide (s VARCHAR); "
                            "INSERT INTO Wide VALUES "
                            "('0123456789012345678901234567890123456789')")
                  .ok());
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("hank")).ok());
  auto big = client.Query(
      "SELECT w1.s, w2.s, o1.revenue FROM Wide w1, Wide w2, "
      "Orders o1, Orders o2, Orders o3");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), ErrorCode::kResourceExhausted)
      << big.status().ToString();

  // The metric recorded the shed and the server still serves new clients.
  EXPECT_NE(engine_->MetricsText().find("msql_net_slow_client_sheds_total"),
            std::string::npos);
  net::Client next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server_->port(), User("iris")).ok());
  EXPECT_TRUE(next.Query("SELECT 1").ok());
}

TEST_F(NetTest, PerUserAdmissionRateLimiting) {
  net::ServerOptions options;
  options.admission.per_user_rate_limit_qps = 1.0;
  options.admission.per_user_rate_limit_burst = 1;
  options.admission.max_admission_wait_ms = 5;
  StartServer(options);

  net::Client flooder;
  ASSERT_TRUE(
      flooder.Connect("127.0.0.1", server_->port(), User("flood")).ok());
  int shed = 0;
  for (int i = 0; i < 5; ++i) {
    auto r = flooder.Query("SELECT 1");
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted)
          << r.status().ToString();
      ++shed;
    }
  }
  EXPECT_GE(shed, 1) << "burst of 5 at 1 qps should shed";

  // Another user has its own bucket and is unaffected.
  net::Client other;
  ASSERT_TRUE(other.Connect("127.0.0.1", server_->port(), User("calm")).ok());
  auto r = other.Query("SELECT 1");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST_F(NetTest, DeadlinePropagatesFromWire) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("jane")).ok());
  // A cross join large enough that 1ms cannot finish it: the wire-level
  // timeout must surface as kDeadlineExceeded, proving the budget reached
  // the engine's guard.
  auto r = client.Query(
      "SELECT COUNT(*) FROM Orders a, Orders b, Orders c, Orders d, "
      "Orders e, Orders f, Orders g, Orders h",
      /*timeout_ms=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded)
      << r.status().ToString();
  // Connection unharmed.
  EXPECT_TRUE(client.Query("SELECT 1").ok());
}

// Reads one whole frame from a raw socket.
Result<net::Frame> ReadRawFrame(int fd, int64_t timeout_ms) {
  uint8_t header[net::kFrameHeaderBytes];
  MSQL_RETURN_IF_ERROR(net::ReadExact(fd, header, sizeof(header), timeout_ms));
  const uint32_t len = header[0] | (header[1] << 8) | (header[2] << 16) |
                       (static_cast<uint32_t>(header[3]) << 24);
  net::Frame frame;
  frame.type = static_cast<net::FrameType>(header[4]);
  frame.payload.resize(len);
  MSQL_RETURN_IF_ERROR(
      net::ReadExact(fd, frame.payload.data(), len, timeout_ms));
  return frame;
}

Status SendRawFrame(int fd, net::FrameType type, const std::string& payload) {
  std::string frames;
  net::AppendFrame(&frames, type, payload);
  return net::WriteAll(fd, frames.data(), frames.size(), 2000);
}

std::string QueryPayload(const std::string& sql) {
  net::QueryMsg msg;
  msg.sql = sql;
  return net::EncodeQuery(msg);
}

// Connects a raw socket and completes the Hello handshake as `user`.
Result<net::Socket> RawConnect(uint16_t port, const std::string& user) {
  MSQL_ASSIGN_OR_RETURN(net::Socket sock,
                        net::ConnectTo("127.0.0.1", port, 2000));
  net::HelloMsg hello;
  hello.user = user;
  MSQL_RETURN_IF_ERROR(
      SendRawFrame(sock.fd(), net::FrameType::kHello, net::EncodeHello(hello)));
  MSQL_RETURN_IF_ERROR(ReadRawFrame(sock.fd(), 2000).status());
  return sock;
}

// Expects the server to have closed `fd`: end of stream, no further frame.
void ExpectClosedByServer(int fd) {
  char byte;
  Status st = net::ReadExact(fd, &byte, 1, 5000);
  EXPECT_EQ(st.code(), ErrorCode::kIo) << st.ToString();
}

TEST_F(NetTest, FramesPipelinedBehindACloseAreDropped) {
  StartServer();
  ASSERT_TRUE(
      engine_->Execute("CREATE TABLE T (v INTEGER); INSERT INTO T VALUES (1)")
          .ok());
  auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(sock.ok());
  const int fd = sock.value().fd();
  // Hello, Close(0) and an INSERT in one write.
  net::HelloMsg hello;
  hello.user = "ivy";
  std::string frames;
  net::AppendFrame(&frames, net::FrameType::kHello, net::EncodeHello(hello));
  net::AppendFrame(&frames, net::FrameType::kClose, net::EncodeClose({0}));
  net::AppendFrame(&frames, net::FrameType::kQuery,
                   QueryPayload("INSERT INTO T VALUES (2)"));
  ASSERT_TRUE(net::WriteAll(fd, frames.data(), frames.size(), 2000).ok());

  auto hello_reply = ReadRawFrame(fd, 5000);
  ASSERT_TRUE(hello_reply.ok()) << hello_reply.status().ToString();
  EXPECT_EQ(hello_reply.value().type, net::FrameType::kHello);
  auto close_ack = ReadRawFrame(fd, 5000);
  ASSERT_TRUE(close_ack.ok()) << close_ack.status().ToString();
  ASSERT_EQ(close_ack.value().type, net::FrameType::kResultBatch);
  EXPECT_EQ(net::DecodeResultBatch(close_ack.value().payload).value().stmt_id,
            0u);
  ExpectClosedByServer(fd);
  auto count = engine_->Query("SELECT COUNT(*) FROM T");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().Get(0, 0).int_val(), 1);
}

TEST_F(NetTest, FramesPipelinedBehindARefusedQueryAreDropped) {
  StartServer();
  auto sock = net::ConnectTo("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(sock.ok());
  const int fd = sock.value().fd();
  // A Query before Hello, then a Hello in the same write: the refusal
  // closes the connection, so the Hello must not authenticate it.
  net::HelloMsg hello;
  hello.user = "mallory";
  std::string frames;
  net::AppendFrame(&frames, net::FrameType::kQuery, QueryPayload("SELECT 1"));
  net::AppendFrame(&frames, net::FrameType::kHello, net::EncodeHello(hello));
  ASSERT_TRUE(net::WriteAll(fd, frames.data(), frames.size(), 2000).ok());

  auto reply = ReadRawFrame(fd, 5000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, net::FrameType::kError);
  auto error = net::DecodeError(reply.value().payload);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error.value().code, static_cast<uint8_t>(ErrorCode::kPermission));
  ExpectClosedByServer(fd);
}

TEST_F(NetTest, CancelReachesStatementWaitingInAdmission) {
  net::ServerOptions options;
  options.admission.per_user_rate_limit_qps = 0.2;  // a token every 5s
  options.admission.per_user_rate_limit_burst = 1;
  options.admission.max_admission_wait_ms = 10 * 1000;
  StartServer(options);
  auto sock = RawConnect(server_->port(), "patient");
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  const int fd = sock.value().fd();

  // The first statement takes the burst token and runs.
  ASSERT_TRUE(
      SendRawFrame(fd, net::FrameType::kQuery, QueryPayload("SELECT 1")).ok());
  auto first = ReadRawFrame(fd, 5000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().type, net::FrameType::kResultBatch);

  // The second waits for the next token, 5s away; the Cancel must end that
  // wait instead of letting the statement run when the token arrives.
  ASSERT_TRUE(
      SendRawFrame(fd, net::FrameType::kQuery, QueryPayload("SELECT 2")).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto cancelled_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(SendRawFrame(fd, net::FrameType::kCancel, "").ok());
  auto second = ReadRawFrame(fd, 10000);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second.value().type, net::FrameType::kError);
  auto error = net::DecodeError(second.value().payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(net::StatusFromError(error.value()).code(), ErrorCode::kCancelled)
      << error.value().message;
  EXPECT_LT(std::chrono::steady_clock::now() - cancelled_at,
            std::chrono::milliseconds(2500));
}

TEST_F(NetTest, DeadlineStartsAtFrameDispatch) {
  net::ServerOptions options;
  options.num_worker_threads = 1;  // the second statement queues
  StartServer(options);
  net::Client slow_client;
  ASSERT_TRUE(
      slow_client.Connect("127.0.0.1", server_->port(), User("slow")).ok());
  net::Client quick_client;
  ASSERT_TRUE(
      quick_client.Connect("127.0.0.1", server_->port(), User("quick")).ok());
  std::thread slow = HoldWorker(slow_client, /*timeout_ms=*/1000);
  // Its 20ms budget runs out while it waits for the worker.
  auto r = quick_client.Query("SELECT 1", /*timeout_ms=*/20);
  slow.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_TRUE(quick_client.Query("SELECT 1").ok());
}

TEST_F(NetTest, CancelReachesStatementQueuedForWorker) {
  net::ServerOptions options;
  options.num_worker_threads = 1;
  StartServer(options);
  net::Client slow_client;
  ASSERT_TRUE(
      slow_client.Connect("127.0.0.1", server_->port(), User("slow")).ok());
  std::thread slow = HoldWorker(slow_client, /*timeout_ms=*/500);

  auto sock = RawConnect(server_->port(), "waiting");
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  const int fd = sock.value().fd();
  ASSERT_TRUE(
      SendRawFrame(fd, net::FrameType::kQuery, QueryPayload("SELECT 1")).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(SendRawFrame(fd, net::FrameType::kCancel, "").ok());
  auto reply = ReadRawFrame(fd, 10000);
  slow.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, net::FrameType::kError);
  auto error = net::DecodeError(reply.value().payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(net::StatusFromError(error.value()).code(), ErrorCode::kCancelled)
      << error.value().message;
}

TEST_F(NetTest, QueuedStatementOfClosedConnectionTakesNoToken) {
  net::ServerOptions options;
  options.num_worker_threads = 1;
  options.admission.per_user_rate_limit_qps = 0.2;  // a token every 5s
  options.admission.per_user_rate_limit_burst = 1;
  options.admission.max_admission_wait_ms = 50;
  StartServer(options);
  net::Client slow_client;
  ASSERT_TRUE(
      slow_client.Connect("127.0.0.1", server_->port(), User("slow")).ok());
  std::thread slow = HoldWorker(slow_client, /*timeout_ms=*/500);

  // bob's statement queues behind the slow one; bob then goes away.
  {
    auto sock = RawConnect(server_->port(), "bob");
    ASSERT_TRUE(sock.ok()) << sock.status().ToString();
    ASSERT_TRUE(SendRawFrame(sock.value().fd(), net::FrameType::kQuery,
                             QueryPayload("SELECT 1"))
                    .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  slow.join();

  // The abandoned statement must not have spent bob's only token.
  net::Client bob;
  ASSERT_TRUE(bob.Connect("127.0.0.1", server_->port(), User("bob")).ok());
  auto r = bob.Query("SELECT 1");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST_F(NetTest, TracedWireStatementShowsQueueThenAdmissionWait) {
  net::ServerOptions options;
  options.num_worker_threads = 1;
  options.admission.per_user_rate_limit_qps = 1.0;  // a token every second
  options.admission.per_user_rate_limit_burst = 1;
  options.admission.max_admission_wait_ms = 10 * 1000;
  StartServer(options);
  net::Client slow_client;
  ASSERT_TRUE(
      slow_client.Connect("127.0.0.1", server_->port(), User("ann")).ok());
  net::Client traced;
  ASSERT_TRUE(traced.Connect("127.0.0.1", server_->port(), User("ann")).ok());
  traced.SetTrace(true, "queue-then-admission");
  // The slow statement takes ann's token and the worker for ~200ms; the
  // traced one first waits for the worker, then for ann's next token.
  std::thread slow = HoldWorker(slow_client, /*timeout_ms=*/200);
  auto r = traced.Query("SELECT 1");
  slow.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().stats(), nullptr);
  EXPECT_GT(r.value().stats()->queue_wait_us, 0);
  EXPECT_GT(r.value().stats()->admission_wait_us, 0);

  const obs::TraceSpan* queue = nullptr;
  const obs::TraceSpan* admission = nullptr;
  for (const auto& trace : engine_->RecentTraces()) {
    if (trace->trace_id() != "queue-then-admission") continue;
    for (const auto& span : trace->root().children) {
      if (span->name == "queue-wait") queue = span.get();
      if (span->name == "admission-wait") admission = span.get();
    }
  }
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(admission, nullptr);
  // Both ended before the trace clock started (offsets allow for µs
  // rounding).
  EXPECT_LT(queue->start_us, admission->start_us);
  EXPECT_LE(queue->start_us + queue->duration_us, admission->start_us + 1);
  EXPECT_LE(admission->start_us + admission->duration_us, 1);
}

TEST_F(NetTest, ConnectionLimitPerUser) {
  net::ServerOptions options;
  options.max_connections_per_user = 1;
  StartServer(options);
  net::Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port(), User("solo")).ok());
  net::Client second;
  Status refused = second.Connect("127.0.0.1", server_->port(), User("solo"));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted)
      << refused.ToString();
  // Dropping the first connection frees the slot.
  first.Disconnect();
  net::Client third;
  Status retry = Status::Ok();
  for (int i = 0; i < 50; ++i) {
    retry = third.Connect("127.0.0.1", server_->port(), User("solo"));
    if (retry.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(retry.ok()) << retry.ToString();
}

TEST_F(NetTest, ConcurrentClientsAllServed) {
  net::ServerOptions options;
  options.num_handler_threads = 3;
  options.num_worker_threads = 4;
  StartServer(options);
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 10;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      if (!client
               .Connect("127.0.0.1", server_->port(),
                        User("user" + std::to_string(c)))
               .ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueriesEach; ++q) {
        auto r = client.Query(kMeasureQuery);
        if (!r.ok() || r.value().num_rows() != 3) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every statement of every client hit the shared plan cache after the
  // first fill.
  EXPECT_GE(engine_->plan_cache().stats().hits,
            static_cast<uint64_t>(kClients * kQueriesEach - kClients));
}

TEST_F(NetTest, UntracedStatementsCarryNoPhaseFooter) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("lena")).ok());
  auto r = client.Query(kMeasureQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().stats(), nullptr);
  // The trailer still carries totals, but without kTraceFlagEnabled the
  // server never measures phases: the footer is absent and the phase
  // fields stay zero (the zero-overhead disabled path).
  EXPECT_GT(r.value().stats()->total_us, 0);
  EXPECT_EQ(r.value().stats()->parse_us, 0);
  EXPECT_EQ(r.value().stats()->execute_us, 0);
  EXPECT_EQ(r.value().stats()->render_us, 0);
  // Nothing entered the server's trace ring either.
  EXPECT_TRUE(engine_->RecentTraces().empty());
}

TEST_F(NetTest, TraceFooterCarriesPhaseBreakdown) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("mia")).ok());
  client.SetTrace(true, "req-42/alpha");

  auto r = client.Query(kMeasureQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& stats = r.value().stats();
  ASSERT_NE(stats, nullptr);
  // The footer's phases are real measurements: execute ran, and the
  // pipeline phases cannot exceed the server's total.
  EXPECT_GT(stats->execute_us, 0);
  const int64_t pipeline_us = stats->bind_us + stats->measure_expand_us +
                              stats->plan_us + stats->execute_us +
                              stats->render_us;
  EXPECT_GT(pipeline_us, 0);
  EXPECT_LE(pipeline_us, stats->total_us);

  // The same statement also works through the prepared path.
  auto stmt = client.Prepare(kMeasureQuery, {});
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto executed = client.Execute(stmt.value());
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  ASSERT_NE(executed.value().stats(), nullptr);
  EXPECT_GT(executed.value().stats()->execute_us, 0);

  // Server-side, the trace ring picked up the client's correlation id and
  // the connection's peer identity.
  auto traces = engine_->RecentTraces();
  ASSERT_FALSE(traces.empty());
  bool found = false;
  for (const auto& trace : traces) {
    if (trace->trace_id() == "req-42/alpha") {
      found = true;
      EXPECT_NE(trace->peer().find("127.0.0.1"), std::string::npos)
          << trace->peer();
    }
  }
  EXPECT_TRUE(found) << "no trace carried the wire trace id";
}

TEST_F(NetTest, MalformedTraceIdsAreRejected) {
  StartServer();
  // Oversized: one byte past kMaxTraceIdBytes.
  {
    net::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", server_->port(), User("nina")).ok());
    client.SetTrace(true, std::string(net::kMaxTraceIdBytes + 1, 'x'));
    auto r = client.Query("SELECT 1");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument)
        << r.status().ToString();
  }
  // Non-printable / whitespace bytes are refused too.
  {
    net::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", server_->port(), User("nina")).ok());
    client.SetTrace(true, "has space");
    auto r = client.Query("SELECT 1");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument)
        << r.status().ToString();
  }
  // A maximal valid id passes.
  {
    net::Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", server_->port(), User("nina")).ok());
    client.SetTrace(true, std::string(net::kMaxTraceIdBytes, 'y'));
    auto r = client.Query("SELECT 1");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST_F(NetTest, SystemTablesQueryableOverWire) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("omar")).ok());

  // The querying connection sees itself: busy, with its own statement.
  auto conns = client.Query(
      "SELECT user, state, statement FROM msql_system.connections "
      "ORDER BY id");
  ASSERT_TRUE(conns.ok()) << conns.status().ToString();
  ASSERT_EQ(conns.value().num_rows(), 1u);
  EXPECT_EQ(conns.value().Get(0, "user").str(), "omar");
  EXPECT_EQ(conns.value().Get(0, "state").str(), "busy");
  EXPECT_NE(conns.value().Get(0, "statement").str().find("msql_system"),
            std::string::npos);

  // Queries land in msql_system.queries once traced; measures work over
  // system tables like over any other relation.
  client.SetTrace(true, "sys-probe");
  ASSERT_TRUE(client.Query(kMeasureQuery).ok());
  client.SetTrace(false);
  ASSERT_TRUE(engine_
                  ->Execute("CREATE VIEW QT AS SELECT *, "
                            "SUM(total_us) AS MEASURE total FROM "
                            "msql_system.queries")
                  .ok());
  auto agg = client.Query(
      "SELECT status, AGGREGATE(total) AS t FROM QT WHERE trace_id = "
      "'sys-probe' GROUP BY status");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg.value().num_rows(), 1u);
  EXPECT_EQ(agg.value().Get(0, "status").str(), "ok");
  EXPECT_GT(agg.value().Get(0, "t").int_val(), 0);

  // msql_system.metrics is a plain relation too.
  auto metric = client.Query(
      "SELECT value FROM msql_system.metrics "
      "WHERE name = 'msql_net_connections_active'");
  ASSERT_TRUE(metric.ok()) << metric.status().ToString();
  ASSERT_EQ(metric.value().num_rows(), 1u);
  EXPECT_GE(metric.value().Get(0, "value").double_val(), 1.0);

  // Prepared statements over system tables are refused: the snapshot would
  // go stale inside the bound plan.
  auto stmt = client.Prepare("SELECT id FROM msql_system.connections", {});
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().code(), ErrorCode::kInvalidArgument);

  // And text statements over them never warm the plan cache.
  auto once = client.Query("SELECT COUNT(*) AS c FROM msql_system.queries");
  auto twice = client.Query("SELECT COUNT(*) AS c FROM msql_system.queries");
  ASSERT_TRUE(once.ok() && twice.ok());
  ASSERT_NE(twice.value().stats(), nullptr);
  EXPECT_NE(twice.value().stats()->plan_cache,
            QueryStats::PlanCacheOutcome::kHit);
}

TEST_F(NetTest, AdminEndpointsServeObservability) {
  net::ServerOptions options;
  options.admin_port = 0;  // ephemeral
  StartServer(options);
  ASSERT_GT(server_->admin_port(), 0);
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("pat")).ok());
  ASSERT_TRUE(client.Query(kMeasureQuery).ok());

  const std::string health = HttpGet(server_->admin_port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string metrics = HttpGet(server_->admin_port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("msql_query_duration_ms"), std::string::npos);
  EXPECT_NE(metrics.find("msql_net_connections_active"), std::string::npos);
  EXPECT_NE(metrics.find("msql_net_conn_idle_active"), std::string::npos);

  const std::string statusz = HttpGet(server_->admin_port(), "/statusz");
  EXPECT_NE(statusz.find("200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("\"user\": \"pat\""), std::string::npos) << statusz;

  const std::string tracez =
      HttpGet(server_->admin_port(), "/tracez?min_ms=0");
  EXPECT_NE(tracez.find("200 OK"), std::string::npos);

  EXPECT_NE(HttpGet(server_->admin_port(), "/nope").find("404"),
            std::string::npos);

  // Shutting the server down takes the admin plane with it.
  const uint16_t admin_port = server_->admin_port();
  server_->Stop();
  EXPECT_TRUE(HttpGet(admin_port, "/healthz").empty());
  server_.reset();
  engine_.reset();
}

TEST(AdminServerTest, HealthzFlipsWhenDraining) {
  obs::MetricsRegistry registry;
  std::atomic<bool> healthy{true};
  net::AdminHooks hooks;
  hooks.healthy = [&] { return healthy.load(); };
  net::AdminServer admin("127.0.0.1", 0, hooks, &registry);
  ASSERT_TRUE(admin.Start().ok());

  EXPECT_NE(HttpGet(admin.port(), "/healthz").find("200 OK"),
            std::string::npos);
  // Exactly what MsqldServer::Stop does first: flip the readiness source.
  healthy.store(false);
  const std::string draining = HttpGet(admin.port(), "/healthz");
  EXPECT_NE(draining.find("503"), std::string::npos) << draining;
  EXPECT_NE(draining.find("draining"), std::string::npos);
  admin.Stop();
}

TEST_F(NetTest, GracefulShutdownWithOpenConnections) {
  StartServer();
  net::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), User("kate")).ok());
  ASSERT_TRUE(client.Query("SELECT 1").ok());
  server_->Stop();
  // The closed server refuses further traffic cleanly.
  auto r = client.Query("SELECT 1");
  EXPECT_FALSE(r.ok());
  server_.reset();
  engine_.reset();
}

}  // namespace
}  // namespace msql
