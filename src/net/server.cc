#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <thread>

#include "bench/json_writer.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace msql::net {

namespace {

// Poll slice: short enough that write timeouts and Stop() are observed
// promptly even with no socket activity.
constexpr int kPollTimeoutMs = 50;

// Injected faults at the named site, callable from void-returning handler
// paths (MSQL_FAULT_POINT assumes a Status-returning scope).
Status FaultAt(const char* site) {
  if (FaultInjector::Instance().active()) {
    return FaultInjector::Instance().Checkpoint(site);
  }
  return Status::Ok();
}

// msql_system.connections: one row per ConnInfo.
Schema ConnectionsSchema() {
  Schema schema;
  schema.AddColumn(Column("id", DataType::Int64()));
  schema.AddColumn(Column("peer", DataType::String()));
  schema.AddColumn(Column("user", DataType::String()));
  schema.AddColumn(Column("state", DataType::String()));
  schema.AddColumn(Column("statement", DataType::String()));
  schema.AddColumn(Column("inflight_stmt", DataType::Int64()));
  schema.AddColumn(Column("bytes_in", DataType::Int64()));
  schema.AddColumn(Column("bytes_out", DataType::Int64()));
  schema.AddColumn(Column("outbuf_bytes", DataType::Int64()));
  schema.AddColumn(Column("statements", DataType::Int64()));
  schema.AddColumn(Column("errors", DataType::Int64()));
  schema.AddColumn(Column("rate_limited", DataType::Int64()));
  return schema;
}

}  // namespace

MsqldServer::MsqldServer(Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      admission_(options_.admission, std::nullopt) {
  obs::MetricsRegistry& reg = engine_->metrics();
  metrics_.connections = reg.GetCounter(
      "msql_net_connections_total", "Connections accepted by msqld");
  metrics_.frames_read = reg.GetCounter("msql_net_frames_read_total",
                                        "Wire frames parsed from clients");
  metrics_.frames_written = reg.GetCounter(
      "msql_net_frames_written_total", "Wire frames enqueued to clients");
  metrics_.bytes_read =
      reg.GetCounter("msql_net_bytes_read_total", "Bytes read from clients");
  metrics_.bytes_written = reg.GetCounter("msql_net_bytes_written_total",
                                          "Bytes written to clients");
  metrics_.queries = reg.GetCounter(
      "msql_net_queries_total", "Query/Execute statements dispatched");
  metrics_.errors_sent =
      reg.GetCounter("msql_net_errors_total", "Error frames sent to clients");
  metrics_.protocol_errors = reg.GetCounter(
      "msql_net_protocol_errors_total",
      "Connections dropped for malformed or out-of-order frames");
  metrics_.write_timeouts = reg.GetCounter(
      "msql_net_write_timeouts_total",
      "Connections dropped after pending output stalled for "
      "write_timeout_ms");
  metrics_.slow_client_sheds = reg.GetCounter(
      "msql_net_slow_client_sheds_total",
      "Responses shed with kResourceExhausted because a client's bounded "
      "output buffer overflowed");
  metrics_.connections_active =
      reg.GetGauge("msql_net_connections_active", "Open msqld connections");
  metrics_.conn_busy = reg.GetGauge(
      "msql_net_conn_busy_active",
      "Connections with a statement in flight (refreshed at scrape)");
  metrics_.conn_idle = reg.GetGauge(
      "msql_net_conn_idle_active",
      "Authenticated connections awaiting a request (refreshed at scrape)");
  metrics_.conn_outbuf_bytes = reg.GetGauge(
      "msql_net_conn_outbuf_bytes",
      "Response bytes buffered across all connections (refreshed at "
      "scrape)");
}

MsqldServer::~MsqldServer() { Stop(); }

Status MsqldServer::Start() {
  if (running_.exchange(true)) {
    return Status(ErrorCode::kInvalidArgument, "server already started");
  }
  stopping_.store(false);
  MSQL_ASSIGN_OR_RETURN(
      listener_, ListenOn(options_.host, options_.port,
                          options_.listen_backlog, &port_));
  MSQL_RETURN_IF_ERROR(SetNonBlocking(listener_.fd(), true));

  workers_ =
      std::make_unique<ThreadPool>(std::max(1, options_.num_worker_threads));

  const int nhandlers = std::max(1, options_.num_handler_threads);
  handlers_.clear();
  for (int i = 0; i < nhandlers; ++i) {
    auto handler = std::make_unique<Handler>();
    int fds[2];
    if (pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      return Status(ErrorCode::kIo,
                    StrCat("pipe2: ", strerror(errno)));
    }
    handler->wake_read = fds[0];
    handler->wake_write = fds[1];
    handler->epfd = epoll_create1(EPOLL_CLOEXEC);
    if (handler->epfd < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status(ErrorCode::kIo,
                    StrCat("epoll_create1: ", strerror(errno)));
    }
    // The wake pipe lives in the epoll set with a null cookie so the loop
    // can tell it apart from connection events.
    epoll_event wake_ev{};
    wake_ev.events = EPOLLIN;
    wake_ev.data.ptr = nullptr;
    epoll_ctl(handler->epfd, EPOLL_CTL_ADD, handler->wake_read, &wake_ev);
    handlers_.push_back(std::move(handler));
  }
  for (auto& handler : handlers_) {
    Handler* h = handler.get();
    h->thread = std::thread([this, h] { HandlerLoop(h); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });

  // msql_system.connections: a live snapshot of this server's connection
  // registry (visible to SQL when the engine enables system tables).
  engine_->system_tables().Register(
      "msql_system.connections", [this] {
        auto table = std::make_shared<Table>("msql_system.connections",
                                             ConnectionsSchema());
        std::vector<Row> rows;
        for (const ConnInfo& c : SnapshotConnections()) {
          rows.push_back({Value::Int(static_cast<int64_t>(c.id)),
                          Value::String(c.peer), Value::String(c.user),
                          Value::String(c.state), Value::String(c.statement),
                          Value::Int(static_cast<int64_t>(c.inflight_stmt)),
                          Value::Int(static_cast<int64_t>(c.bytes_in)),
                          Value::Int(static_cast<int64_t>(c.bytes_out)),
                          Value::Int(static_cast<int64_t>(c.outbuf_bytes)),
                          Value::Int(static_cast<int64_t>(c.statements)),
                          Value::Int(static_cast<int64_t>(c.errors)),
                          Value::Int(static_cast<int64_t>(c.rate_limited))});
        }
        (void)table->AppendRows(std::move(rows));
        return table;
      });

  if (options_.admin_port >= 0) {
    if (Status st = StartAdmin(); !st.ok()) {
      Stop();
      return st;
    }
  }
  return Status::Ok();
}

Status MsqldServer::StartAdmin() {
  AdminHooks hooks;
  hooks.metrics_text = [this] {
    // The msql_net_conn_* gauges are registry-derived; refresh them at
    // scrape time so one pass over the connections serves both /metrics
    // and /statusz identically.
    size_t busy = 0;
    size_t idle = 0;
    uint64_t outbuf = 0;
    for (const ConnInfo& c : SnapshotConnections()) {
      if (c.state == "busy") ++busy;
      if (c.state == "idle") ++idle;
      outbuf += c.outbuf_bytes;
    }
    metrics_.conn_busy->Set(static_cast<double>(busy));
    metrics_.conn_idle->Set(static_cast<double>(idle));
    metrics_.conn_outbuf_bytes->Set(static_cast<double>(outbuf));
    return engine_->MetricsText();
  };
  hooks.healthy = [this] {
    return running_.load(std::memory_order_acquire) &&
           !stopping_.load(std::memory_order_acquire);
  };
  hooks.statusz_json = [this] { return StatuszJson(); };
  hooks.tracez_json = [this](int64_t min_ms) { return TracezJson(min_ms); };
  admin_ = std::make_unique<AdminServer>(
      options_.host, static_cast<uint16_t>(options_.admin_port),
      std::move(hooks), &engine_->metrics());
  return admin_->Start();
}

std::string MsqldServer::StatuszJson() const {
  std::ostringstream out;
  bench::JsonWriter w(out);
  w.BeginObject();
  w.Key("active_connections");
  w.Int(active_conns_.load(std::memory_order_acquire));
  w.Key("connections");
  w.BeginArray();
  for (const ConnInfo& c : SnapshotConnections()) {
    w.BeginObject();
    w.Key("id"); w.Int(static_cast<int64_t>(c.id));
    w.Key("peer"); w.String(c.peer);
    w.Key("user"); w.String(c.user);
    w.Key("state"); w.String(c.state);
    w.Key("statement"); w.String(c.statement);
    w.Key("inflight_stmt"); w.Int(static_cast<int64_t>(c.inflight_stmt));
    w.Key("bytes_in"); w.Int(static_cast<int64_t>(c.bytes_in));
    w.Key("bytes_out"); w.Int(static_cast<int64_t>(c.bytes_out));
    w.Key("outbuf_bytes"); w.Int(static_cast<int64_t>(c.outbuf_bytes));
    w.Key("statements"); w.Int(static_cast<int64_t>(c.statements));
    w.Key("errors"); w.Int(static_cast<int64_t>(c.errors));
    w.Key("rate_limited"); w.Int(static_cast<int64_t>(c.rate_limited));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return out.str();
}

std::string MsqldServer::TracezJson(int64_t min_ms) const {
  std::ostringstream out;
  out << '[';
  bool first = true;
  for (const obs::TracePtr& t : engine_->RecentTraces()) {
    if (t->total_us() < min_ms * 1000) continue;
    if (!first) out << ",\n";
    first = false;
    t->ToJson(out);
  }
  out << ']';
  return out.str();
}

std::vector<MsqldServer::ConnInfo> MsqldServer::SnapshotConnections() const {
  std::vector<ConnPtr> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.reserve(conns_by_id_.size());
    for (const auto& [id, conn] : conns_by_id_) conns.push_back(conn);
  }
  std::vector<ConnInfo> out;
  out.reserve(conns.size());
  for (const ConnPtr& conn : conns) {
    ConnInfo info;
    info.id = conn->stats.id;
    info.peer = conn->stats.peer;
    switch (conn->stats.state.load(std::memory_order_relaxed)) {
      case 1: info.state = "idle"; break;
      case 2: info.state = "busy"; break;
      case 3: info.state = "closing"; break;
      default: info.state = "handshake"; break;
    }
    info.inflight_stmt =
        conn->stats.inflight_stmt.load(std::memory_order_relaxed);
    info.bytes_in = conn->stats.bytes_in.load(std::memory_order_relaxed);
    info.bytes_out = conn->stats.bytes_out.load(std::memory_order_relaxed);
    info.statements = conn->stats.statements.load(std::memory_order_relaxed);
    info.errors = conn->stats.errors.load(std::memory_order_relaxed);
    info.rate_limited =
        conn->stats.rate_limited.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(conn->stats.mu);
      info.user = conn->stats.user;
      info.statement = conn->stats.statement;
    }
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      info.outbuf_bytes = conn->outbuf.size() - conn->out_off;
    }
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const ConnInfo& a, const ConnInfo& b) { return a.id < b.id; });
  return out;
}

void MsqldServer::Stop() {
  if (!running_.load() || stopping_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  // From here /healthz answers 503 (the admin server itself stays up until
  // the drain below finishes, so monitors see "draining", not a dead
  // endpoint, while connections unwind).
  if (acceptor_.joinable()) acceptor_.join();
  for (size_t i = 0; i < handlers_.size(); ++i) WakeHandler(i);
  for (auto& handler : handlers_) {
    if (handler->thread.joinable()) handler->thread.join();
  }
  // Handler loops closed their connections (cancelling in-flight
  // statements); drain the worker pool so no task outlives the server.
  if (workers_ != nullptr) workers_->Shutdown();
  for (auto& handler : handlers_) {
    if (handler->epfd >= 0) ::close(handler->epfd);
    if (handler->wake_read >= 0) ::close(handler->wake_read);
    if (handler->wake_write >= 0) ::close(handler->wake_write);
  }
  handlers_.clear();
  listener_.Close();
  if (admin_ != nullptr) {
    admin_->Stop();
    admin_.reset();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_by_id_.clear();
  }
  // The engine outlives this server; replace the live connections provider
  // with an empty-table one so a later SELECT cannot reach a dead `this`.
  engine_->system_tables().Register("msql_system.connections", [] {
    return std::make_shared<Table>("msql_system.connections",
                                   ConnectionsSchema());
  });
  running_.store(false);
}

void MsqldServer::WakeHandler(size_t index) {
  if (index >= handlers_.size()) return;
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n =
      ::write(handlers_[index]->wake_write, &byte, 1);
}

void MsqldServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listener_.fd(), POLLIN, 0};
    const int rc = poll(&pfd, 1, kPollTimeoutMs);
    if (rc <= 0) continue;
    sockaddr_in peer;
    socklen_t len = sizeof(peer);
    int fd = accept4(listener_.fd(), reinterpret_cast<sockaddr*>(&peer),
                     &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) continue;
    if (Status fault = FaultAt("net.accept"); !fault.ok()) {
      // Injected accept failure: the connection is refused outright; the
      // client observes a clean close, the server keeps serving.
      ::close(fd);
      continue;
    }
    if (active_conns_.load(std::memory_order_acquire) >=
        static_cast<int>(options_.max_connections)) {
      // Over the connection cap we still answer with a typed error so the
      // client can distinguish shed from crash.
      std::string frames;
      AppendFrame(&frames, FrameType::kError,
                  EncodeError(ErrorFromStatus(Status(
                      ErrorCode::kResourceExhausted,
                      StrCat("connection limit reached (max_connections=",
                             options_.max_connections, ")")))));
      ::send(fd, frames.data(), frames.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    SetNoDelay(fd);
    auto conn = std::make_shared<Conn>();
    conn->sock = Socket(fd);
    char ip[INET_ADDRSTRLEN] = {0};
    inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    conn->peer = StrCat(ip, ":", ntohs(peer.sin_port));
    conn->stats.id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->stats.peer = conn->peer;
    const size_t index =
        next_handler_.fetch_add(1, std::memory_order_relaxed) %
        handlers_.size();
    conn->handler_index = index;
    metrics_.connections->Increment();
    metrics_.connections_active->Add(1.0);
    active_conns_.fetch_add(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_by_id_[conn->stats.id] = conn;
    }
    {
      Handler* h = handlers_[index].get();
      std::lock_guard<std::mutex> lock(h->adopt_mu);
      h->adopting.push_back(std::move(conn));
    }
    WakeHandler(index);
  }
}

void MsqldServer::HandlerLoop(Handler* handler) {
  std::vector<ConnPtr> conns;
  std::vector<epoll_event> events(256);
  std::vector<char> scratch(64 * 1024);  // one read() takes up to this much
  auto last_scan = std::chrono::steady_clock::now();

  while (true) {
    // Adopt newly accepted connections into the epoll set.
    {
      std::lock_guard<std::mutex> lock(handler->adopt_mu);
      for (ConnPtr& conn : handler->adopting) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.ptr = conn.get();
        if (epoll_ctl(handler->epfd, EPOLL_CTL_ADD, conn->sock.fd(), &ev) ==
            0) {
          conn->epoll_registered = true;
        }
        conns.push_back(std::move(conn));
      }
      handler->adopting.clear();
    }

    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping) {
      for (const ConnPtr& conn : conns) {
        if (!conn->dead.load()) {
          if (conn->session != nullptr) conn->session->Cancel();
          CloseConn(conn);
        }
      }
      // Keep conns alive until their in-flight workers finish enqueueing
      // (enqueue into a dead conn is a no-op); the pool Shutdown in Stop()
      // joins those workers before the server object dies.
      return;
    }

    const int nev =
        epoll_wait(handler->epfd, events.data(),
                   static_cast<int>(events.size()), kPollTimeoutMs);
    const auto now = std::chrono::steady_clock::now();

    // Event-driven servicing is O(ready connections). A periodic full scan
    // (on wakeups and at least every poll interval) covers everything the
    // epoll set can't see: deferred input after a statement finished,
    // connections awaiting close, write-stall timeouts, and reaping.
    bool full_scan =
        nev <= 0 || now - last_scan > std::chrono::milliseconds(kPollTimeoutMs);
    for (int i = 0; i < nev; ++i) {
      if (events[i].data.ptr == nullptr) {
        char drain[256];
        while (::read(handler->wake_read, drain, sizeof(drain)) > 0) {
        }
        full_scan = true;
        continue;
      }
      Conn* raw = static_cast<Conn*>(events[i].data.ptr);
      ServiceConn(handler, raw->shared_from_this(), events[i].events,
                  scratch, now);
    }
    if (!full_scan) continue;
    last_scan = now;
    for (const ConnPtr& conn : conns) {
      ServiceConn(handler, conn, 0, scratch, now);
    }

    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const ConnPtr& c) {
                                 return c->dead.load() &&
                                        !c->busy.load();
                               }),
                conns.end());
  }
}

void MsqldServer::ServiceConn(Handler* handler, const ConnPtr& conn,
                              uint32_t revents, std::span<char> scratch,
                              std::chrono::steady_clock::time_point now) {
  if (conn->dead.load(std::memory_order_acquire)) return;

  if (revents & EPOLLERR) {
    if (conn->session != nullptr) conn->session->Cancel();
    CloseConn(conn);
    return;
  }

  // Read side. EPOLLHUP without EPOLLIN also lands here so a half-close
  // is observed as read() == 0.
  while (!conn->saw_eof && (revents & (EPOLLIN | EPOLLHUP))) {
    const ssize_t got = ::read(conn->sock.fd(), scratch.data(), scratch.size());
    if (got > 0) {
      metrics_.bytes_read->Increment(static_cast<uint64_t>(got));
      conn->stats.bytes_in.fetch_add(static_cast<uint64_t>(got),
                                     std::memory_order_relaxed);
      conn->inbuf.append(scratch.data(), static_cast<size_t>(got));
      if (conn->inbuf.size() > options_.max_inbuf_bytes) {
        ProtocolError(conn, Status(ErrorCode::kResourceExhausted,
                                   StrCat("input buffer overflow (cap ",
                                          options_.max_inbuf_bytes,
                                          " bytes)")));
        break;
      }
      continue;
    }
    if (got == 0) {
      // Half-close: no more requests. An in-flight statement is cancelled
      // (its kCancelled Error still flushes — the client may have shut
      // down only its write side); pending output is flushed, then the
      // connection closes.
      conn->saw_eof = true;
      if (conn->busy.load(std::memory_order_acquire) &&
          conn->session != nullptr) {
        conn->session->Cancel();
      }
      conn->close_after_flush.store(true);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    if (conn->session != nullptr) conn->session->Cancel();
    CloseConn(conn);
    return;
  }

  ProcessInput(conn);
  if (conn->dead.load()) return;
  // Read before the flush: a worker enqueues its last frame before it
  // clears `busy`, so output found drained behind an idle flag stays so.
  const bool idle = !conn->busy.load();

  // Write side: flush what the socket accepts, and drop a client whose
  // pending output made no progress for write_timeout_ms.
  bool drained;
  bool timed_out = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    const bool progressed = Flush(*conn);
    drained = conn->out_off >= conn->outbuf.size();
    if (!drained && !progressed) {
      if (!conn->write_stalled) {
        conn->write_stalled = true;
        conn->write_stall_since = now;
      } else {
        timed_out = options_.write_timeout_ms > 0 &&
                    now - conn->write_stall_since >
                        std::chrono::milliseconds(options_.write_timeout_ms);
      }
    }
  }
  if (timed_out) {
    metrics_.write_timeouts->Increment();
    if (conn->session != nullptr) conn->session->Cancel();
    CloseConn(conn);
    return;
  }

  // Close once all output is flushed and nothing is in flight.
  if (conn->close_after_flush.load()) {
    if (drained && idle) {
      CloseConn(conn);
      return;
    }
    // A closing connection leaves the epoll set: level-triggered
    // EPOLLHUP/EPOLLIN would otherwise spin the loop; its remaining flush
    // and close ride the periodic scans and FinishStatement wakeups.
    if (conn->epoll_registered) {
      epoll_ctl(handler->epfd, EPOLL_CTL_DEL, conn->sock.fd(), nullptr);
      conn->epoll_registered = false;
    }
    return;
  }

  // Epoll interest: EPOLLOUT only while output is pending.
  const bool want_out = !drained;
  if (conn->epoll_registered && want_out != conn->epoll_out) {
    epoll_event ev{};
    ev.events = want_out ? EPOLLIN | EPOLLOUT : EPOLLIN;
    ev.data.ptr = conn.get();
    if (epoll_ctl(handler->epfd, EPOLL_CTL_MOD, conn->sock.fd(), &ev) == 0) {
      conn->epoll_out = want_out;
    }
  }
}

void MsqldServer::ProcessInput(const ConnPtr& conn) {
  // Frames pipelined behind one that closes the connection are dropped.
  while (!conn->dead.load(std::memory_order_acquire) &&
         !conn->close_after_flush.load()) {
    size_t off = 0;
    Frame frame;
    Result<bool> parsed = TryParseFrame(conn->inbuf, &off, &frame);
    if (!parsed.ok()) {
      ProtocolError(conn, parsed.status());
      return;
    }
    if (!parsed.value()) return;  // need more bytes

    // Publish "input is waiting" before checking busy: either the worker
    // (clearing busy) sees the flag and wakes us, or we see busy already
    // cleared and process the frame now.
    conn->deferred_input.store(true);
    if (conn->busy.load()) {
      // One statement in flight per connection: queued frames wait in the
      // input buffer, except Cancel, which must reach a running statement.
      if (frame.type != FrameType::kCancel) return;
    } else {
      conn->deferred_input.store(false);
    }
    conn->inbuf.erase(0, off);
    metrics_.frames_read->Increment();

    if (Status fault = FaultAt("net.read_frame"); !fault.ok()) {
      // Injected read-path failure: answer with a clean Error frame and
      // close after flush — never a hung or half-written connection.
      SendError(conn, fault);
      conn->close_after_flush.store(true);
      return;
    }

    DispatchFrame(conn, frame);
  }
}

void MsqldServer::ProtocolError(const ConnPtr& conn, const Status& status) {
  metrics_.protocol_errors->Increment();
  SendError(conn, status);
  conn->close_after_flush.store(true);
}

void MsqldServer::Dispatch(const ConnPtr& conn, std::string statement,
                           const AdmissionTicket* ticket,
                           std::function<void()> job) {
  const uint64_t ordinal =
      conn->stats.statements.fetch_add(1, std::memory_order_relaxed) + 1;
  conn->stats.inflight_stmt.store(ordinal, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn->stats.mu);
    conn->stats.statement = std::move(statement);
  }
  conn->stats.state.store(2, std::memory_order_relaxed);
  conn->busy.store(true, std::memory_order_release);
  if (workers_->Submit(std::move(job))) return;
  if (ticket != nullptr) admission_.Release(*conn->session, *ticket);
  conn->busy.store(false, std::memory_order_release);
  SendError(conn, Status(ErrorCode::kCancelled, "server shutting down"));
  conn->close_after_flush.store(true);
}

void MsqldServer::DispatchFrame(const ConnPtr& conn, const Frame& frame) {
  if (frame.type == FrameType::kCancel) {
    if (conn->session != nullptr) conn->session->Cancel();
    return;  // fire-and-forget: the cancelled statement answers
  }
  if (!conn->authenticated) {
    if (frame.type != FrameType::kHello) {
      ProtocolError(conn, Status(ErrorCode::kPermission,
                                 StrCat("expected Hello before ",
                                        FrameTypeName(frame.type))));
      return;
    }
    HandleHello(conn, frame);
    return;
  }
  switch (frame.type) {
    case FrameType::kHello:
      ProtocolError(conn, Status(ErrorCode::kInvalidArgument,
                                 "connection already authenticated"));
      return;
    case FrameType::kQuery: {
      Result<QueryMsg> msg = DecodeQuery(frame.payload);
      if (!msg.ok()) {
        ProtocolError(conn, msg.status());
        return;
      }
      metrics_.queries->Increment();
      AdmissionTicket ticket = OpenTicket(conn, msg.value().timeout_ms);
      std::string sql = msg.value().sql;
      Dispatch(conn, std::move(sql), &ticket,
               [this, conn, m = msg.take(), ticket]() mutable {
                 RunQuery(conn, std::move(m), std::move(ticket));
               });
      return;
    }
    case FrameType::kPrepare: {
      Result<PrepareMsg> msg = DecodePrepare(frame.payload);
      if (!msg.ok()) {
        ProtocolError(conn, msg.status());
        return;
      }
      const uint32_t stmt_id = conn->next_stmt_id++;
      std::string sql = msg.value().sql;
      Dispatch(conn, std::move(sql), nullptr,
               [this, conn, stmt_id, m = msg.take()]() mutable {
                 RunPrepare(conn, stmt_id, std::move(m));
               });
      return;
    }
    case FrameType::kBind:
      HandleBind(conn, frame);
      return;
    case FrameType::kExecute: {
      Result<ExecuteMsg> msg = DecodeExecute(frame.payload);
      if (!msg.ok()) {
        ProtocolError(conn, msg.status());
        return;
      }
      metrics_.queries->Increment();
      AdmissionTicket ticket = OpenTicket(conn, msg.value().timeout_ms);
      std::string text = StrCat("<execute #", msg.value().stmt_id, ">");
      Dispatch(conn, std::move(text), &ticket,
               [this, conn, m = msg.take(), ticket]() mutable {
                 RunExecute(conn, std::move(m), std::move(ticket));
               });
      return;
    }
    case FrameType::kClose:
      HandleClose(conn, frame);
      return;
    case FrameType::kCancel:
    case FrameType::kResultBatch:
    case FrameType::kError:
      break;
  }
  ProtocolError(conn, Status(ErrorCode::kInvalidArgument,
                             StrCat("unexpected ", FrameTypeName(frame.type),
                                    " frame from client")));
}

void MsqldServer::HandleHello(const ConnPtr& conn, const Frame& frame) {
  Result<HelloMsg> msg = DecodeHello(frame.payload);
  if (!msg.ok()) {
    ProtocolError(conn, msg.status());
    return;
  }
  if (msg.value().version != kProtocolVersion) {
    SendError(conn, Status(ErrorCode::kInvalidArgument,
                           StrCat("protocol version mismatch: server speaks ",
                                  kProtocolVersion, ", client sent ",
                                  msg.value().version)));
    conn->close_after_flush.store(true);
    return;
  }
  if (msg.value().user.empty()) {
    SendError(conn, Status(ErrorCode::kPermission,
                           "Hello must name a non-empty user"));
    conn->close_after_flush.store(true);
    return;
  }
  if (options_.max_connections_per_user > 0 &&
      engine_->ActiveSessionsForUser(msg.value().user) >=
          options_.max_connections_per_user) {
    SendError(conn,
              Status(ErrorCode::kResourceExhausted,
                     StrCat("user '", msg.value().user, "' is at its ",
                            options_.max_connections_per_user,
                            "-connection limit")));
    conn->close_after_flush.store(true);
    return;
  }
  conn->user = msg.value().user;
  conn->session = engine_->CreateSessionForUser(conn->user);
  // Stamp the connection identity onto the session so every trace this
  // connection produces carries who asked ("ip:port#connid").
  conn->session->SetPeer(StrCat(conn->peer, "#", conn->stats.id));
  conn->authenticated = true;
  {
    std::lock_guard<std::mutex> lock(conn->stats.mu);
    conn->stats.user = conn->user;
  }
  conn->stats.state.store(1, std::memory_order_relaxed);
  HelloMsg reply;
  reply.version = kProtocolVersion;
  reply.user = "msqld";
  std::string frames;
  AppendFrame(&frames, FrameType::kHello, EncodeHello(reply));
  EnqueueFrames(conn, std::move(frames), 1);
}

void MsqldServer::HandleBind(const ConnPtr& conn, const Frame& frame) {
  Result<BindMsg> msg = DecodeBind(frame.payload);
  if (!msg.ok()) {
    ProtocolError(conn, msg.status());
    return;
  }
  BindMsg& bind = msg.value();
  std::lock_guard<std::mutex> lock(conn->stmts_mu);
  auto it = conn->stmts.find(bind.stmt_id);
  if (it == conn->stmts.end()) {
    SendError(conn, Status(ErrorCode::kInvalidArgument,
                           StrCat("Bind for unknown statement id ",
                                  bind.stmt_id)));
    return;
  }
  const std::vector<TypeKind>& declared = it->second.plan->param_types;
  if (bind.params.size() != declared.size()) {
    SendError(conn,
              Status(ErrorCode::kInvalidArgument,
                     StrCat("statement ", bind.stmt_id, " declares ",
                            declared.size(), " parameter(s), Bind carried ",
                            bind.params.size())));
    return;
  }
  Row coerced;
  coerced.reserve(bind.params.size());
  for (size_t i = 0; i < bind.params.size(); ++i) {
    Result<Value> cast = bind.params[i].CastTo(declared[i]);
    if (!cast.ok()) {
      SendError(conn,
                Status(ErrorCode::kInvalidArgument,
                       StrCat("parameter $", i + 1, " type mismatch: "
                              "expected ", TypeKindName(declared[i]),
                              ", got ", TypeKindName(bind.params[i].kind()))));
      return;
    }
    coerced.push_back(cast.take());
  }
  it->second.params = std::move(coerced);
  it->second.bound = true;
  ResultBatchMsg ack;
  ack.stmt_id = bind.stmt_id;
  SendBatch(conn, ack);
}

void MsqldServer::HandleClose(const ConnPtr& conn, const Frame& frame) {
  Result<CloseMsg> msg = DecodeClose(frame.payload);
  if (!msg.ok()) {
    ProtocolError(conn, msg.status());
    return;
  }
  ResultBatchMsg ack;
  ack.stmt_id = msg.value().stmt_id;
  if (msg.value().stmt_id == 0) {
    // Graceful connection close: ack, flush, close.
    SendBatch(conn, ack);
    conn->close_after_flush.store(true);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(conn->stmts_mu);
    conn->stmts.erase(msg.value().stmt_id);
  }
  SendBatch(conn, ack);
}

AdmissionTicket MsqldServer::OpenTicket(const ConnPtr& conn,
                                        uint32_t timeout_ms) {
  return Admission::Open(*conn->session,
                         timeout_ms > 0 ? static_cast<int64_t>(timeout_ms)
                                        : options_.default_timeout_ms);
}

template <typename Fn>
Result<ResultSet> MsqldServer::RunAdmitted(const ConnPtr& conn,
                                           AdmissionTicket ticket,
                                           const std::string* trace_id,
                                           Fn run) {
  Session& session = *conn->session;
  ticket.dequeued_at = Admission::Clock::now();
  Status admitted = admission_.Admit(session, &ticket);
  if (!admitted.ok()) {
    if (ticket.rate_limited) {
      conn->stats.rate_limited.fetch_add(1, std::memory_order_relaxed);
    }
    admission_.Release(session, ticket);
    return admitted;
  }
  // Per-statement option mutation is safe here: one statement in flight
  // per connection.
  const bool saved_tracing = session.options().enable_tracing;
  if (trace_id != nullptr) {
    session.options().enable_tracing = true;
    session.SetTraceId(*trace_id);
  }
  Result<ResultSet> result = run(ticket);
  if (trace_id != nullptr) {
    session.options().enable_tracing = saved_tracing;
    session.SetTraceId("");
  }
  admission_.Release(session, ticket);
  return result;
}

void MsqldServer::RunQuery(const ConnPtr& conn, QueryMsg msg,
                           AdmissionTicket ticket) {
  const bool want_trace = (msg.trace_flags & kTraceFlagEnabled) != 0;
  Result<ResultSet> result = RunAdmitted(
      conn, std::move(ticket), want_trace ? &msg.trace_id : nullptr,
      [&](const AdmissionTicket& ticket) {
        return conn->session->Query(msg.sql, ticket);
      });
  if (result.ok()) {
    SendResult(conn, 0, result.value(), want_trace);
  } else {
    SendError(conn, result.status());
  }
  FinishStatement(conn);
}

void MsqldServer::RunPrepare(const ConnPtr& conn, uint32_t stmt_id,
                             PrepareMsg msg) {
  Result<PreparedPlanPtr> prepared =
      conn->session->Prepare(msg.sql, msg.param_types);
  if (!prepared.ok()) {
    SendError(conn, prepared.status());
  } else {
    {
      std::lock_guard<std::mutex> lock(conn->stmts_mu);
      StmtEntry entry;
      entry.plan = prepared.value();
      entry.bound = prepared.value()->param_types.empty();
      conn->stmts[stmt_id] = std::move(entry);
    }
    ResultBatchMsg ack;
    ack.stmt_id = stmt_id;
    ack.param_count = static_cast<uint16_t>(prepared.value()->param_count);
    SendBatch(conn, ack);
  }
  FinishStatement(conn);
}

void MsqldServer::RunExecute(const ConnPtr& conn, ExecuteMsg msg,
                             AdmissionTicket ticket) {
  const bool want_trace = (msg.trace_flags & kTraceFlagEnabled) != 0;
  PreparedPlanPtr plan;
  Row params;
  Status setup = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(conn->stmts_mu);
    auto it = conn->stmts.find(msg.stmt_id);
    if (it == conn->stmts.end()) {
      setup = Status(ErrorCode::kInvalidArgument,
                     StrCat("Execute for unknown statement id ",
                            msg.stmt_id));
    } else if (!it->second.bound) {
      setup = Status(ErrorCode::kInvalidArgument,
                     StrCat("statement ", msg.stmt_id,
                            " has unbound parameters (send Bind first)"));
    } else {
      plan = it->second.plan;
      params = it->second.params;
    }
  }
  if (!setup.ok()) {
    admission_.Release(*conn->session, ticket);
    SendError(conn, setup);
    FinishStatement(conn);
    return;
  }
  {
    // /statusz showed "<execute #N>" from dispatch; upgrade it to the
    // prepared statement's actual text now that we have the plan.
    std::lock_guard<std::mutex> lock(conn->stats.mu);
    conn->stats.statement = plan->sql;
  }
  Result<ResultSet> result = RunAdmitted(
      conn, std::move(ticket), want_trace ? &msg.trace_id : nullptr,
      [&](const AdmissionTicket& ticket) {
        Result<ResultSet> r =
            conn->session->QueryPrepared(plan, params, ticket);
        if (r.ok() || r.status().code() != ErrorCode::kCatalog) return r;
        // The catalog moved under the prepared plan. Re-prepare
        // transparently from the stored statement text and retry once; the
        // client never sees the generation bump.
        Result<PreparedPlanPtr> fresh =
            conn->session->Prepare(plan->sql, plan->param_types);
        if (!fresh.ok()) return Result<ResultSet>(fresh.status());
        {
          std::lock_guard<std::mutex> lock(conn->stmts_mu);
          auto it = conn->stmts.find(msg.stmt_id);
          if (it != conn->stmts.end()) it->second.plan = fresh.value();
        }
        return conn->session->QueryPrepared(fresh.value(), params, ticket);
      });
  if (result.ok()) {
    SendResult(conn, msg.stmt_id, result.value(), want_trace);
  } else {
    SendError(conn, result.status());
  }
  FinishStatement(conn);
}

void MsqldServer::FinishStatement(const ConnPtr& conn) {
  conn->stats.inflight_stmt.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn->stats.mu);
    conn->stats.statement.clear();
  }
  if (!conn->dead.load(std::memory_order_acquire)) {
    conn->stats.state.store(1, std::memory_order_relaxed);
  }
  conn->busy.store(false);  // seq_cst: pairs with the handler's defer check
  if (conn->deferred_input.load() ||
      conn->close_after_flush.load(std::memory_order_acquire) ||
      conn->dead.load(std::memory_order_acquire)) {
    WakeHandler(conn->handler_index);
  }
}

bool MsqldServer::Flush(Conn& conn) {
  bool progressed = false;
  while (conn.out_off < conn.outbuf.size() &&
         !conn.dead.load(std::memory_order_acquire)) {
    if (FaultAt("net.write_frame").ok()) {
      const ssize_t put =
          ::send(conn.sock.fd(), conn.outbuf.data() + conn.out_off,
                 conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
      if (put > 0) {
        conn.out_off += static_cast<size_t>(put);
        metrics_.bytes_written->Increment(static_cast<uint64_t>(put));
        conn.stats.bytes_out.fetch_add(static_cast<uint64_t>(put),
                                       std::memory_order_relaxed);
        progressed = true;
        continue;
      }
      if (put < 0 && errno == EINTR) continue;
      if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    }
    // Failed flush. Shutting down the write side makes later sends fail
    // too, so the client reads a clean close, never a frame that follows
    // a discarded one.
    conn.outbuf.clear();
    conn.out_off = 0;
    ::shutdown(conn.sock.fd(), SHUT_WR);
    conn.close_after_flush.store(true);
    if (conn.session != nullptr) conn.session->Cancel();
    break;
  }
  const bool drained = conn.out_off >= conn.outbuf.size();
  if (drained) {
    conn.outbuf.clear();
    conn.out_off = 0;
  }
  if (drained || progressed) conn.write_stalled = false;
  return progressed;
}

void MsqldServer::EnqueueFrames(const ConnPtr& conn, std::string frames,
                                size_t nframes) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->dead.load(std::memory_order_acquire)) return;
    if (conn->outbuf.size() - conn->out_off + frames.size() >
        options_.max_outbuf_bytes) {
      // Slow client: its bounded output buffer is full. Shed the response
      // with a typed error (small, always permitted on top of the cap) and
      // close once — never block a handler or grow without bound.
      metrics_.slow_client_sheds->Increment();
      if (!conn->close_after_flush.exchange(true)) {
        AppendFrame(&conn->outbuf, FrameType::kError,
                    EncodeError(ErrorFromStatus(Status(
                        ErrorCode::kResourceExhausted,
                        StrCat("response shed: output buffer over ",
                               options_.max_outbuf_bytes,
                               " bytes (slow client)")))));
        metrics_.frames_written->Increment();
        metrics_.errors_sent->Increment();
      }
    } else {
      conn->outbuf.append(frames);
      metrics_.frames_written->Increment(nframes);
      // Flush inline so the common request/response cycle costs one
      // handler wakeup (the read), not two.
      Flush(*conn);
      if (conn->out_off >= conn->outbuf.size() &&
          !conn->close_after_flush.load(std::memory_order_acquire)) {
        return;  // everything is on the wire; the handler has nothing to do
      }
    }
  }
  WakeHandler(conn->handler_index);
}

void MsqldServer::SendError(const ConnPtr& conn, const Status& status) {
  metrics_.errors_sent->Increment();
  conn->stats.errors.fetch_add(1, std::memory_order_relaxed);
  std::string frames;
  AppendFrame(&frames, FrameType::kError,
              EncodeError(ErrorFromStatus(status)));
  EnqueueFrames(conn, std::move(frames), 1);
}

void MsqldServer::SendBatch(const ConnPtr& conn, const ResultBatchMsg& msg) {
  std::string frames;
  AppendFrame(&frames, FrameType::kResultBatch, EncodeResultBatch(msg));
  EnqueueFrames(conn, std::move(frames), 1);
}

void MsqldServer::SendResult(const ConnPtr& conn, uint32_t stmt_id,
                             const ResultSet& result, bool with_footer) {
  const size_t batch_rows = std::max<size_t>(1, options_.result_batch_rows);
  const std::vector<Row>& rows = result.rows();

  ResultBatchMsg msg;
  msg.stmt_id = stmt_id;
  msg.kind = 1;
  msg.columns = result.column_names();
  msg.types.reserve(result.column_types().size());
  for (const DataType& t : result.column_types()) {
    msg.types.push_back(t.kind);
  }

  std::string frames;
  size_t nframes = 0;
  size_t start = 0;
  do {
    const size_t end = std::min(rows.size(), start + batch_rows);
    msg.rows.assign(rows.begin() + start, rows.begin() + end);
    msg.last = end >= rows.size();
    if (msg.last) {
      msg.total_rows = rows.size();
      if (result.stats() != nullptr) {
        const QueryStats& stats = *result.stats();
        msg.total_us = static_cast<uint64_t>(stats.total_us);
        msg.plan_cache = static_cast<uint8_t>(stats.plan_cache);
        if (with_footer) {
          msg.has_footer = 1;
          msg.admission_wait_us =
              static_cast<uint32_t>(stats.admission_wait_us);
          msg.queue_wait_us = static_cast<uint32_t>(stats.queue_wait_us);
          msg.parse_us = static_cast<uint32_t>(stats.parse_us);
          msg.bind_us = static_cast<uint32_t>(stats.bind_us);
          msg.measure_expand_us =
              static_cast<uint32_t>(stats.measure_expand_us);
          msg.plan_us = static_cast<uint32_t>(stats.plan_us);
          msg.execute_us = static_cast<uint32_t>(stats.execute_us);
          msg.render_us = static_cast<uint32_t>(stats.render_us);
          msg.guard_bytes = static_cast<uint64_t>(stats.bytes_charged);
        }
      }
    }
    AppendFrame(&frames, FrameType::kResultBatch, EncodeResultBatch(msg));
    ++nframes;
    start = end;
  } while (start < rows.size());
  EnqueueFrames(conn, std::move(frames), nframes);
}

void MsqldServer::CloseConn(const ConnPtr& conn) {
  if (conn->dead.exchange(true)) return;
  conn->stats.state.store(3, std::memory_order_relaxed);
  {
    // Under out_mu: a worker's Flush never sends on a closed (or reused) fd.
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->sock.Close();
  }
  metrics_.connections_active->Add(-1.0);
  active_conns_.fetch_sub(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_by_id_.erase(conn->stats.id);
}

}  // namespace msql::net
