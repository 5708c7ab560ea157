#ifndef MSQL_NET_SERVER_H_
#define MSQL_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "net/admin.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "runtime/admission.h"
#include "runtime/session.h"
#include "runtime/thread_pool.h"

// The msqld network front end (docs/NETWORKING.md): a TCP server speaking
// the length-prefixed frame protocol of net/wire.h. One acceptor thread
// distributes connections round-robin over N handler threads, each running
// an epoll event loop over its connections with non-blocking sockets and
// bounded input/output buffers; statement execution happens on a separate
// worker pool so a long query never wedges an event loop. Each
// authenticated connection owns one Engine session
// (Engine::CreateSessionForUser), giving it the engine's full per-session
// machinery: cancellation scope, option snapshot, definer security.
//
// Robustness posture:
//  - Wire statements go through the engine's one admission path
//    (runtime/admission.h) on the statement worker: a flooding user
//    exhausts only its own token bucket, waits bounded, then is shed with
//    kResourceExhausted. The cancel token is registered at frame dispatch,
//    so a Cancel frame or a closed connection reaches a statement still
//    waiting for a worker or in admission.
//  - Deadlines propagate from the wire: Query/Execute carry timeout_ms;
//    the budget starts at frame dispatch on the handler thread, so worker
//    queue time and admission wait charge against it (kDeadlineExceeded
//    once elapsed).
//  - Slow or half-closed clients cannot wedge a handler: output buffers
//    are size-capped (overflow => kResourceExhausted Error + close), and a
//    connection whose pending output makes no progress for
//    write_timeout_ms is dropped.
//  - Cancel frames bypass the per-connection request queue, so an
//    in-flight statement can be cancelled mid-execution.
namespace msql::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = pick an ephemeral port (see MsqldServer::port)
  int num_handler_threads = 2;
  int num_worker_threads = 4;  // statement-execution pool
  int listen_backlog = 512;
  size_t max_connections = 4096;
  int max_connections_per_user = 0;  // 0 = unlimited
  size_t max_inbuf_bytes = 1u << 20;
  size_t max_outbuf_bytes = 8u << 20;
  // Pending output making no progress for this long drops the connection
  // (slow-client shed). <= 0 disables.
  int64_t write_timeout_ms = 10000;
  size_t result_batch_rows = 1024;  // rows per ResultBatch frame
  // Statement admission: per-user token bucket and bounded wait.
  AdmissionOptions admission;
  // Applied when a Query/Execute frame carries timeout_ms == 0.
  int64_t default_timeout_ms = 0;
  // Admin HTTP endpoint (/metrics, /healthz, /statusz, /tracez) on the
  // same host; < 0 disables it, 0 picks an ephemeral port
  // (MsqldServer::admin_port after Start).
  int admin_port = -1;
};

class MsqldServer {
 public:
  MsqldServer(Engine* engine, ServerOptions options);
  ~MsqldServer();

  MsqldServer(const MsqldServer&) = delete;
  MsqldServer& operator=(const MsqldServer&) = delete;

  // Binds, listens and starts the acceptor + handler threads.
  Status Start();

  // Stops accepting, cancels in-flight statements, closes every
  // connection and joins all threads. Idempotent.
  void Stop();

  // The bound port (after Start); useful with options.port == 0.
  uint16_t port() const { return port_; }
  // The admin endpoint's bound port (after Start); 0 when disabled.
  uint16_t admin_port() const {
    return admin_ != nullptr ? admin_->port() : 0;
  }
  const ServerOptions& options() const { return options_; }
  int active_connections() const {
    return active_conns_.load(std::memory_order_acquire);
  }

  // One connection's live state as read by /statusz and
  // msql_system.connections.
  struct ConnInfo {
    uint64_t id = 0;
    std::string peer;
    std::string user;
    std::string state;  // "handshake" | "idle" | "busy" | "closing"
    std::string statement;  // SQL in flight, empty when idle
    uint64_t inflight_stmt = 0;  // per-conn ordinal of the busy statement
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t outbuf_bytes = 0;  // response bytes awaiting the socket
    uint64_t statements = 0;
    uint64_t errors = 0;
    uint64_t rate_limited = 0;
  };

  // Snapshot of every open connection, without stopping handler or worker
  // threads (counters are relaxed atomics; strings take a short per-conn
  // lock).
  std::vector<ConnInfo> SnapshotConnections() const;

 private:
  struct StmtEntry {
    PreparedPlanPtr plan;
    Row params;
    bool bound = false;
  };

  // Live per-connection statistics behind ConnInfo. Its own cache line so
  // the hot-path relaxed increments (handler read loop, worker enqueue)
  // never false-share with the connection's buffers; snapshots read the
  // atomics without coordination and take `mu` only for the strings.
  struct alignas(64) ConnStats {
    uint64_t id = 0;    // immutable after accept
    std::string peer;   // immutable after accept
    // 0=handshake 1=idle 2=busy 3=closing
    std::atomic<int> state{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> statements{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> rate_limited{0};
    // Ordinal (== statements at dispatch) of the statement in flight;
    // 0 when idle.
    std::atomic<uint64_t> inflight_stmt{0};

    std::mutex mu;  // guards the mutable strings below
    std::string user;
    std::string statement;  // SQL in flight
  };

  // One client connection. The handler thread owns parsing, reads, the
  // epoll registration and closing the fd; worker threads append to the
  // (locked) output buffer, flush it, and flip `busy` back off.
  struct Conn : std::enable_shared_from_this<Conn> {
    Socket sock;
    size_t handler_index = 0;
    std::string peer;  // "ip:port" for diagnostics

    // Handler-thread state (no lock needed).
    std::string inbuf;
    bool authenticated = false;
    bool saw_eof = false;
    uint32_t next_stmt_id = 1;
    bool epoll_registered = false;  // fd present in the handler's epoll set
    bool epoll_out = false;         // EPOLLOUT currently requested

    // Prepared statements; guarded: workers insert Prepare results while
    // the handler serves Bind/Execute/Close lookups.
    std::mutex stmts_mu;
    std::unordered_map<uint32_t, StmtEntry> stmts;

    // Output buffer and write-stall timer; guarded (workers enqueue and
    // flush result frames). CloseConn closes `sock` under it too.
    std::mutex out_mu;
    std::string outbuf;
    size_t out_off = 0;
    bool write_stalled = false;
    std::chrono::steady_clock::time_point write_stall_since{};

    std::atomic<bool> busy{false};
    std::atomic<bool> close_after_flush{false};
    std::atomic<bool> dead{false};
    // Set by the handler when it defers a complete frame because a
    // statement is in flight; tells FinishStatement the handler must be
    // woken to drain the input buffer. Both sides use seq_cst so one of
    // them always observes the other's store (no missed wakeup).
    std::atomic<bool> deferred_input{false};

    SessionPtr session;
    std::string user;

    ConnStats stats;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  struct Handler {
    std::thread thread;
    int epfd = -1;        // epoll set: O(ready) wakeups however many conns
    int wake_read = -1;   // self-pipe: workers & acceptor wake the loop
    int wake_write = -1;
    std::mutex adopt_mu;
    std::vector<ConnPtr> adopting;
  };

  struct NetMetrics {
    obs::Counter* connections = nullptr;
    obs::Counter* frames_read = nullptr;
    obs::Counter* frames_written = nullptr;
    obs::Counter* bytes_read = nullptr;
    obs::Counter* bytes_written = nullptr;
    obs::Counter* queries = nullptr;
    obs::Counter* errors_sent = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* write_timeouts = nullptr;
    obs::Counter* slow_client_sheds = nullptr;
    obs::Gauge* connections_active = nullptr;
    // Refreshed at scrape time from the connection registry.
    obs::Gauge* conn_busy = nullptr;
    obs::Gauge* conn_idle = nullptr;
    obs::Gauge* conn_outbuf_bytes = nullptr;
  };

  void AcceptLoop();
  void HandlerLoop(Handler* handler);
  // One servicing pass over a connection: read newly arrived bytes (when
  // `revents` says there are any) through `scratch`, up to its size per
  // read(); parse and dispatch frames; Flush pending output; enforce the
  // write-stall timeout; close a drained close-after-flush connection; and
  // keep EPOLLOUT requested exactly while output is pending. Called with
  // revents=0 from periodic maintenance scans.
  void ServiceConn(Handler* handler, const ConnPtr& conn, uint32_t revents,
                   std::span<char> scratch,
                   std::chrono::steady_clock::time_point now);
  void WakeHandler(size_t index);

  // Frame handling (handler thread).
  void ProcessInput(const ConnPtr& conn);
  void DispatchFrame(const ConnPtr& conn, const Frame& frame);
  void HandleHello(const ConnPtr& conn, const Frame& frame);
  void HandleBind(const ConnPtr& conn, const Frame& frame);
  void HandleClose(const ConnPtr& conn, const Frame& frame);
  // A malformed or out-of-order frame: counts it in
  // msql_net_protocol_errors_total, answers with an Error frame and closes
  // the connection after the flush.
  void ProtocolError(const ConnPtr& conn, const Status& status);
  // Starts one Query/Prepare/Execute on the worker pool: marks the
  // connection busy with `statement` (the /statusz text) and submits
  // `job`. Query/Execute pass the admission ticket they opened at dispatch
  // (and captured in `job`); Prepare passes none. When the pool refuses
  // the job (shutdown) the ticket is released and the client gets
  // kCancelled, then a close.
  void Dispatch(const ConnPtr& conn, std::string statement,
                const AdmissionTicket* ticket, std::function<void()> job);

  // Opens a Query/Execute statement's admission ticket on the handler
  // thread at frame dispatch (budget: the frame's timeout_ms, else
  // default_timeout_ms): its deadline counts from here, and a Cancel frame
  // or a connection close reaches it while it waits for a worker.
  AdmissionTicket OpenTicket(const ConnPtr& conn, uint32_t timeout_ms);

  // Worker-side statement execution. Query/Execute carry the ticket opened
  // at dispatch.
  void RunQuery(const ConnPtr& conn, QueryMsg msg, AdmissionTicket ticket);
  void RunPrepare(const ConnPtr& conn, uint32_t stmt_id, PrepareMsg msg);
  void RunExecute(const ConnPtr& conn, ExecuteMsg msg,
                  AdmissionTicket ticket);
  // Admits one Query/Execute statement, runs `run` with its ticket under
  // the client's trace context when `trace_id` is set, then releases the
  // ticket.
  template <typename Fn>
  Result<ResultSet> RunAdmitted(const ConnPtr& conn, AdmissionTicket ticket,
                                const std::string* trace_id, Fn run);
  // Returns the connection to idle (the counterpart of Dispatch), clears
  // `busy`, and wakes the handler only if it has work left: deferred
  // input, a pending close (a failed flush sets one), or a dead conn to
  // reap. The common request/response cycle finishes without touching the
  // handler, because EnqueueFrames already flushed the response.
  void FinishStatement(const ConnPtr& conn);

  // Output path. EnqueueFrames appends whole pre-encoded frames to the
  // connection's bounded output buffer and Flushes it on the calling
  // thread; only output the socket would not take (or a pending close)
  // wakes the handler, whose ServiceConn flushes the rest on EPOLLOUT.
  // Overflow sheds the client with kResourceExhausted. SendError/SendBatch
  // are convenience encoders on top of it.
  void EnqueueFrames(const ConnPtr& conn, std::string frames, size_t nframes);
  // The one writer of connection output, run under out_mu by the handler
  // and by workers: sends pending bytes until the socket would block and
  // returns whether any went out. On a failed flush (a send error or an
  // injected net.write_frame fault) it discards the pending output, shuts
  // the socket's write side, cancels the session and marks the connection
  // close-after-flush; the handler then closes the fd.
  bool Flush(Conn& conn);
  void SendError(const ConnPtr& conn, const Status& status);
  void SendBatch(const ConnPtr& conn, const ResultBatchMsg& msg);
  // `with_footer` appends the server-side span summary (per-phase µs,
  // plan-cache outcome, guard bytes) to the final batch — only when the
  // client requested tracing for this statement.
  void SendResult(const ConnPtr& conn, uint32_t stmt_id,
                  const ResultSet& result, bool with_footer = false);

  void CloseConn(const ConnPtr& conn);

  // Admin endpoint plumbing: starts/stops the AdminServer and registers
  // the msql_system.connections provider with the engine.
  Status StartAdmin();
  std::string StatuszJson() const;
  std::string TracezJson(int64_t min_ms) const;

  Engine* engine_;
  ServerOptions options_;
  NetMetrics metrics_;
  uint16_t port_ = 0;

  Socket listener_;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Handler>> handlers_;
  std::unique_ptr<ThreadPool> workers_;
  Admission admission_;

  std::unique_ptr<AdminServer> admin_;

  // Connection registry for /statusz, the msql_net_conn_* gauges and
  // msql_system.connections. Mutated at connection rate (accept/close),
  // read at scrape rate — a plain locked map is plenty.
  mutable std::mutex conns_mu_;
  std::unordered_map<uint64_t, ConnPtr> conns_by_id_;
  std::atomic<uint64_t> next_conn_id_{1};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> active_conns_{0};
  std::atomic<size_t> next_handler_{0};
};

}  // namespace msql::net

#endif  // MSQL_NET_SERVER_H_
