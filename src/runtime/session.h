#ifndef MSQL_RUNTIME_SESSION_H_
#define MSQL_RUNTIME_SESSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace msql {

// What admission (runtime/admission.h) hands the engine about one
// statement: the cancel token registered when the ticket was opened, the
// absolute deadline, the Engine::CancelAll generation at opening, and when
// the statement waited (docs/CONCURRENCY.md). It waits for a worker before
// admission under msqld and after it under QueryScheduler; traces render
// each wait where it happened. A default ticket means "not admitted": the
// statement gets a fresh token and the session's timeout_ms.
struct AdmissionTicket {
  using TimePoint = std::chrono::steady_clock::time_point;
  CancelTokenPtr token;
  bool has_deadline = false;
  TimePoint deadline{};
  uint64_t cancel_generation = 0;
  TimePoint admission_start{};  // Admit() began waiting
  TimePoint admitted_at{};      // Admit() returned
  TimePoint queued_at{};        // handed to a worker queue
  TimePoint dequeued_at{};      // picked up by a worker
  // Set when Admit() reserved a slot, which Release() returns.
  bool holds_slot = false;
  // Set when admission shed the statement at the rate-limit gate.
  bool rate_limited = false;
};

// One client's connection to an Engine: an options snapshot, a user, and a
// cancellation scope. Created with Engine::CreateSession(). Many sessions
// may issue queries concurrently (each Session::Query call is safe against
// every other session and against engine-level DDL/DML); a single session
// may also run several queries at once through QueryScheduler.
//
// `options()` / `SetUser` configure this session only, and — like their
// engine-level counterparts — must not be called while this session has a
// query in flight.
class Session {
 public:
  // Session lifetime is tracked by the engine (msql_sessions_active).
  ~Session();

  // Runs one statement as this session. An admitted statement passes its
  // ticket (Admission::Admit): its token, deadline, CancelAll generation and
  // timeline carry into the query, and a cancel, CancelAll or deadline that
  // landed since admission ends it before it starts.
  Result<ResultSet> Query(const std::string& sql,
                          const AdmissionTicket& ticket = {});

  // Runs one or more ';'-separated statements, discarding row results.
  Status Execute(const std::string& sql);

  // Prepares a single SELECT with declared positional parameter types
  // (Engine::PrepareSelect as this session's user; published to the
  // engine's plan cache when enable_plan_cache is set).
  Result<PreparedPlanPtr> Prepare(const std::string& sql,
                                  std::vector<TypeKind> param_types);

  // Executes a prepared plan with `params` bound to its `?` placeholders;
  // `ticket` as for Query.
  Result<ResultSet> QueryPrepared(const PreparedPlanPtr& prepared,
                                  const Row& params,
                                  const AdmissionTicket& ticket = {});

  // Cancels every statement currently executing on this session (from any
  // thread) — including statements still waiting in admission, which
  // unwind with kCancelled without executing. Statements started
  // after the call are unaffected.
  void Cancel();

  EngineOptions& options() { return options_; }
  void SetUser(std::string user) { user_ = std::move(user); }
  const std::string& user() const { return user_; }
  uint64_t id() const { return id_; }
  Engine& engine() { return *engine_; }

  // Connection identity ("ip:port#connid"), set once by the server after
  // Hello; copied onto every statement's trace. Same single-threaded
  // contract as options()/SetUser.
  void SetPeer(std::string peer) { peer_ = std::move(peer); }
  const std::string& peer() const { return peer_; }

  // Client-supplied correlation id for subsequent statements (wire trace
  // context); the server sets it before a traced statement and clears it
  // after. Same single-threaded contract as options()/SetUser.
  void SetTraceId(std::string id) { trace_id_ = std::move(id); }
  const std::string& trace_id() const { return trace_id_; }

  // Admitted statements of this session not yet released.
  int inflight() const { return inflight_.load(std::memory_order_acquire); }

 private:
  friend class Engine;
  friend class Admission;

  Session(Engine* engine, uint64_t id, EngineOptions options,
          std::string user)
      : engine_(engine),
        id_(id),
        options_(std::move(options)),
        user_(std::move(user)) {}

  // Registered tokens are what Cancel() reaches; Admission::Open registers
  // one before the statement queues or waits.
  CancelTokenPtr AcquireToken();
  void ReleaseToken(const CancelTokenPtr& token);

  // The one per-statement context builder: runs `fn(ctx)` under the
  // ticket's token, deadline and waits, or under a fresh token registered
  // for the call when the ticket is a default one.
  template <typename Fn>
  auto Run(const AdmissionTicket& ticket, Fn fn);

  Engine* engine_;
  uint64_t id_;
  EngineOptions options_;
  std::string user_;
  std::string peer_;
  std::string trace_id_;

  std::mutex tokens_mu_;
  std::vector<CancelTokenPtr> active_tokens_;

  std::atomic<int> inflight_{0};
};

}  // namespace msql

#endif  // MSQL_RUNTIME_SESSION_H_
