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
#include "runtime/rate_limiter.h"

namespace msql {

// Everything the scheduler hands a session about one admitted statement:
// how long admission and queueing took (for the trace), the cancel token it
// registered at submission, and the absolute deadline stamped when the
// statement was submitted (docs/CONCURRENCY.md).
struct ScheduledRun {
  int64_t queue_wait_us = 0;      // worker-pickup latency after admission
  int64_t admission_wait_us = 0;  // bounded-wait admission latency
  CancelTokenPtr token;           // registered with the session at submit
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  uint64_t cancel_generation = 0;  // Engine::CancelAll generation at submit
};

// One client's connection to an Engine: an options snapshot, a user, and a
// cancellation scope. Created with Engine::CreateSession(). Many sessions
// may issue queries concurrently (each Session::Query call is safe against
// every other session and against engine-level DDL/DML); a single session
// may also run several queries at once through QueryScheduler.
//
// `options()` / `SetUser` configure this session only, and — like their
// engine-level counterparts — must not be called while this session has a
// query in flight. The admission rate limit
// (EngineOptions::admission_rate_limit_qps) is the exception: it is
// snapshotted into the session's token bucket at CreateSession, so set it
// on the engine's options before creating the session.
class Session {
 public:
  // Session lifetime is tracked by the engine (msql_sessions_active).
  ~Session();

  // Runs one statement as this session.
  Result<ResultSet> Query(const std::string& sql);

  // Runs one or more ';'-separated statements, discarding row results.
  Status Execute(const std::string& sql);

  // Prepares a single SELECT with declared positional parameter types
  // (Engine::PrepareSelect as this session's user; published to the
  // engine's plan cache when enable_plan_cache is set).
  Result<PreparedPlanPtr> Prepare(const std::string& sql,
                                  std::vector<TypeKind> param_types);

  // Executes a prepared plan with `params` bound to its `?` placeholders.
  Result<ResultSet> QueryPrepared(const PreparedPlanPtr& prepared,
                                  const Row& params);

  // Cancels every statement currently executing on this session (from any
  // thread) — including statements still waiting in scheduler admission,
  // which unwind with kCancelled without executing. Statements started
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

  // Queries currently executing on this session (scheduler admission).
  int inflight() const { return inflight_.load(std::memory_order_acquire); }

 private:
  friend class Engine;
  friend class QueryScheduler;

  Session(Engine* engine, uint64_t id, EngineOptions options,
          std::string user)
      : engine_(engine),
        id_(id),
        options_(std::move(options)),
        user_(std::move(user)) {
    rate_limiter_.Configure(options_.admission_rate_limit_qps,
                            options_.admission_rate_limit_burst);
  }

  // Builds the per-query context with a fresh cancel token, registered so
  // Cancel() can reach it.
  QueryContext MakeContext(CancelTokenPtr* token_out);

  // Creates and registers a token without building a context yet: the
  // scheduler acquires the token at submission time so Cancel() reaches
  // statements still waiting for admission.
  CancelTokenPtr AcquireToken();
  void ReleaseToken(const CancelTokenPtr& token);

  // Query() as dispatched by QueryScheduler: runs under the already
  // registered token and carries the admission/queue waits (traced as
  // spans) and the submission-time deadline into the query context.
  Result<ResultSet> QueryScheduled(const std::string& sql,
                                   const ScheduledRun& run);

  Engine* engine_;
  uint64_t id_;
  EngineOptions options_;
  std::string user_;
  std::string peer_;
  std::string trace_id_;

  // Admission token bucket; disabled unless admission_rate_limit_qps > 0.
  RateLimiter rate_limiter_;

  std::mutex tokens_mu_;
  std::vector<CancelTokenPtr> active_tokens_;

  std::atomic<int> inflight_{0};
};

}  // namespace msql

#endif  // MSQL_RUNTIME_SESSION_H_
