#ifndef MSQL_RUNTIME_SCHEDULER_H_
#define MSQL_RUNTIME_SCHEDULER_H_

#include <cstddef>
#include <future>
#include <string>

#include "engine/engine.h"
#include "runtime/admission.h"
#include "runtime/session.h"
#include "runtime/thread_pool.h"

namespace msql {

struct SchedulerOptions {
  // Worker threads executing admitted queries.
  int num_threads = 4;
  // Admitted-but-unfinished statement cap across all sessions; submissions
  // beyond it wait (bounded) for a slot, then are shed with
  // kResourceExhausted (load shedding, not unbounded queueing). 0 is a
  // zero-capacity queue that sheds every submission — tests use it to
  // force the rejection path deterministically.
  size_t max_pending = 256;
  // Per-session concurrent statement cap.
  int max_inflight_per_session = 8;
  // Wait budget and per-user rate limit, as for msqld.
  AdmissionOptions admission;
};

// Admission-controlled concurrent query execution: a fixed worker pool fed
// by Submit(), which admits a statement (runtime/admission.h: the session's
// timeout_ms deadline stamped at submission, the user's rate-limit bucket,
// a bounded wait for a pending + per-session slot) and then enqueues it.
// Cancellation composes at every stage: Session::Cancel() and
// Engine::CancelAll() reach waiting and queued-but-unstarted submissions,
// which unwind with kCancelled without executing, as well as running
// queries through the per-query tokens / engine cancel generation. Queue
// wait and execution charge the one deadline stamped at submission.
class QueryScheduler {
 public:
  using QueryFuture = std::future<Result<ResultSet>>;

  explicit QueryScheduler(SchedulerOptions options = {});
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  // Admits `sql` for execution on `session`'s behalf. On admission the
  // returned future eventually holds the statement's result (possibly an
  // error status); on shed the Result carries kResourceExhausted /
  // kDeadlineExceeded, on cancellation during the wait kCancelled. Clients
  // retry on Status::IsRetryable() with their own backoff.
  Result<QueryFuture> Submit(const SessionPtr& session, std::string sql);

  // Blocks until every admitted statement has finished.
  void Drain() { admission_.Drain(); }

  size_t pending() const { return admission_.pending(); }
  const SchedulerOptions& options() const { return options_; }

 private:
  SchedulerOptions options_;
  Admission admission_;
  ThreadPool pool_;  // last member: workers stop before the rest dies
};

}  // namespace msql

#endif  // MSQL_RUNTIME_SCHEDULER_H_
