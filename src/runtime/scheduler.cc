#include "runtime/scheduler.h"

#include <chrono>
#include <memory>

namespace msql {

QueryScheduler::QueryScheduler(SchedulerOptions options)
    : options_(options),
      admission_(options.admission,
                 AdmissionSlots{options.max_pending,
                                options.max_inflight_per_session}),
      pool_(options.num_threads) {}

QueryScheduler::~QueryScheduler() {
  Drain();
  pool_.Shutdown();
}

Result<QueryScheduler::QueryFuture> QueryScheduler::Submit(
    const SessionPtr& session, std::string sql) {
  AdmissionTicket ticket =
      Admission::Open(*session, session->options().timeout_ms);
  if (Status admitted = admission_.Admit(*session, &ticket); !admitted.ok()) {
    admission_.Release(*session, ticket);
    return admitted;
  }

  ticket.queued_at = Admission::Clock::now();
  obs::Histogram* queue_wait_ms =
      admission_.MetricsFor(session->engine()).queue_wait_ms;
  auto task = std::make_shared<std::packaged_task<Result<ResultSet>()>>(
      [session, sql = std::move(sql), ticket,
       queue_wait_ms]() mutable -> Result<ResultSet> {
        ticket.dequeued_at = Admission::Clock::now();
        queue_wait_ms->Observe(
            std::chrono::duration<double, std::milli>(ticket.dequeued_at -
                                                      ticket.queued_at)
                .count());
        return session->Query(sql, ticket);
      });
  QueryFuture future = task->get_future();

  if (!pool_.Submit([this, session, task, ticket] {
        (*task)();
        admission_.Release(*session, ticket);
      })) {
    admission_.Release(*session, ticket);
    return Status(ErrorCode::kCancelled, "scheduler is shut down");
  }
  return future;
}

}  // namespace msql
