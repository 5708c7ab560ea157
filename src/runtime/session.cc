#include "runtime/session.h"

#include <algorithm>

namespace msql {

Session::~Session() { engine_->NoteSessionDestroyed(user_); }

CancelTokenPtr Session::AcquireToken() {
  auto token = std::make_shared<CancelToken>();
  std::lock_guard<std::mutex> lock(tokens_mu_);
  active_tokens_.push_back(token);
  return token;
}

void Session::ReleaseToken(const CancelTokenPtr& token) {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  active_tokens_.erase(
      std::remove(active_tokens_.begin(), active_tokens_.end(), token),
      active_tokens_.end());
}

template <typename Fn>
auto Session::Run(const AdmissionTicket& ticket, Fn fn) {
  QueryContext ctx;
  ctx.options = options_;
  ctx.user = user_;
  ctx.session_id = id_;
  ctx.peer = peer_;
  ctx.trace_id = trace_id_;
  using R = decltype(fn(ctx));
  if (ticket.token == nullptr) {
    ctx.cancel = AcquireToken();
    R result = fn(ctx);
    ReleaseToken(ctx.cancel);
    return result;
  }
  // An admitted statement may have sat in a worker queue since admission:
  // a cancel, CancelAll or deadline that landed meanwhile ends it before a
  // single operator runs. Admission releases the ticket's token.
  if (ticket.token->cancelled() ||
      engine_->cancel_generation_->load(std::memory_order_relaxed) !=
          ticket.cancel_generation) {
    return R(Status(ErrorCode::kCancelled,
                    "query cancelled after admission, before it started"));
  }
  if (ticket.has_deadline &&
      std::chrono::steady_clock::now() >= ticket.deadline) {
    return R(Status(ErrorCode::kDeadlineExceeded,
                    "query deadline exceeded after admission, before it "
                    "started"));
  }
  ctx.cancel = ticket.token;
  ctx.admission_start = ticket.admission_start;
  ctx.admitted_at = ticket.admitted_at;
  ctx.queued_at = ticket.queued_at;
  ctx.dequeued_at = ticket.dequeued_at;
  ctx.has_deadline = ticket.has_deadline;
  ctx.deadline = ticket.deadline;
  ctx.cancel_generation = ticket.cancel_generation;
  return fn(ctx);
}

Result<ResultSet> Session::Query(const std::string& sql,
                                 const AdmissionTicket& ticket) {
  return Run(ticket, [&](const QueryContext& ctx) {
    return engine_->QueryWith(sql, ctx);
  });
}

Result<PreparedPlanPtr> Session::Prepare(const std::string& sql,
                                         std::vector<TypeKind> param_types) {
  return Run({}, [&](const QueryContext& ctx) {
    return engine_->PrepareSelect(sql, std::move(param_types), ctx);
  });
}

Result<ResultSet> Session::QueryPrepared(const PreparedPlanPtr& prepared,
                                         const Row& params,
                                         const AdmissionTicket& ticket) {
  return Run(ticket, [&](const QueryContext& ctx) {
    return engine_->QueryPlanned(prepared, params, ctx);
  });
}

Status Session::Execute(const std::string& sql) {
  return Run({}, [&](const QueryContext& ctx) {
    return engine_->ExecuteWith(sql, ctx);
  });
}

void Session::Cancel() {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  for (const CancelTokenPtr& token : active_tokens_) token->Cancel();
}

}  // namespace msql
