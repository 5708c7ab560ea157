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

QueryContext Session::MakeContext(CancelTokenPtr* token_out) {
  CancelTokenPtr token = AcquireToken();
  *token_out = token;
  QueryContext ctx;
  ctx.options = options_;
  ctx.user = user_;
  ctx.cancel = std::move(token);
  ctx.session_id = id_;
  ctx.peer = peer_;
  ctx.trace_id = trace_id_;
  return ctx;
}

void Session::ReleaseToken(const CancelTokenPtr& token) {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  active_tokens_.erase(
      std::remove(active_tokens_.begin(), active_tokens_.end(), token),
      active_tokens_.end());
}

Result<ResultSet> Session::Query(const std::string& sql) {
  CancelTokenPtr token;
  QueryContext ctx = MakeContext(&token);
  Result<ResultSet> result = engine_->QueryWith(sql, ctx);
  ReleaseToken(token);
  return result;
}

Result<ResultSet> Session::QueryScheduled(const std::string& sql,
                                          const ScheduledRun& run) {
  QueryContext ctx;
  ctx.options = options_;
  ctx.user = user_;
  ctx.cancel = run.token;  // registered by the scheduler at submission
  ctx.session_id = id_;
  ctx.peer = peer_;
  ctx.trace_id = trace_id_;
  ctx.queue_wait_us = run.queue_wait_us;
  ctx.admission_wait_us = run.admission_wait_us;
  ctx.has_deadline = run.has_deadline;
  ctx.deadline = run.deadline;
  ctx.cancel_generation = run.cancel_generation;
  Result<ResultSet> result = engine_->QueryWith(sql, ctx);
  ReleaseToken(run.token);
  return result;
}

Result<PreparedPlanPtr> Session::Prepare(const std::string& sql,
                                         std::vector<TypeKind> param_types) {
  CancelTokenPtr token;
  QueryContext ctx = MakeContext(&token);
  Result<PreparedPlanPtr> result =
      engine_->PrepareSelect(sql, std::move(param_types), ctx);
  ReleaseToken(token);
  return result;
}

Result<ResultSet> Session::QueryPrepared(const PreparedPlanPtr& prepared,
                                         const Row& params) {
  CancelTokenPtr token;
  QueryContext ctx = MakeContext(&token);
  Result<ResultSet> result = engine_->QueryPlanned(prepared, params, ctx);
  ReleaseToken(token);
  return result;
}

Status Session::Execute(const std::string& sql) {
  CancelTokenPtr token;
  QueryContext ctx = MakeContext(&token);
  Status status = engine_->ExecuteWith(sql, ctx);
  ReleaseToken(token);
  return status;
}

void Session::Cancel() {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  for (const CancelTokenPtr& token : active_tokens_) token->Cancel();
}

}  // namespace msql
