#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "exec/agg_eval.h"
#include "exec/vector_eval.h"
#include "measure/cse.h"
#include "measure/grouped.h"
#include "plan/rewrite.h"
#include "runtime/fingerprint.h"

namespace msql {

namespace {

// Evaluates `exprs` once per row of `rel`, the key input of GroupRowsByKey:
// as whole columns into *cols when every expression has a kernel, else as
// row tuples into *rows (rows[i] for rel's row i). No expressions, no keys.
Status EvalGroupKeys(const std::vector<BoundExprPtr>& exprs,
                     const Relation& rel, const RowStack& outer,
                     ExecState* state, std::vector<ColumnPtr>* cols,
                     std::vector<Row>* rows) {
  if (exprs.empty()) return Status::Ok();
  const int64_t n = static_cast<int64_t>(rel.rows.size());
  if (outer.empty() && VectorizedGate(state) == VectorGate::kOk) {
    auto arena = std::make_shared<Arena>();
    for (const auto& e : exprs) {
      MSQL_ASSIGN_OR_RETURN(ColumnPtr col, EvalVector(*e, rel, arena, state));
      if (col == nullptr) {
        cols->clear();
        break;
      }
      cols->push_back(std::move(col));
    }
    if (!cols->empty()) {
      state->exec_vectorized_batches += static_cast<uint64_t>(NumBatches(n));
      return Status::Ok();
    }
    ++state->exec_row_fallbacks;
  }
  rows->resize(static_cast<size_t>(n));
  Evaluator ev(state);
  RowStack stack = StackOver(outer);
  for (int64_t i = 0; i < n; ++i) {
    MSQL_RETURN_IF_ERROR(state->guard.Check());
    stack[0] = Frame{&rel.rows[i], i, &rel};
    Row& key = (*rows)[static_cast<size_t>(i)];
    key.reserve(exprs.size());
    for (const auto& e : exprs) {
      MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*e, stack));
      key.push_back(std::move(v));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<RelationPtr> Executor::Execute(const LogicalPlan& plan,
                                      const RowStack& outer) {
  MSQL_FAULT_POINT("exec.plan");
  MSQL_RETURN_IF_ERROR(state_->guard.Check());
  if (++state_->depth > state_->options.max_recursion_depth) {
    --state_->depth;
    return RecursionLimitExceeded("plan execution",
                                  state_->options.max_recursion_depth);
  }
  struct DepthGuard {
    ExecState* s;
    ~DepthGuard() { --s->depth; }
  } guard{state_};

  if (state_->profile == nullptr) return Dispatch(plan, outer);
  return DispatchProfiled(plan, outer);
}

// EXPLAIN ANALYZE accounting: wall time and the deltas of the ExecState
// instrumentation counters across this node's execution (inclusive of the
// subtree; the renderer subtracts children). Recorded after Dispatch so the
// map reference cannot be invalidated by recursive insertions.
Result<RelationPtr> Executor::DispatchProfiled(const LogicalPlan& plan,
                                               const RowStack& outer) {
  const QueryCounters before = *state_;
  const auto t0 = std::chrono::steady_clock::now();
  Result<RelationPtr> result = Dispatch(plan, outer);
  const int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  obs::OpStats& op = (*state_->profile)[&plan];
  op.invocations += 1;
  op.time_us += us;
  QueryCounters delta = *state_;
  delta.Subtract(before);
  op.Add(delta);
  if (result.ok()) op.rows_out += result.value()->rows.size();
  return result;
}

Result<RelationPtr> Executor::Dispatch(const LogicalPlan& plan,
                                       const RowStack& outer) {
  switch (plan.kind) {
    case PlanKind::kScanTable:
      return ExecScan(plan);
    case PlanKind::kValues:
      return ExecValues(plan, outer);
    case PlanKind::kProject:
      return ExecProject(plan, outer);
    case PlanKind::kFilter:
      return ExecFilter(plan, outer);
    case PlanKind::kJoin:
      return ExecJoin(plan, outer);
    case PlanKind::kAggregate:
      return ExecAggregate(plan, outer);
    case PlanKind::kSort:
      return ExecSort(plan, outer);
    case PlanKind::kLimit:
      return ExecLimit(plan, outer);
    case PlanKind::kDistinct:
      return ExecDistinct(plan, outer);
    case PlanKind::kSetOp:
      return ExecSetOp(plan, outer);
    case PlanKind::kWindow:
      return ExecWindow(plan, outer);
  }
  return Status(ErrorCode::kExecution, "unknown plan kind");
}

Status Executor::BuildMeasures(const LogicalPlan& plan,
                               const std::vector<RelationPtr>& children,
                               bool shareable, Relation* out) {
  for (const PlanMeasure& pm : plan.measures) {
    RtMeasure m;
    m.name = pm.name;
    m.value_type = pm.value_type;
    m.rowid_col = pm.rowid_col;
    m.column = pm.column;
    for (const auto& [col, expr] : pm.provenance) m.provenance[col] = expr;
    if (pm.define) {
      if (children.empty()) {
        return Status(ErrorCode::kExecution, "measure definition lacks input");
      }
      m.formula = pm.formula;
      m.source = children[0];
      // The source was just materialized from plan.children[0]; when that
      // happened without correlation frames its contents are a pure
      // function of (catalog generation, plan structure), so the measure
      // can participate in the cross-query cache under a structural key.
      if (shareable && state_->shared_cache != nullptr &&
          !plan.children.empty() && pm.formula != nullptr) {
        const LogicalPlan* src = plan.children[0].get();
        auto [it, inserted] =
            state_->plan_fingerprints.emplace(src, std::string());
        if (inserted) it->second = FingerprintPlan(*src);
        m.fingerprint = std::make_shared<const std::string>(
            StrCat(it->second, "|", FingerprintExpr(*pm.formula)));
      }
    } else {
      if (pm.child_index < 0 ||
          static_cast<size_t>(pm.child_index) >= children.size()) {
        return Status(ErrorCode::kExecution, "bad measure child index");
      }
      const Relation& child = *children[pm.child_index];
      if (pm.child_slot < 0 ||
          static_cast<size_t>(pm.child_slot) >= child.measures.size()) {
        return Status(ErrorCode::kExecution, "bad measure child slot");
      }
      const RtMeasure& cm = child.measures[pm.child_slot];
      m.formula = cm.formula;
      m.source = cm.source;
      m.fingerprint = cm.fingerprint;
    }
    out->measures.push_back(std::move(m));
  }
  return Status::Ok();
}

Result<RelationPtr> Executor::ExecScan(const LogicalPlan& plan) {
  MSQL_FAULT_POINT("catalog.snapshot");
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  // Adopt the snapshot in O(1): concurrent INSERTs append past its length
  // and never write the rows it covers, so a scan of R rows copies none.
  Table::RowsSnapshot snap = plan.table->snapshot();
  rel->rows.AdoptShared(snap.owner(), snap.rows());
  MSQL_RETURN_IF_ERROR(
      state_->guard.ChargeRows(rel->rows.size(), rel->schema.size()));
  if (VectorizedGate(state_) == VectorGate::kOk) {
    // Table-cached columnar image of the snapshot's length; null (row
    // path) when columnarization failed.
    rel->columns = plan.table->ColumnsFor(snap);
  }
  return RelationPtr(rel);
}

Result<RelationPtr> Executor::ExecValues(const LogicalPlan& plan,
                                         const RowStack& outer) {
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  Evaluator ev(state_);
  RowStack stack = StackOver(outer);
  for (const auto& row_exprs : plan.values_rows) {
    MSQL_RETURN_IF_ERROR(state_->guard.Check());
    Row row;
    row.reserve(row_exprs.size());
    for (const auto& e : row_exprs) {
      MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*e, stack));
      row.push_back(std::move(v));
    }
    MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(1, row.size()));
    rel->rows.push_back(std::move(row));
  }
  return RelationPtr(rel);
}

namespace {

// The rows of `child` where `predicate` is TRUE, by the predicate's batch
// kernel. Returns false when it has none.
Result<bool> SelectRows(const BoundExpr& predicate, const Relation& child,
                        const std::shared_ptr<Arena>& arena, ExecState* state,
                        std::vector<int64_t>* sel) {
  MSQL_ASSIGN_OR_RETURN(ColumnPtr pred,
                        EvalVector(predicate, child, arena, state));
  if (pred == nullptr) return false;
  if (pred->kind != TypeKind::kBool && pred->kind != TypeKind::kNull) {
    return false;
  }
  const int64_t n = static_cast<int64_t>(child.rows.size());
  for (int64_t i = 0; i < n; ++i) {
    if (pred->IsValid(i) && pred->ints[i] != 0) sel->push_back(i);
  }
  return true;
}

// The input a pre-filtered projection's output expressions run over: the
// child's rows listed in `sel`, holding only the columns `exprs` read, each
// gathered from the child's columnar image. Its rows never materialize,
// since the kernels read nothing else. Returns false when a column read is
// not columnar, or when an expression reads the row index below its top
// (over the gathered rows it would count them, not the child's).
Result<bool> GatherReadColumns(const std::vector<BoundExprPtr>& exprs,
                               const Relation& child,
                               const std::vector<int64_t>& sel,
                               const std::shared_ptr<Arena>& arena,
                               Relation* kept) {
  const ColumnarRelation& in = *child.columns;
  std::vector<bool> read(in.cols.size(), false);
  bool ok = true;
  for (const BoundExprPtr& e : exprs) {
    if (e->kind == BoundExprKind::kRowIndex) continue;
    VisitNodes(*e, [&](const BoundExpr& n) {
      if (n.kind == BoundExprKind::kRowIndex) ok = false;
      if (n.kind != BoundExprKind::kColumnRef || n.depth != 0) return;
      const size_t c = static_cast<size_t>(n.column);
      if (c < in.cols.size() && in.cols[c] != nullptr) {
        read[c] = true;
      } else {
        ok = false;
      }
    });
  }
  if (!ok) return false;
  auto cols = std::make_shared<ColumnarRelation>();
  cols->num_rows = static_cast<int64_t>(sel.size());
  cols->cols.resize(in.cols.size());
  for (size_t c = 0; c < in.cols.size(); ++c) {
    if (!read[c]) continue;
    MSQL_ASSIGN_OR_RETURN(cols->cols[c], GatherColumn(*in.cols[c], sel, arena));
  }
  kept->schema = child.schema;
  kept->columns = cols;
  kept->rows.AdoptLazy(std::move(cols));
  return true;
}

// `sel` as an INT64 column: the child row index of each row a pre-filtered
// projection keeps, which is what kRowIndex reads on the row path.
Result<ColumnPtr> RowIndexColumn(const std::vector<int64_t>& sel,
                                 const std::shared_ptr<Arena>& arena) {
  auto col = std::make_shared<ColumnVector>();
  col->kind = TypeKind::kInt64;
  col->length = static_cast<int64_t>(sel.size());
  col->arena = arena;
  int64_t* ints = arena->AllocateArray<int64_t>(sel.size());
  if (ints == nullptr && !sel.empty()) return arena->status();
  std::copy(sel.begin(), sel.end(), ints);
  col->ints = ints;
  return ColumnPtr(std::move(col));
}

// Vectorized projection over a child with a columnar image: every output
// expression has a kernel, and so does the pre-filter when there is one.
// Produces a columnar relation (rows stay lazy) and charges exactly what
// the row path charges (n x ChargeRows(1, width) == ChargeRows(n, width) in
// bytes). With a pre-filter the output
// expressions run over only the child rows that pass it, and the row index
// is the selection itself. Returns false — with nothing charged — when a
// kernel is missing.
Result<bool> TryVectorProject(const LogicalPlan& plan, const Relation& child,
                              ExecState* state, Relation* rel) {
  auto arena = std::make_shared<Arena>();
  const Relation* in = &child;
  Relation kept;
  std::vector<int64_t> sel;
  if (plan.predicate != nullptr) {
    MSQL_ASSIGN_OR_RETURN(
        bool selected, SelectRows(*plan.predicate, child, arena, state, &sel));
    if (!selected) return false;
    MSQL_ASSIGN_OR_RETURN(
        bool gathered, GatherReadColumns(plan.exprs, child, sel, arena, &kept));
    if (!gathered) return false;
    in = &kept;
  }
  const int64_t n = static_cast<int64_t>(in->rows.size());
  const int64_t child_n = static_cast<int64_t>(child.rows.size());
  auto out = std::make_shared<ColumnarRelation>();
  out->num_rows = n;
  out->cols.reserve(plan.exprs.size());
  for (const auto& e : plan.exprs) {
    ColumnPtr col;
    if (plan.predicate != nullptr && e->kind == BoundExprKind::kRowIndex) {
      MSQL_ASSIGN_OR_RETURN(col, RowIndexColumn(sel, arena));
    } else {
      MSQL_ASSIGN_OR_RETURN(col, EvalVector(*e, *in, arena, state));
    }
    if (col == nullptr) return false;
    out->cols.push_back(std::move(col));
  }
  MSQL_RETURN_IF_ERROR(state->guard.ChargeRows(n, plan.exprs.size()));
  out->batches = MakeBatches(n);
  rel->columns = out;
  rel->rows.AdoptLazy(std::move(out));
  state->exec_vectorized_batches += static_cast<uint64_t>(NumBatches(child_n));
  return true;
}

// Vectorized filter over a child with a columnar image: the predicate has a
// kernel and every child column is columnar; kept rows are gathered by
// selection vector. Charges what the row path charges: one row of the child
// width per kept row.
Result<bool> TryVectorFilter(const LogicalPlan& plan, const Relation& child,
                             ExecState* state, Relation* rel) {
  if (!child.columns->Complete()) return false;
  const int64_t n = static_cast<int64_t>(child.rows.size());
  auto arena = std::make_shared<Arena>();
  std::vector<int64_t> sel;
  MSQL_ASSIGN_OR_RETURN(bool selected,
                        SelectRows(*plan.predicate, child, arena, state, &sel));
  if (!selected) return false;
  MSQL_RETURN_IF_ERROR(
      state->guard.ChargeRows(sel.size(), child.schema.size()));
  auto out = std::make_shared<ColumnarRelation>();
  out->num_rows = static_cast<int64_t>(sel.size());
  out->cols.reserve(child.columns->cols.size());
  for (const ColumnPtr& c : child.columns->cols) {
    MSQL_ASSIGN_OR_RETURN(ColumnPtr g, GatherColumn(*c, sel, arena));
    out->cols.push_back(std::move(g));
  }
  out->batches = MakeBatches(out->num_rows);
  rel->columns = out;
  rel->rows.AdoptLazy(std::move(out));
  state->exec_vectorized_batches += static_cast<uint64_t>(NumBatches(n));
  return true;
}

}  // namespace

Result<RelationPtr> Executor::ExecProject(const LogicalPlan& plan,
                                          const RowStack& outer) {
  MSQL_ASSIGN_OR_RETURN(RelationPtr child, Execute(*plan.children[0], outer));
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  // A child without a columnar image (a Sort's or a Limit's rows) runs the
  // row path by design; only a missing kernel counts as a fallback.
  if (outer.empty() && child->columns != nullptr &&
      VectorizedGate(state_) == VectorGate::kOk) {
    MSQL_ASSIGN_OR_RETURN(bool done,
                          TryVectorProject(plan, *child, state_, rel.get()));
    if (done) {
      MSQL_RETURN_IF_ERROR(
          BuildMeasures(plan, {child}, outer.empty(), rel.get()));
      return RelationPtr(rel);
    }
    ++state_->exec_row_fallbacks;
  }
  // A pre-filtered row keeps its child frame index, so the row index
  // (the measures' hidden row id) stays the child row's.
  if (plan.predicate == nullptr) rel->rows.reserve(child->rows.size());
  Evaluator ev(state_);
  RowStack stack = StackOver(outer);
  for (int64_t i = 0; i < static_cast<int64_t>(child->rows.size()); ++i) {
    MSQL_RETURN_IF_ERROR(state_->guard.Check());
    stack[0] = Frame{&child->rows[i], i, child.get()};
    if (plan.predicate != nullptr) {
      MSQL_ASSIGN_OR_RETURN(bool keep,
                            ev.EvalPredicate(*plan.predicate, stack));
      if (!keep) continue;
    }
    Row row;
    row.reserve(plan.exprs.size());
    for (const auto& e : plan.exprs) {
      MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*e, stack));
      row.push_back(std::move(v));
    }
    MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(1, row.size()));
    rel->rows.push_back(std::move(row));
  }
  MSQL_RETURN_IF_ERROR(BuildMeasures(plan, {child}, outer.empty(), rel.get()));
  return RelationPtr(rel);
}

Result<RelationPtr> Executor::ExecFilter(const LogicalPlan& plan,
                                         const RowStack& outer) {
  MSQL_ASSIGN_OR_RETURN(RelationPtr child, Execute(*plan.children[0], outer));
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  if (outer.empty() && child->columns != nullptr &&
      VectorizedGate(state_) == VectorGate::kOk) {
    MSQL_ASSIGN_OR_RETURN(bool done,
                          TryVectorFilter(plan, *child, state_, rel.get()));
    if (done) {
      MSQL_RETURN_IF_ERROR(
          BuildMeasures(plan, {child}, outer.empty(), rel.get()));
      return RelationPtr(rel);
    }
    ++state_->exec_row_fallbacks;
  }
  Evaluator ev(state_);
  RowStack stack = StackOver(outer);
  for (int64_t i = 0; i < static_cast<int64_t>(child->rows.size()); ++i) {
    MSQL_RETURN_IF_ERROR(state_->guard.Check());
    stack[0] = Frame{&child->rows[i], i, child.get()};
    MSQL_ASSIGN_OR_RETURN(bool keep, ev.EvalPredicate(*plan.predicate, stack));
    if (keep) {
      MSQL_RETURN_IF_ERROR(
          state_->guard.ChargeRows(1, child->rows[i].size()));
      rel->rows.push_back(child->rows[i]);
    }
  }
  MSQL_RETURN_IF_ERROR(BuildMeasures(plan, {child}, outer.empty(), rel.get()));
  return RelationPtr(rel);
}

namespace {

// Extracts hash-join keys from a conjunction of equalities where one side
// references only left columns and the other only right columns (SideOf,
// plan/rewrite.h, over the join's combined layout). Each key comes over its
// own input's layout; the residual conjuncts stay over the combined one.
struct JoinKeys {
  std::vector<BoundExprPtr> left;
  std::vector<BoundExprPtr> right;
  std::vector<const BoundExpr*> residual;
};

JoinKeys AnalyzeJoin(const BoundExpr* cond, size_t lv, size_t rv, size_t lh) {
  JoinKeys keys;
  if (cond == nullptr) return keys;
  auto add = [&](const BoundExpr& l, const BoundExpr& r) {
    keys.left.push_back(ToInputLayout(l, JoinSide::kLeft, lv, rv, lh));
    keys.right.push_back(ToInputLayout(r, JoinSide::kRight, lv, rv, lh));
  };
  std::vector<const BoundExpr*> conjuncts;
  CollectConjuncts(*cond, &conjuncts);
  for (const BoundExpr* c : conjuncts) {
    if (c->kind == BoundExprKind::kFunc && c->func == FunctionId::kOpEq &&
        c->args.size() == 2) {
      JoinSide s0 = SideOf(*c->args[0], lv, rv, lh);
      JoinSide s1 = SideOf(*c->args[1], lv, rv, lh);
      if ((s0 == JoinSide::kLeft || s0 == JoinSide::kNeither) &&
          (s1 == JoinSide::kRight || s1 == JoinSide::kNeither) &&
          !(s0 == JoinSide::kNeither && s1 == JoinSide::kNeither)) {
        add(*c->args[0], *c->args[1]);
        continue;
      }
      if (s0 == JoinSide::kRight &&
          (s1 == JoinSide::kLeft || s1 == JoinSide::kNeither)) {
        add(*c->args[1], *c->args[0]);
        continue;
      }
    }
    keys.residual.push_back(c);
  }
  return keys;
}

}  // namespace

Result<RelationPtr> Executor::ExecJoin(const LogicalPlan& plan,
                                       const RowStack& outer) {
  MSQL_ASSIGN_OR_RETURN(RelationPtr left, Execute(*plan.children[0], outer));
  MSQL_ASSIGN_OR_RETURN(RelationPtr right, Execute(*plan.children[1], outer));
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  Evaluator ev(state_);

  const size_t lv = left->schema.num_visible();
  const size_t rv = right->schema.num_visible();
  const size_t lh = left->schema.size() - lv;
  const size_t rh = right->schema.size() - rv;

  auto combine = [&](const Row& l, const Row& r) {
    Row row;
    row.reserve(lv + rv + lh + rh);
    for (size_t i = 0; i < lv; ++i) row.push_back(l[i]);
    for (size_t i = 0; i < rv; ++i) row.push_back(r[i]);
    for (size_t i = 0; i < lh; ++i) row.push_back(l[lv + i]);
    for (size_t i = 0; i < rh; ++i) row.push_back(r[rv + i]);
    return row;
  };
  Row null_right(right->schema.size(), Value::Null());
  Row null_left(left->schema.size(), Value::Null());

  RowStack stack = StackOver(outer);

  const bool keep_left = plan.join_type == JoinType::kLeft ||
                         plan.join_type == JoinType::kFull;
  const bool keep_right = plan.join_type == JoinType::kRight ||
                          plan.join_type == JoinType::kFull;
  std::vector<char> right_matched(keep_right ? right->rows.size() : 0, 0);
  JoinKeys keys = AnalyzeJoin(plan.join_condition.get(), lv, rv, lh);

  auto eval_residual = [&](const Row& combined) -> Result<bool> {
    stack[0] = Frame{&combined, -1, nullptr};
    if (keys.left.empty() && plan.join_condition != nullptr) {
      return ev.EvalPredicate(*plan.join_condition, stack);
    }
    for (const BoundExpr* r : keys.residual) {
      MSQL_ASSIGN_OR_RETURN(bool ok, ev.EvalPredicate(*r, stack));
      if (!ok) return false;
    }
    return true;
  };

  // Hash join: each input's keys are evaluated over its own rows, and the
  // right rows grouped by key are the build table.
  const bool hash = !keys.left.empty();
  std::vector<ColumnPtr> build_cols, probe_cols;
  std::vector<Row> build_rows, probe_rows;
  RowGroups table;
  MSQL_RETURN_IF_ERROR(EvalGroupKeys(keys.right, *right, outer, state_,
                                     &build_cols, &build_rows));
  if (hash) {
    MSQL_RETURN_IF_ERROR(GroupRowsByKey(
        build_cols, build_rows, AllPositions(keys.right.size()),
        static_cast<int64_t>(right->rows.size()), /*keep_map=*/true, state_,
        &table));
  }
  MSQL_RETURN_IF_ERROR(EvalGroupKeys(keys.left, *left, outer, state_,
                                     &probe_cols, &probe_rows));

  // The right rows a left row meets: under a hash join the build group of
  // its key (none for a key holding a NULL, since `=` never matches NULL),
  // else every right row.
  std::vector<int64_t> every_right(hash ? 0 : right->rows.size());
  std::iota(every_right.begin(), every_right.end(), 0);
  const std::vector<int64_t> no_rows;
  Row key;
  for (int64_t i = 0; i < static_cast<int64_t>(left->rows.size()); ++i) {
    MSQL_RETURN_IF_ERROR(state_->guard.Check());
    const Row& l = left->rows[i];
    const std::vector<int64_t>* meets = &every_right;
    if (hash) {
      key.clear();
      for (const ColumnPtr& c : probe_cols) key.push_back(c->At(i));
      const Row& probe = probe_cols.empty() ? probe_rows[i] : key;
      meets = &no_rows;
      if (std::none_of(probe.begin(), probe.end(),
                       [](const Value& v) { return v.is_null(); })) {
        auto it = table.map.find(probe);
        if (it != table.map.end()) meets = &table.rows[it->second];
      }
    }
    bool matched = false;
    for (int64_t j : *meets) {
      MSQL_RETURN_IF_ERROR(state_->guard.Check());
      Row combined = combine(l, right->rows[j]);
      MSQL_ASSIGN_OR_RETURN(bool ok, eval_residual(combined));
      if (ok) {
        matched = true;
        if (keep_right) right_matched[j] = 1;
        MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(1, combined.size()));
        rel->rows.push_back(std::move(combined));
      }
    }
    if (!matched && keep_left) {
      MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(1, rel->schema.size()));
      rel->rows.push_back(combine(l, null_right));
    }
  }
  // RIGHT / FULL OUTER: emit right rows no left row matched.
  if (keep_right) {
    for (size_t j = 0; j < right->rows.size(); ++j) {
      MSQL_RETURN_IF_ERROR(state_->guard.Check());
      if (!right_matched[j]) {
        MSQL_RETURN_IF_ERROR(
            state_->guard.ChargeRows(1, rel->schema.size()));
        rel->rows.push_back(combine(null_left, right->rows[j]));
      }
    }
  }
  MSQL_RETURN_IF_ERROR(BuildMeasures(plan, {left, right}, outer.empty(), rel.get()));
  return RelationPtr(rel);
}

Result<RelationPtr> Executor::ExecAggregate(const LogicalPlan& plan,
                                            const RowStack& outer) {
  MSQL_ASSIGN_OR_RETURN(RelationPtr child, Execute(*plan.children[0], outer));
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;

  const size_t num_keys = plan.group_exprs.size();
  const int64_t n = static_cast<int64_t>(child->rows.size());

  // Evaluate all group expressions once per child row.
  std::vector<ColumnPtr> key_cols;
  std::vector<Row> key_values;
  MSQL_RETURN_IF_ERROR(EvalGroupKeys(plan.group_exprs, *child, outer, state_,
                                     &key_cols, &key_values));

  for (const std::vector<int>& set : plan.grouping_sets) {
    // Group rows for this grouping set: parallel arrays in first-seen order.
    RowGroups groups;
    MSQL_RETURN_IF_ERROR(GroupRowsByKey(key_cols, key_values, set, n,
                                        /*keep_map=*/false, state_, &groups));
    std::vector<Row>& group_keys = groups.keys;
    std::vector<std::vector<int64_t>>& group_rows = groups.rows;
    // The empty grouping set aggregates over all rows, producing one row
    // even for empty input (SQL scalar-aggregation semantics).
    if (set.empty() && group_keys.empty()) {
      group_keys.push_back(Row{});
      group_rows.emplace_back();
    }

    int64_t grouping_id = 0;
    for (size_t k = 0; k < num_keys; ++k) {
      if (std::find(set.begin(), set.end(), static_cast<int>(k)) ==
          set.end()) {
        grouping_id |= (int64_t{1} << k);
      }
    }

    // Key columns and aggregate calls, one output row per group.
    std::vector<Row> out_rows;
    out_rows.reserve(group_keys.size());
    for (size_t g = 0; g < group_keys.size(); ++g) {
      MSQL_RETURN_IF_ERROR(state_->guard.Check());
      const Row& key = group_keys[g];
      const std::vector<int64_t>& rows = group_rows[g];
      Row out;
      out.reserve(plan.schema.size());
      // Group key columns (NULL when aggregated away in this set).
      for (size_t k = 0; k < num_keys; ++k) {
        auto pos = std::find(set.begin(), set.end(), static_cast<int>(k));
        out.push_back(pos == set.end()
                          ? Value::Null()
                          : key[static_cast<size_t>(pos - set.begin())]);
      }
      // Aggregate calls.
      for (const AggCallDef& call : plan.agg_calls) {
        MSQL_ASSIGN_OR_RETURN(
            Value v, EvalAggCall(call.agg, call.args, call.distinct,
                                 call.filter.get(), *child, rows, outer,
                                 state_));
        out.push_back(std::move(v));
      }
      out_rows.push_back(std::move(out));
    }

    // Measure evaluations (context-sensitive expressions), batched one
    // column at a time: all groups of the set share the context *shape*
    // (same dimension expressions, different pinned key values), which the
    // grouped strategy answers from one key->value table per shape
    // (measure/grouped.h).
    for (const MeasureEvalDef& me : plan.measure_evals) {
      if (me.measure_slot < 0 ||
          static_cast<size_t>(me.measure_slot) >= child->measures.size()) {
        return Status(ErrorCode::kExecution, "bad measure slot");
      }
      const RtMeasure& m = child->measures[me.measure_slot];

      // VISIBLE-only call sites (AGGREGATE, the common case): the
      // visible row-id set already implies the group-key terms, since
      // every reachable source row satisfies its own group's keys via
      // provenance. Skipping them enables the row-id-only fast path.
      const bool visible_only =
          state_->options.measure_strategy != MeasureStrategy::kNaive &&
          me.modifiers.size() == 1 &&
          me.modifiers[0].kind == AtModifier::Kind::kVisible;
      // What the modifiers read: VISIBLE needs each group's source row
      // ids; SET values, WHERE predicates and ALL <dims> may reference the
      // call site's row, so those need a representative row per group.
      bool wants_visible = false, wants_rep = false;
      for (const BoundAtModifier& mod : me.modifiers) {
        if (mod.kind == AtModifier::Kind::kVisible) {
          wants_visible = true;
        } else if (mod.kind != AtModifier::Kind::kAll) {
          wants_rep = true;
        }
      }

      // Default group context: one dimension term per group key of this
      // grouping set that has provenance onto the measure's source. The
      // translation closes over the outer frames only, so it is the same
      // for every group: translate once, pin per group.
      struct KeyDim {
        size_t pos;  // position in the grouping set's key tuple
        std::string key;
        std::shared_ptr<const BoundExpr> src;
      };
      std::vector<KeyDim> key_dims;
      if (!visible_only) {
        for (size_t si = 0; si < set.size(); ++si) {
          auto translated = TranslateToSource(*plan.group_exprs[set[si]], m,
                                              /*close_over=*/outer, nullptr,
                                              state_);
          if (!translated.ok()) continue;  // key is not a dimension of m
          std::shared_ptr<const BoundExpr> src(std::move(translated.value()));
          std::string key = src->ToString();
          key_dims.push_back(KeyDim{si, std::move(key), std::move(src)});
        }
      }

      std::vector<EvalContext> contexts;
      contexts.reserve(group_keys.size());
      Row rep_row;
      for (size_t g = 0; g < group_keys.size(); ++g) {
        MSQL_RETURN_IF_ERROR(state_->guard.Check());
        const Row& key = group_keys[g];
        const std::vector<int64_t>& rows = group_rows[g];

        EvalContext ctx;
        for (const KeyDim& d : key_dims) ctx.SetDim(d.key, d.src, key[d.pos]);

        // Representative row, for modifiers that close over the call
        // site. Read from the columnar image when there is one: touching
        // child->rows would force a lazy columnar child to materialize
        // every row.
        RowStack call_stack = StackOver(outer);
        if (wants_rep && !rows.empty()) {
          const ColumnarRelation* cols = child->columns.get();
          if (cols != nullptr && cols->Complete()) {
            rep_row.resize(cols->cols.size());
            for (size_t c = 0; c < cols->cols.size(); ++c) {
              rep_row[c] = cols->cols[c]->At(rows[0]);
            }
            call_stack[0] = Frame{&rep_row, rows[0], child.get()};
          } else {
            call_stack[0] = Frame{&child->rows[rows[0]], rows[0], child.get()};
          }
        }

        // VISIBLE: the distinct source rows reachable from this group.
        std::shared_ptr<const std::vector<int64_t>> visible;
        if (wants_visible && m.rowid_col >= 0) {
          MSQL_ASSIGN_OR_RETURN(visible, CollectRowIds(m, *child, rows));
        }
        MSQL_RETURN_IF_ERROR(ApplyModifiers(m, me.modifiers, call_stack,
                                            visible, state_, &ctx));
        contexts.push_back(std::move(ctx));
      }
      MSQL_ASSIGN_OR_RETURN(std::vector<Value> vals,
                            EvaluateMeasureBatch(m, contexts, state_));
      for (size_t gi = 0; gi < out_rows.size(); ++gi) {
        out_rows[gi].push_back(std::move(vals[gi]));
      }
    }

    for (Row& out : out_rows) {
      // Hidden grouping id.
      out.push_back(Value::Int(grouping_id));
      MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(1, out.size()));
      rel->rows.push_back(std::move(out));
    }
  }
  return RelationPtr(rel);
}

Result<RelationPtr> Executor::ExecSort(const LogicalPlan& plan,
                                       const RowStack& outer) {
  MSQL_ASSIGN_OR_RETURN(RelationPtr child, Execute(*plan.children[0], outer));
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  MSQL_RETURN_IF_ERROR(
      state_->guard.ChargeRows(child->rows.size(), plan.schema.size()));
  const std::span<const Row> in = child->rows.vec();

  // Evaluate sort keys per row.
  Evaluator ev(state_);
  RowStack stack = StackOver(outer);
  std::vector<Row> keys(in.size());
  std::vector<size_t> order(in.size());
  for (int64_t i = 0; i < static_cast<int64_t>(in.size()); ++i) {
    MSQL_RETURN_IF_ERROR(state_->guard.Check());
    order[i] = i;
    stack[0] = Frame{&in[i], i, child.get()};
    for (const SortKeyDef& k : plan.sort_keys) {
      MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*k.expr, stack));
      keys[i].push_back(std::move(v));
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < plan.sort_keys.size(); ++k) {
      const Value& va = keys[a][k];
      const Value& vb = keys[b][k];
      const SortKeyDef& def = plan.sort_keys[k];
      if (va.is_null() != vb.is_null()) {
        return va.is_null() ? def.nulls_first : !def.nulls_first;
      }
      int c = Value::Compare(va, vb);
      if (c != 0) return def.desc ? c > 0 : c < 0;
    }
    return false;
  });
  std::vector<Row> sorted;
  sorted.reserve(in.size());
  for (size_t i : order) sorted.push_back(in[i]);
  rel->rows = std::move(sorted);
  MSQL_RETURN_IF_ERROR(BuildMeasures(plan, {child}, outer.empty(), rel.get()));
  return RelationPtr(rel);
}

Result<RelationPtr> Executor::ExecLimit(const LogicalPlan& plan,
                                        const RowStack& outer) {
  MSQL_ASSIGN_OR_RETURN(RelationPtr child, Execute(*plan.children[0], outer));
  Evaluator ev(state_);
  RowStack stack = StackOver(outer);
  int64_t limit = -1, offset = 0;
  if (plan.limit_expr) {
    MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*plan.limit_expr, stack));
    if (!v.is_null()) {
      MSQL_ASSIGN_OR_RETURN(Value iv, v.CastTo(TypeKind::kInt64));
      limit = iv.int_val();
    }
  }
  if (plan.offset_expr) {
    MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*plan.offset_expr, stack));
    if (!v.is_null()) {
      MSQL_ASSIGN_OR_RETURN(Value iv, v.CastTo(TypeKind::kInt64));
      offset = iv.int_val();
    }
  }
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  for (int64_t i = offset; i < static_cast<int64_t>(child->rows.size()); ++i) {
    if (limit >= 0 && static_cast<int64_t>(rel->rows.size()) >= limit) break;
    MSQL_RETURN_IF_ERROR(state_->guard.Check());
    MSQL_RETURN_IF_ERROR(
        state_->guard.ChargeRows(1, child->rows[i].size()));
    rel->rows.push_back(child->rows[i]);
  }
  MSQL_RETURN_IF_ERROR(BuildMeasures(plan, {child}, outer.empty(), rel.get()));
  return RelationPtr(rel);
}

Result<RelationPtr> Executor::ExecDistinct(const LogicalPlan& plan,
                                           const RowStack& outer) {
  MSQL_ASSIGN_OR_RETURN(RelationPtr child, Execute(*plan.children[0], outer));
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  const size_t width = plan.schema.size();  // visible only
  const int64_t n = static_cast<int64_t>(child->rows.size());
  // Group the child's visible prefix: over its columns when it has a whole
  // columnar image (its rows stay unmaterialized), else over its rows.
  const ColumnarRelation* image = child->columns.get();
  std::vector<ColumnPtr> cols;
  if (image != nullptr && image->Complete() &&
      VectorizedGate(state_) == VectorGate::kOk) {
    cols = image->cols;
    state_->exec_vectorized_batches += static_cast<uint64_t>(NumBatches(n));
  }
  RowGroups groups;
  MSQL_RETURN_IF_ERROR(GroupRowsByKey(
      cols, cols.empty() ? child->rows.vec() : std::span<const Row>(),
      AllPositions(width), n, /*keep_map=*/false, state_, &groups));
  MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(groups.keys.size(), width));
  rel->rows = std::move(groups.keys);
  return RelationPtr(rel);
}

Result<RelationPtr> Executor::ExecSetOp(const LogicalPlan& plan,
                                        const RowStack& outer) {
  MSQL_ASSIGN_OR_RETURN(RelationPtr left, Execute(*plan.children[0], outer));
  MSQL_ASSIGN_OR_RETURN(RelationPtr right, Execute(*plan.children[1], outer));
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  const size_t width = plan.schema.size();
  if (plan.set_op == SetOpKind::kNone) {
    return Status(ErrorCode::kExecution, "SetOp node without operator");
  }
  const size_t total = left->rows.size() + right->rows.size();
  const bool all = plan.set_op == SetOpKind::kUnionAll;
  if (all) MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(total, width));
  // The left rows, then the right ones, truncated to the visible width.
  std::vector<Row> both;
  both.reserve(total);
  for (const auto* side : {&left->rows, &right->rows}) {
    for (const Row& r : *side) {
      MSQL_RETURN_IF_ERROR(state_->guard.Check());
      both.emplace_back(r.begin(), r.begin() + width);
    }
  }
  if (all) {
    rel->rows = std::move(both);
    return RelationPtr(rel);
  }
  // One group per distinct row, in first-seen order. A group's ascending
  // row list starts in the left input when the left has the row, and ends
  // in the right input when the right has it.
  const int64_t nl = static_cast<int64_t>(left->rows.size());
  RowGroups groups;
  MSQL_RETURN_IF_ERROR(GroupRowsByKey(
      {}, both, AllPositions(width), static_cast<int64_t>(both.size()),
      /*keep_map=*/false, state_, &groups));
  std::vector<Row> out;
  for (size_t g = 0; g < groups.keys.size(); ++g) {
    const bool in_left = groups.rows[g].front() < nl;
    const bool in_right = groups.rows[g].back() >= nl;
    const bool keep = plan.set_op == SetOpKind::kUnion ||
                      (in_left && (plan.set_op == SetOpKind::kIntersect
                                       ? in_right
                                       : !in_right));
    if (keep) out.push_back(std::move(groups.keys[g]));
  }
  MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(out.size(), width));
  rel->rows = std::move(out);
  return RelationPtr(rel);
}

Result<RelationPtr> Executor::ExecWindow(const LogicalPlan& plan,
                                         const RowStack& outer) {
  MSQL_ASSIGN_OR_RETURN(RelationPtr child, Execute(*plan.children[0], outer));
  const size_t cv = child->schema.num_visible();
  const size_t ch = child->schema.size() - cv;
  const size_t n = child->rows.size();
  const size_t num_windows = plan.windows.size();

  Evaluator ev(state_);
  RowStack stack = StackOver(outer);

  // Window results per row.
  std::vector<std::vector<Value>> results(n,
                                          std::vector<Value>(num_windows));

  for (size_t w = 0; w < num_windows; ++w) {
    const WindowDef& def = plan.windows[w];
    // Partition rows.
    std::vector<ColumnPtr> key_cols;
    std::vector<Row> key_rows;
    MSQL_RETURN_IF_ERROR(EvalGroupKeys(def.partition_by, *child, outer,
                                       state_, &key_cols, &key_rows));
    RowGroups partitions;
    MSQL_RETURN_IF_ERROR(GroupRowsByKey(
        key_cols, key_rows, AllPositions(def.partition_by.size()),
        static_cast<int64_t>(n), /*keep_map=*/false, state_, &partitions));
    for (const std::vector<int64_t>& rows : partitions.rows) {
      if (def.order_by.empty()) {
        if (def.agg == AggId::kRowNumber || def.agg == AggId::kRank) {
          return Status(ErrorCode::kExecution,
                        StrCat(AggIdName(def.agg),
                               " requires ORDER BY in its OVER clause"));
        }
        MSQL_ASSIGN_OR_RETURN(
            Value v, EvalAggCall(def.agg, def.args, /*distinct=*/false,
                                 /*filter=*/nullptr, *child, rows, outer,
                                 state_));
        for (int64_t i : rows) results[i][w] = v;
        continue;
      }
      // Sort the partition by the ORDER BY keys.
      std::vector<Row> okeys(rows.size());
      for (size_t r = 0; r < rows.size(); ++r) {
        MSQL_RETURN_IF_ERROR(state_->guard.Check());
        stack[0] = Frame{&child->rows[rows[r]], rows[r], child.get()};
        for (const auto& [e, desc] : def.order_by) {
          MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*e, stack));
          okeys[r].push_back(std::move(v));
        }
      }
      std::vector<size_t> order(rows.size());
      for (size_t r = 0; r < rows.size(); ++r) order[r] = r;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < def.order_by.size(); ++k) {
          int c = Value::Compare(okeys[a][k], okeys[b][k]);
          if (c != 0) return def.order_by[k].second ? c > 0 : c < 0;
        }
        return false;
      });
      // Walk peer groups; the frame is the running prefix including peers.
      AggAccumulator acc(def.agg);
      int64_t row_number = 0;
      size_t idx = 0;
      while (idx < order.size()) {
        size_t peer_end = idx + 1;
        while (peer_end < order.size() &&
               RowsNotDistinct(okeys[order[peer_end]], okeys[order[idx]])) {
          ++peer_end;
        }
        int64_t rank = static_cast<int64_t>(idx) + 1;
        for (size_t r = idx; r < peer_end; ++r) {
          int64_t child_row = rows[order[r]];
          ++row_number;
          if (def.agg == AggId::kRowNumber) {
            results[child_row][w] = Value::Int(row_number);
            continue;
          }
          if (def.agg == AggId::kRank) {
            results[child_row][w] = Value::Int(rank);
            continue;
          }
          // Accumulate this row into the running aggregate.
          stack[0] = Frame{&child->rows[child_row], child_row, child.get()};
          std::vector<Value> argv;
          argv.reserve(def.args.size());
          for (const auto& a : def.args) {
            MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*a, stack));
            argv.push_back(std::move(v));
          }
          MSQL_RETURN_IF_ERROR(acc.Accumulate(argv));
        }
        if (def.agg != AggId::kRowNumber && def.agg != AggId::kRank) {
          Value v = acc.Finish();
          for (size_t r = idx; r < peer_end; ++r) {
            results[rows[order[r]]][w] = v;
          }
        }
        idx = peer_end;
      }
    }
  }

  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  rel->rows.reserve(n);
  MSQL_RETURN_IF_ERROR(
      state_->guard.ChargeRows(n, cv + num_windows + ch));
  for (size_t i = 0; i < n; ++i) {
    MSQL_RETURN_IF_ERROR(state_->guard.Check());
    Row row;
    row.reserve(cv + num_windows + ch);
    const Row& src = child->rows[i];
    for (size_t c = 0; c < cv; ++c) row.push_back(src[c]);
    for (size_t w = 0; w < num_windows; ++w) {
      row.push_back(results[i][w]);
    }
    for (size_t c = 0; c < ch; ++c) row.push_back(src[cv + c]);
    rel->rows.push_back(std::move(row));
  }
  MSQL_RETURN_IF_ERROR(BuildMeasures(plan, {child}, outer.empty(), rel.get()));
  return RelationPtr(rel);
}

namespace {

// The value of subquery expression `e`, running its plan under `stack`.
Result<Value> RunSubquery(const BoundExpr& e, const RowStack& stack,
                          Evaluator* ev) {
  Executor exec(ev->state());
  MSQL_ASSIGN_OR_RETURN(RelationPtr result, exec.Execute(*e.subplan, stack));

  switch (e.kind) {
    case BoundExprKind::kSubquery: {
      if (result->rows.size() > 1) {
        return Status(ErrorCode::kExecution,
                      "scalar subquery returned more than one row");
      }
      return result->rows.empty() ? Value::Null() : result->rows[0][0];
    }
    case BoundExprKind::kExists:
      return Value::Bool(result->rows.empty() == e.negated);
    case BoundExprKind::kInSubquery: {
      MSQL_ASSIGN_OR_RETURN(Value probe, ev->Eval(*e.operand, stack));
      if (probe.is_null()) return Value::Null();
      bool saw_null = false;
      for (const Row& r : result->rows) {
        if (r[0].is_null()) {
          saw_null = true;
          continue;
        }
        if (Value::NotDistinct(probe, r[0])) return Value::Bool(!e.negated);
      }
      if (saw_null) return Value::Null();
      return Value::Bool(e.negated);
    }
    default:
      return Status(ErrorCode::kExecution, "not a subquery expression");
  }
}

}  // namespace

Result<Value> EvalSubqueryExpr(const BoundExpr& e, const RowStack& stack,
                               Evaluator* ev) {
  ExecState* state = ev->state();
  MSQL_FAULT_POINT("exec.subquery");
  MSQL_RETURN_IF_ERROR(state->guard.Check());
  ++state->subquery_execs;

  // Only scalar and EXISTS results are memoized: an IN result depends on
  // the probe value too.
  if (state->options.measure_strategy == MeasureStrategy::kNaive ||
      (e.kind != BoundExprKind::kSubquery &&
       e.kind != BoundExprKind::kExists)) {
    return RunSubquery(e, stack, ev);
  }
  std::string literals;
  for (const auto& fv : e.free_vars) {
    MSQL_ASSIGN_OR_RETURN(Value v, ev->Eval(*fv, stack));
    literals += v.ToSqlLiteral();
    literals += ",";
  }
  // Cross-query layer: free-variable *values* are part of the key, so even
  // correlated subqueries share safely under a structural plan fingerprint
  // (the memo's pointer keys are meaningless across binds).
  SharedCacheSlot shared;
  if (state->shared_cache != nullptr) {
    auto [fp, inserted] = state->plan_fingerprints.try_emplace(e.subplan.get());
    if (inserted) fp->second = FingerprintPlan(*e.subplan);
    const char* kind = e.kind == BoundExprKind::kExists
                           ? (e.negated ? "e!" : "e")
                           : (e.negated ? "s!" : "s");
    shared = SharedCacheSlot(state, "q", {kind, fp->second, literals});
  }
  MemoSlot memo(state,
                StrCat("q|", reinterpret_cast<uintptr_t>(e.subplan.get()), "|",
                       literals),
                std::move(shared), &state->subquery_cache_hits);
  std::shared_ptr<const void> hit;
  if (memo.Lookup(&hit)) return *static_cast<const Value*>(hit.get());
  MSQL_ASSIGN_OR_RETURN(Value v, RunSubquery(e, stack, ev));
  MSQL_RETURN_IF_ERROR(
      memo.Fill(std::make_shared<const Value>(v), MemoValueBytes(v)));
  return v;
}

}  // namespace msql
