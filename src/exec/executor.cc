#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "exec/agg_eval.h"
#include "exec/vector_eval.h"
#include "measure/cse.h"
#include "measure/grouped.h"
#include "runtime/fingerprint.h"
#include "runtime/shared_cache.h"

namespace msql {

namespace {

// Hashable group key (IS NOT DISTINCT FROM equality).
struct KeyHash {
  size_t operator()(const Row& r) const { return HashRow(r, r.size()); }
};
struct KeyEq {
  bool operator()(const Row& a, const Row& b) const {
    return RowsNotDistinct(a, b);
  }
};
using GroupMap = std::unordered_map<Row, std::vector<int64_t>, KeyHash, KeyEq>;

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
  // Adopt the COW snapshot in O(1): concurrent INSERTs republish the row
  // vector, never mutate it, so sharing the segment is safe and a scan of R
  // rows no longer copies them.
  Table::RowsSnapshot snap = plan.table->snapshot();
  rel->rows.AdoptShared(snap);
  MSQL_RETURN_IF_ERROR(
      state_->guard.ChargeRows(rel->rows.size(), rel->schema.size()));
  if (VectorizedGate(state_) == VectorGate::kOk) {
    // Table-cached columnar image, keyed by snapshot identity; null (row
    // path) when a column could not be columnarized.
    rel->columns = plan.table->ColumnsFor(snap);
  }
  return RelationPtr(rel);
}

Result<RelationPtr> Executor::ExecValues(const LogicalPlan& plan,
                                         const RowStack& outer) {
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  Evaluator ev(state_);
  RowStack stack;
  stack.push_back(Frame{});
  for (const Frame& f : outer) stack.push_back(f);
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

// Vectorized projection: every output expression has a kernel. Produces a
// columnar relation (rows stay lazy) and charges exactly what the row path
// charges (n x ChargeRows(1, width) == ChargeRows(n, width) in bytes).
// Returns false — with nothing charged — when any expression lacks a kernel.
Result<bool> TryVectorProject(const LogicalPlan& plan, const Relation& child,
                              ExecState* state, Relation* rel) {
  if (child.columns == nullptr) return false;
  const int64_t n = static_cast<int64_t>(child.rows.size());
  auto arena = std::make_shared<Arena>();
  auto out = std::make_shared<ColumnarRelation>();
  out->num_rows = n;
  out->cols.reserve(plan.exprs.size());
  for (const auto& e : plan.exprs) {
    MSQL_ASSIGN_OR_RETURN(ColumnPtr col, EvalVector(*e, child, arena, state));
    if (col == nullptr) return false;
    out->cols.push_back(std::move(col));
  }
  MSQL_RETURN_IF_ERROR(state->guard.ChargeRows(n, plan.exprs.size()));
  out->batches = MakeBatches(n);
  rel->columns = out;
  rel->rows.AdoptLazy(std::move(out));
  state->exec_vectorized_batches += static_cast<uint64_t>(NumBatches(n));
  return true;
}

// Vectorized filter: the predicate has a kernel and every child column is
// columnar; kept rows are gathered by selection vector. Charges what the row
// path charges: one row of the child width per kept row.
Result<bool> TryVectorFilter(const LogicalPlan& plan, const Relation& child,
                             ExecState* state, Relation* rel) {
  if (child.columns == nullptr || !child.columns->Complete()) return false;
  const int64_t n = static_cast<int64_t>(child.rows.size());
  auto arena = std::make_shared<Arena>();
  MSQL_ASSIGN_OR_RETURN(ColumnPtr pred,
                        EvalVector(*plan.predicate, child, arena, state));
  if (pred == nullptr) return false;
  if (pred->kind != TypeKind::kBool && pred->kind != TypeKind::kNull) {
    return false;
  }
  std::vector<int64_t> sel;
  for (int64_t i = 0; i < n; ++i) {
    if (pred->IsValid(i) && pred->ints[i] != 0) sel.push_back(i);
  }
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
  if (outer.empty() && VectorizedGate(state_) == VectorGate::kOk) {
    MSQL_ASSIGN_OR_RETURN(bool done,
                          TryVectorProject(plan, *child, state_, rel.get()));
    if (done) {
      MSQL_RETURN_IF_ERROR(
          BuildMeasures(plan, {child}, outer.empty(), rel.get()));
      return RelationPtr(rel);
    }
    ++state_->exec_row_fallbacks;
  }
  rel->rows.reserve(child->rows.size());
  Evaluator ev(state_);
  RowStack stack;
  stack.push_back(Frame{});
  for (const Frame& f : outer) stack.push_back(f);
  for (int64_t i = 0; i < static_cast<int64_t>(child->rows.size()); ++i) {
    MSQL_RETURN_IF_ERROR(state_->guard.Check());
    stack[0] = Frame{&child->rows[i], i, child.get()};
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
  if (outer.empty() && VectorizedGate(state_) == VectorGate::kOk) {
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
  RowStack stack;
  stack.push_back(Frame{});
  for (const Frame& f : outer) stack.push_back(f);
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
// references only left columns and the other only right columns (in the
// combined schema layout: left visible [0, lv), right visible [lv, lv+rv),
// left hidden [lv+rv, lv+rv+lh), right hidden after).
struct JoinKeys {
  std::vector<const BoundExpr*> left;   // evaluated against combined-left row
  std::vector<const BoundExpr*> right;
  std::vector<const BoundExpr*> residual;
};

enum class Side { kLeft, kRight, kBoth, kNeither };

Side SideOf(const BoundExpr& e, size_t lv, size_t rv, size_t lh) {
  Side side = Side::kNeither;
  bool poisoned = false;
  VisitNodes(e, [&](const BoundExpr& n) {
    if (n.kind == BoundExprKind::kSubquery ||
        n.kind == BoundExprKind::kInSubquery ||
        n.kind == BoundExprKind::kExists ||
        n.kind == BoundExprKind::kMeasureEval) {
      poisoned = true;
    }
    if (n.kind != BoundExprKind::kColumnRef || n.depth != 0) return;
    size_t c = static_cast<size_t>(n.column);
    Side s = (c < lv || (c >= lv + rv && c < lv + rv + lh)) ? Side::kLeft
                                                            : Side::kRight;
    if (side == Side::kNeither) {
      side = s;
    } else if (side != s) {
      side = Side::kBoth;
    }
  });
  if (poisoned) return Side::kBoth;
  return side;
}

void CollectConjuncts(const BoundExpr& e, std::vector<const BoundExpr*>* out) {
  if (e.kind == BoundExprKind::kFunc && e.func == FunctionId::kOpAnd) {
    CollectConjuncts(*e.args[0], out);
    CollectConjuncts(*e.args[1], out);
    return;
  }
  out->push_back(&e);
}

JoinKeys AnalyzeJoin(const BoundExpr* cond, size_t lv, size_t rv, size_t lh) {
  JoinKeys keys;
  if (cond == nullptr) return keys;
  std::vector<const BoundExpr*> conjuncts;
  CollectConjuncts(*cond, &conjuncts);
  for (const BoundExpr* c : conjuncts) {
    if (c->kind == BoundExprKind::kFunc && c->func == FunctionId::kOpEq &&
        c->args.size() == 2) {
      Side s0 = SideOf(*c->args[0], lv, rv, lh);
      Side s1 = SideOf(*c->args[1], lv, rv, lh);
      if ((s0 == Side::kLeft || s0 == Side::kNeither) &&
          (s1 == Side::kRight || s1 == Side::kNeither) &&
          !(s0 == Side::kNeither && s1 == Side::kNeither)) {
        keys.left.push_back(c->args[0].get());
        keys.right.push_back(c->args[1].get());
        continue;
      }
      if (s0 == Side::kRight && (s1 == Side::kLeft || s1 == Side::kNeither)) {
        keys.left.push_back(c->args[1].get());
        keys.right.push_back(c->args[0].get());
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

  RowStack stack;
  stack.push_back(Frame{});
  for (const Frame& f : outer) stack.push_back(f);

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

  if (!keys.left.empty()) {
    // Hash join: build on the right side.
    GroupMap table;
    for (int64_t j = 0; j < static_cast<int64_t>(right->rows.size()); ++j) {
      MSQL_RETURN_IF_ERROR(state_->guard.Check());
      Row combined = combine(null_left, right->rows[j]);
      stack[0] = Frame{&combined, -1, nullptr};
      Row key;
      key.reserve(keys.right.size());
      bool has_null = false;
      for (const BoundExpr* k : keys.right) {
        MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*k, stack));
        if (v.is_null()) has_null = true;
        key.push_back(std::move(v));
      }
      if (has_null) continue;  // `=` never matches NULL
      table[std::move(key)].push_back(j);
    }
    for (const Row& l : left->rows) {
      MSQL_RETURN_IF_ERROR(state_->guard.Check());
      Row probe_combined = combine(l, null_right);
      stack[0] = Frame{&probe_combined, -1, nullptr};
      Row key;
      key.reserve(keys.left.size());
      bool has_null = false;
      for (const BoundExpr* k : keys.left) {
        MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*k, stack));
        if (v.is_null()) has_null = true;
        key.push_back(std::move(v));
      }
      bool matched = false;
      if (!has_null) {
        auto it = table.find(key);
        if (it != table.end()) {
          for (int64_t j : it->second) {
            MSQL_RETURN_IF_ERROR(state_->guard.Check());
            Row combined = combine(l, right->rows[j]);
            MSQL_ASSIGN_OR_RETURN(bool ok, eval_residual(combined));
            if (ok) {
              matched = true;
              if (keep_right) right_matched[j] = 1;
              MSQL_RETURN_IF_ERROR(
                  state_->guard.ChargeRows(1, combined.size()));
              rel->rows.push_back(std::move(combined));
            }
          }
        }
      }
      if (!matched && keep_left) {
        MSQL_RETURN_IF_ERROR(
            state_->guard.ChargeRows(1, rel->schema.size()));
        rel->rows.push_back(combine(l, null_right));
      }
    }
  } else {
    // Nested loop.
    for (const Row& l : left->rows) {
      bool matched = false;
      for (size_t j = 0; j < right->rows.size(); ++j) {
        MSQL_RETURN_IF_ERROR(state_->guard.Check());
        Row combined = combine(l, right->rows[j]);
        bool ok = true;
        if (plan.join_condition != nullptr) {
          stack[0] = Frame{&combined, -1, nullptr};
          MSQL_ASSIGN_OR_RETURN(ok,
                                ev.EvalPredicate(*plan.join_condition, stack));
        }
        if (ok) {
          matched = true;
          if (keep_right) right_matched[j] = 1;
          MSQL_RETURN_IF_ERROR(
              state_->guard.ChargeRows(1, combined.size()));
          rel->rows.push_back(std::move(combined));
        }
      }
      if (!matched && keep_left) {
        MSQL_RETURN_IF_ERROR(
            state_->guard.ChargeRows(1, rel->schema.size()));
        rel->rows.push_back(combine(l, null_right));
      }
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
  Evaluator ev(state_);

  const size_t num_keys = plan.group_exprs.size();
  const int64_t n = static_cast<int64_t>(child->rows.size());

  // Evaluate all group expressions once per child row — as whole columns
  // when every group expression has a kernel, row-at-a-time otherwise.
  std::vector<ColumnPtr> key_cols;
  std::vector<Row> key_values;
  if (num_keys > 0 && outer.empty() &&
      VectorizedGate(state_) == VectorGate::kOk) {
    auto arena = std::make_shared<Arena>();
    for (const auto& g : plan.group_exprs) {
      MSQL_ASSIGN_OR_RETURN(ColumnPtr col,
                            EvalVector(*g, *child, arena, state_));
      if (col == nullptr) {
        key_cols.clear();
        break;
      }
      key_cols.push_back(std::move(col));
    }
    if (key_cols.size() == num_keys) {
      state_->exec_vectorized_batches += static_cast<uint64_t>(NumBatches(n));
    } else {
      ++state_->exec_row_fallbacks;
    }
  }
  const bool keys_columnar = key_cols.size() == num_keys && num_keys > 0;
  if (!keys_columnar && num_keys > 0) {
    key_values.resize(static_cast<size_t>(n));
    RowStack stack;
    stack.push_back(Frame{});
    for (const Frame& f : outer) stack.push_back(f);
    for (int64_t i = 0; i < n; ++i) {
      MSQL_RETURN_IF_ERROR(state_->guard.Check());
      stack[0] = Frame{&child->rows[i], i, child.get()};
      Row& kv = key_values[i];
      kv.reserve(num_keys);
      for (const auto& g : plan.group_exprs) {
        MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*g, stack));
        kv.push_back(std::move(v));
      }
    }
  }
  auto key_at = [&](int64_t i, int k) {
    return keys_columnar ? key_cols[static_cast<size_t>(k)]->At(i)
                         : key_values[static_cast<size_t>(i)][k];
  };

  for (const std::vector<int>& set : plan.grouping_sets) {
    // Group rows for this grouping set: parallel arrays in first-seen order
    // (identical to the row path's GroupMap + group_order, without the
    // repeated map lookups downstream).
    std::vector<Row> group_keys;
    std::vector<std::vector<int64_t>> group_rows;

    bool grouped = false;
    if (keys_columnar && set.size() == 1) {
      // Single-key fast path over comparable codes: for BOOL/INT64/DATE the
      // payload IS the value, and for a dedup'd dictionary the code equals
      // the string. Code equality then coincides with IS NOT DISTINCT FROM
      // (same-kind payload equality), so grouping hashes an int64 instead of
      // a Value. DOUBLE is excluded: -0.0 == 0.0 yet differs bitwise.
      const ColumnVector& c = *key_cols[static_cast<size_t>(set[0])];
      if (c.kind == TypeKind::kBool || c.kind == TypeKind::kInt64 ||
          c.kind == TypeKind::kDate || c.kind == TypeKind::kNull ||
          (c.kind == TypeKind::kString && c.dict_unique)) {
        grouped = true;
        std::unordered_map<int64_t, size_t> by_code;
        size_t null_group = SIZE_MAX;
        for (int64_t i = 0; i < n; ++i) {
          if ((i & (kRowsPerBatch - 1)) == 0) {
            MSQL_RETURN_IF_ERROR(state_->guard.Check());
          }
          size_t gi;
          if (!c.IsValid(i)) {
            if (null_group == SIZE_MAX) {
              null_group = group_keys.size();
              group_keys.push_back(Row{Value::Null()});
              group_rows.emplace_back();
            }
            gi = null_group;
          } else {
            auto [it, inserted] = by_code.emplace(c.ints[i],
                                                  group_keys.size());
            if (inserted) {
              group_keys.push_back(Row{c.At(i)});
              group_rows.emplace_back();
            }
            gi = it->second;
          }
          group_rows[gi].push_back(i);
        }
      }
    }
    if (!grouped) {
      std::unordered_map<Row, size_t, KeyHash, KeyEq> index;
      for (int64_t i = 0; i < n; ++i) {
        MSQL_RETURN_IF_ERROR(state_->guard.Check());
        Row key;
        key.reserve(set.size());
        for (int k : set) key.push_back(key_at(i, k));
        auto [it, inserted] = index.emplace(std::move(key),
                                            group_keys.size());
        if (inserted) {
          group_keys.push_back(it->first);
          group_rows.emplace_back();
        }
        group_rows[it->second].push_back(i);
      }
    }
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
    // (same dimension expressions, different pinned key values), which is
    // exactly what the grouped strategy's batch evaluator exploits — one
    // index build, G probes, morsel-parallel (measure/grouped.h).
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
          state_->options.inline_visible_contexts &&
          me.modifiers.size() == 1 &&
          me.modifiers[0].kind == AtModifier::Kind::kVisible;

      std::vector<EvalContext> contexts;
      contexts.reserve(group_keys.size());
      for (size_t g = 0; g < group_keys.size(); ++g) {
        MSQL_RETURN_IF_ERROR(state_->guard.Check());
        const Row& key = group_keys[g];
        const std::vector<int64_t>& rows = group_rows[g];

        // Default group context: one dimension term per group key of this
        // grouping set that has provenance onto the measure's source.
        EvalContext ctx;
        RowStack call_stack;
        // Representative row: group keys may be closed over by modifiers.
        // Only needed when dimension terms are built — the VISIBLE-only
        // path never dereferences it, and touching child->rows here would
        // force a lazy columnar child to materialize its row vector.
        Frame rep;
        if (!visible_only && !rows.empty()) {
          rep = Frame{&child->rows[rows[0]], rows[0], child.get()};
        }
        call_stack.push_back(rep);
        for (const Frame& f : outer) call_stack.push_back(f);

        if (!visible_only) {
          for (size_t si = 0; si < set.size(); ++si) {
            int k = set[si];
            auto translated = TranslateToSource(*plan.group_exprs[k], m,
                                                /*close_over=*/
                                                RowStack(call_stack.begin() + 1,
                                                         call_stack.end()),
                                                nullptr, state_);
            if (!translated.ok()) continue;  // key is not a dimension of m
            std::shared_ptr<const BoundExpr> src(
                std::move(translated.value()));
            ctx.SetDim(src->ToString(), src, key[si]);
          }
        }

        // VISIBLE: the distinct source rows reachable from this group.
        std::shared_ptr<const std::vector<int64_t>> visible;
        if (m.rowid_col >= 0) {
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
  const std::vector<Row>& in = child->rows.vec();

  // Evaluate sort keys per row.
  Evaluator ev(state_);
  RowStack stack;
  stack.push_back(Frame{});
  for (const Frame& f : outer) stack.push_back(f);
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
  RowStack stack;
  stack.push_back(Frame{});
  for (const Frame& f : outer) stack.push_back(f);
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
  GroupMap seen;
  for (const Row& r : child->rows) {
    MSQL_RETURN_IF_ERROR(state_->guard.Check());
    Row key(r.begin(), r.begin() + width);
    auto [it, inserted] = seen.emplace(std::move(key), std::vector<int64_t>{});
    if (inserted) {
      MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(1, width));
      rel->rows.push_back(Row(r.begin(), r.begin() + width));
    }
    (void)it;
  }
  return RelationPtr(rel);
}

Result<RelationPtr> Executor::ExecSetOp(const LogicalPlan& plan,
                                        const RowStack& outer) {
  MSQL_ASSIGN_OR_RETURN(RelationPtr left, Execute(*plan.children[0], outer));
  MSQL_ASSIGN_OR_RETURN(RelationPtr right, Execute(*plan.children[1], outer));
  auto rel = std::make_shared<Relation>();
  rel->schema = plan.schema;
  const size_t width = plan.schema.size();
  auto truncate = [&](const Row& r) {
    return Row(r.begin(), r.begin() + std::min(width, r.size()));
  };
  switch (plan.set_op) {
    case SetOpKind::kUnionAll:
      MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(
          left->rows.size() + right->rows.size(), width));
      for (const Row& r : left->rows) rel->rows.push_back(truncate(r));
      for (const Row& r : right->rows) rel->rows.push_back(truncate(r));
      break;
    case SetOpKind::kUnion: {
      GroupMap seen;
      for (const auto* side : {&left->rows, &right->rows}) {
        for (const Row& r : *side) {
          MSQL_RETURN_IF_ERROR(state_->guard.Check());
          Row key = truncate(r);
          auto [it, inserted] = seen.emplace(key, std::vector<int64_t>{});
          (void)it;
          if (inserted) {
            MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(1, width));
            rel->rows.push_back(std::move(key));
          }
        }
      }
      break;
    }
    case SetOpKind::kExcept: {
      GroupMap right_set;
      for (const Row& r : right->rows) {
        MSQL_RETURN_IF_ERROR(state_->guard.Check());
        right_set.emplace(truncate(r), std::vector<int64_t>{});
      }
      GroupMap emitted;
      for (const Row& r : left->rows) {
        MSQL_RETURN_IF_ERROR(state_->guard.Check());
        Row key = truncate(r);
        if (right_set.count(key)) continue;
        auto [it, inserted] = emitted.emplace(key, std::vector<int64_t>{});
        (void)it;
        if (inserted) {
          MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(1, width));
          rel->rows.push_back(std::move(key));
        }
      }
      break;
    }
    case SetOpKind::kIntersect: {
      GroupMap right_set;
      for (const Row& r : right->rows) {
        MSQL_RETURN_IF_ERROR(state_->guard.Check());
        right_set.emplace(truncate(r), std::vector<int64_t>{});
      }
      GroupMap emitted;
      for (const Row& r : left->rows) {
        MSQL_RETURN_IF_ERROR(state_->guard.Check());
        Row key = truncate(r);
        if (!right_set.count(key)) continue;
        auto [it, inserted] = emitted.emplace(key, std::vector<int64_t>{});
        (void)it;
        if (inserted) {
          MSQL_RETURN_IF_ERROR(state_->guard.ChargeRows(1, width));
          rel->rows.push_back(std::move(key));
        }
      }
      break;
    }
    case SetOpKind::kNone:
      return Status(ErrorCode::kExecution, "SetOp node without operator");
  }
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
  RowStack stack;
  stack.push_back(Frame{});
  for (const Frame& f : outer) stack.push_back(f);

  // Window results per row.
  std::vector<std::vector<Value>> results(n,
                                          std::vector<Value>(num_windows));

  for (size_t w = 0; w < num_windows; ++w) {
    const WindowDef& def = plan.windows[w];
    // Partition rows.
    GroupMap partitions;
    std::vector<Row> order_seen;
    for (int64_t i = 0; i < static_cast<int64_t>(n); ++i) {
      MSQL_RETURN_IF_ERROR(state_->guard.Check());
      stack[0] = Frame{&child->rows[i], i, child.get()};
      Row key;
      key.reserve(def.partition_by.size());
      for (const auto& p : def.partition_by) {
        MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*p, stack));
        key.push_back(std::move(v));
      }
      partitions[std::move(key)].push_back(i);
    }
    for (auto& [key, rows] : partitions) {
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

Result<Value> EvalSubqueryExpr(const BoundExpr& e, const RowStack& stack,
                               Evaluator* ev) {
  ExecState* state = ev->state();
  MSQL_FAULT_POINT("exec.subquery");
  MSQL_RETURN_IF_ERROR(state->guard.Check());
  ++state->subquery_execs;

  std::string cache_key;
  const bool memoize = state->options.memoize_subqueries;
  const bool scalar_like = e.kind == BoundExprKind::kSubquery ||
                           e.kind == BoundExprKind::kExists;
  std::string shared_key;
  if (memoize) {
    cache_key = StrCat(reinterpret_cast<uintptr_t>(e.subplan.get()), "|");
    std::string literals;
    for (const auto& fv : e.free_vars) {
      MSQL_ASSIGN_OR_RETURN(Value v, ev->Eval(*fv, stack));
      literals += v.ToSqlLiteral();
      literals += ",";
    }
    cache_key += literals;
    auto it = state->subquery_cache.find(cache_key);
    if (it != state->subquery_cache.end()) {
      ++state->subquery_cache_hits;
      if (scalar_like) return it->second;
      // IN-subquery results depend on the probe value too; skip caching.
    }
    // Cross-query layer: free-variable *values* are part of the key, so
    // even correlated subqueries share safely under a structural plan
    // fingerprint (pointer keys above are meaningless across binds).
    if (scalar_like && state->shared_cache != nullptr) {
      auto [fp, inserted] =
          state->plan_fingerprints.emplace(e.subplan.get(), std::string());
      if (inserted) fp->second = FingerprintPlan(*e.subplan);
      shared_key = StrCat("q|", state->catalog_generation, "|",
                          state->param_sig, "|",
                          e.kind == BoundExprKind::kExists ? "e" : "s",
                          e.negated ? "!" : "", "|", fp->second, "|", literals);
      Value v;
      if (state->shared_cache->Lookup(shared_key, &v)) {
        ++state->shared_cache_hits;
        state->subquery_cache.emplace(cache_key, v);
        return v;
      }
      ++state->shared_cache_misses;
    }
  }

  auto publish = [&](const Value& v) -> Status {
    state->subquery_cache.emplace(cache_key, v);
    if (!shared_key.empty() && AdmitSharedCacheFill()) {
      MSQL_RETURN_IF_ERROR(state->guard.ChargeBytes(
          SharedMeasureCache::ApproxEntryBytes(shared_key, v)));
      state->shared_cache->Insert(shared_key, v, state->catalog_generation);
    }
    return Status::Ok();
  };

  Executor exec(state);
  MSQL_ASSIGN_OR_RETURN(RelationPtr result, exec.Execute(*e.subplan, stack));

  switch (e.kind) {
    case BoundExprKind::kSubquery: {
      if (result->rows.size() > 1) {
        return Status(ErrorCode::kExecution,
                      "scalar subquery returned more than one row");
      }
      Value v = result->rows.empty() ? Value::Null() : result->rows[0][0];
      if (memoize) MSQL_RETURN_IF_ERROR(publish(v));
      return v;
    }
    case BoundExprKind::kExists: {
      Value v = Value::Bool(result->rows.empty() == e.negated);
      if (memoize) MSQL_RETURN_IF_ERROR(publish(v));
      return v;
    }
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

}  // namespace msql
