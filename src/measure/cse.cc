#include "measure/cse.h"

#include <algorithm>
#include <map>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "exec/agg_eval.h"
#include "measure/grouped.h"

namespace msql {

namespace {

// Clones `e`, rewriting nodes per TranslateToSource's contract.
Result<BoundExprPtr> TranslateRec(const BoundExpr& e, const RtMeasure& m,
                                  const RowStack& close_over,
                                  const EvalContext* incoming,
                                  ExecState* state) {
  switch (e.kind) {
    case BoundExprKind::kColumnRef: {
      if (e.depth == 0) {
        auto it = m.provenance.find(e.column);
        if (it == m.provenance.end()) {
          return Status(
              ErrorCode::kExecution,
              StrCat("column '", e.name, "' is not a dimension of measure '",
                     m.name, "'"));
        }
        return it->second->Clone();
      }
      // Correlated reference: close over the call-site value.
      size_t frame_idx = static_cast<size_t>(e.depth - 1);
      if (frame_idx >= close_over.size() ||
          close_over[frame_idx].row == nullptr) {
        return Status(ErrorCode::kExecution,
                      StrCat("correlated reference ", e.ToString(),
                             " out of scope in AT modifier"));
      }
      const Row& row = *close_over[frame_idx].row;
      if (e.column < 0 || static_cast<size_t>(e.column) >= row.size()) {
        return Status(ErrorCode::kExecution, "correlated column out of range");
      }
      return BLiteral(row[e.column]);
    }
    case BoundExprKind::kCurrent: {
      MSQL_ASSIGN_OR_RETURN(
          BoundExprPtr dim,
          TranslateRec(*e.current_dim, m, close_over, incoming, state));
      if (incoming != nullptr) {
        if (auto v = incoming->CurrentValue(dim->ToString())) {
          return BLiteral(*v);
        }
      }
      return BLiteral(Value::Null());
    }
    case BoundExprKind::kAgg:
    case BoundExprKind::kMeasureEval:
    case BoundExprKind::kSubquery:
    case BoundExprKind::kInSubquery:
    case BoundExprKind::kExists:
      return Status(ErrorCode::kExecution,
                    StrCat("expression ", e.ToString(),
                           " cannot appear in a dimension predicate"));
    default:
      break;
  }
  // Structural clone with translated children.
  BoundExprPtr c = e.Clone();
  // Re-translate children of the clone in place.
  Status status = Status::Ok();
  auto translate_child = [&](BoundExprPtr& child) {
    if (!status.ok() || child == nullptr) return;
    auto r = TranslateRec(*child, m, close_over, incoming, state);
    if (!r.ok()) {
      status = r.status();
      return;
    }
    child = std::move(r.value());
  };
  for (auto& a : c->args) translate_child(a);
  if (c->filter) translate_child(c->filter);
  for (auto& [w, t] : c->when_clauses) {
    translate_child(w);
    translate_child(t);
  }
  if (c->else_expr) translate_child(c->else_expr);
  if (c->operand) translate_child(c->operand);
  MSQL_RETURN_IF_ERROR(status);
  return c;
}

}  // namespace

Result<BoundExprPtr> TranslateToSource(const BoundExpr& e, const RtMeasure& m,
                                       const RowStack& close_over,
                                       const EvalContext* incoming,
                                       ExecState* state) {
  return TranslateRec(e, m, close_over, incoming, state);
}

Result<EvalContext> BuildRowContext(const RtMeasure& m, const Frame& frame,
                                    ExecState* state) {
  (void)state;
  EvalContext ctx;
  // Deterministic order: by column index.
  std::map<int, const std::shared_ptr<BoundExpr>*> ordered;
  for (const auto& [col, expr] : m.provenance) ordered[col] = &expr;
  for (const auto& [col, expr] : ordered) {
    if (frame.row == nullptr || static_cast<size_t>(col) >= frame.row->size()) {
      continue;
    }
    ctx.SetDim((*expr)->ToString(), *expr, (*frame.row)[col]);
  }
  return ctx;
}

Status ApplyModifiers(const RtMeasure& m,
                      const std::vector<BoundAtModifier>& mods,
                      const RowStack& call_stack,
                      const std::shared_ptr<const std::vector<int64_t>>&
                          visible_rowids,
                      ExecState* state, EvalContext* ctx) {
  // CURRENT resolves against the context the AT clause was entered with —
  // the cell's own context — not the partially-modified one. Otherwise
  // `AT (ALL d SET d = CURRENT d)` would read CURRENT d after ALL d erased
  // its term, and the paper's round-trip identity (§3.5) would not hold.
  const EvalContext entry = *ctx;
  for (const BoundAtModifier& mod : mods) {
    switch (mod.kind) {
      case AtModifier::Kind::kAll:
        ctx->Clear();
        break;
      case AtModifier::Kind::kAllDims:
        for (const auto& dim : mod.dims) {
          // A dimension with no provenance onto this measure's source (e.g.
          // a column of the other join side) can never have a term in the
          // context, so removing it is a no-op rather than an error.
          auto src = TranslateToSource(*dim, m, call_stack, ctx, state);
          if (!src.ok()) continue;
          ctx->RemoveDim(src.value()->ToString());
        }
        break;
      case AtModifier::Kind::kSet: {
        MSQL_ASSIGN_OR_RETURN(
            BoundExprPtr dim_src,
            TranslateToSource(*mod.set_dim, m, call_stack, ctx, state));
        // Evaluate the value at the call site.
        Evaluator ev(state);
        ev.current_context = &entry;
        ev.current_measure = &m;
        MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*mod.set_value, call_stack));
        std::string key = dim_src->ToString();
        ctx->SetDim(std::move(key),
                    std::shared_ptr<const BoundExpr>(std::move(dim_src)), v);
        break;
      }
      case AtModifier::Kind::kVisible:
        if (visible_rowids == nullptr) {
          return Status(ErrorCode::kExecution,
                        "VISIBLE is not available at this call site");
        }
        ctx->AddRowIds(visible_rowids);
        break;
      case AtModifier::Kind::kWhere: {
        // Paper table 3: WHERE sets the evaluation context to the predicate.
        MSQL_ASSIGN_OR_RETURN(
            BoundExprPtr pred,
            TranslateToSource(*mod.predicate, m, call_stack, &entry, state));
        ctx->Clear();
        ctx->AddPredicate(std::shared_ptr<const BoundExpr>(std::move(pred)));
        break;
      }
    }
  }
  return Status::Ok();
}

namespace {

// Per-query memo key: pointer identities, stable within one bind.
std::string MeasureMemoKey(const RtMeasure& m, const std::string& signature) {
  return StrCat("m|", reinterpret_cast<uintptr_t>(m.source.get()), "|",
                reinterpret_cast<uintptr_t>(m.formula.get()), "|", signature);
}

// Selects the source rows `ctx` admits by scanning the source.
Status ScanAdmitted(const EvalContext& ctx, const Relation& src,
                    ExecState* state, std::vector<int64_t>* selected) {
  ++state->measure_source_scans;
  Evaluator ev(state);
  RowStack stack(1);
  for (int64_t i = 0; i < static_cast<int64_t>(src.rows.size()); ++i) {
    MSQL_RETURN_IF_ERROR(state->guard.Check());
    bool admit = true;
    for (const ContextTerm& term : ctx.terms()) {
      switch (term.kind) {
        case ContextTerm::Kind::kDimEq: {
          stack[0] = Frame{&src.rows[i], i, &src};
          MSQL_ASSIGN_OR_RETURN(Value v, ev.Eval(*term.src_expr, stack));
          // IS NOT DISTINCT FROM per paper footnote 1 (NULL handling).
          admit = Value::NotDistinct(v, term.value);
          break;
        }
        case ContextTerm::Kind::kPred: {
          stack[0] = Frame{&src.rows[i], i, &src};
          MSQL_ASSIGN_OR_RETURN(bool ok, ev.EvalPredicate(*term.src_expr,
                                                          stack));
          admit = ok;
          break;
        }
        case ContextTerm::Kind::kRowIds:
          admit = std::binary_search(term.rowids->begin(), term.rowids->end(),
                                     i);
          break;
      }
      if (!admit) break;
    }
    if (admit) selected->push_back(i);
  }
  return Status::Ok();
}

// The measure's value in `ctx`, computed over the source rows it admits.
Result<Value> ComputeMeasure(const RtMeasure& m, const EvalContext& ctx,
                             ExecState* state) {
  const Relation& src = *m.source;
  std::vector<int64_t> scanned;
  const std::vector<int64_t>* selected = &scanned;

  // Fast path (paper section 6.4, "inline the measure definition"): a
  // context whose one term is a row-id restriction (EvalContext keeps at
  // most one) admits exactly those rows — no scan of the source required.
  if (state->options.measure_strategy != MeasureStrategy::kNaive &&
      ctx.terms().size() == 1 &&
      ctx.terms()[0].kind == ContextTerm::Kind::kRowIds) {
    ++state->measure_inline_evals;
    selected = ctx.terms()[0].rowids.get();
  } else {
    MSQL_RETURN_IF_ERROR(ScanAdmitted(ctx, src, state, &scanned));
  }
  return EvalFormulaOverRows(*m.formula, src, *selected, state);
}

}  // namespace

Result<Value> EvaluateMeasure(const RtMeasure& m, const EvalContext& ctx,
                              ExecState* state) {
  MSQL_FAULT_POINT("measure.eval");
  MSQL_RETURN_IF_ERROR(state->guard.Check());
  ++state->measure_evals;
  if (++state->depth > state->options.max_recursion_depth) {
    --state->depth;
    return RecursionLimitExceeded("measure evaluation",
                                  state->options.max_recursion_depth);
  }
  struct DepthGuard {
    ExecState* s;
    ~DepthGuard() { --s->depth; }
  } guard{state};

  // Grouped strategy: an all-dimension context is one lookup in its
  // shape's key->value table (measure/grouped.h), shared by every
  // same-shaped context in the query and, via the shared cache, across
  // queries; a group's value is computed on its first lookup. The table is
  // the cache, so nothing is memoized per context. A null table means the
  // build was degraded by fault injection — fall through to the scan.
  MSQL_ASSIGN_OR_RETURN(TableRoute route, RouteToTable(m, ctx, state));
  if (route.table != nullptr) return route.Lookup(m, ctx, state);

  if (state->options.measure_strategy == MeasureStrategy::kNaive) {
    return ComputeMeasure(m, ctx, state);
  }
  // Cross-query layer (docs/CONCURRENCY.md): the fingerprint replaces the
  // per-bind pointers with a structural identity stable across queries.
  // Signatures that render an embedded subquery are skipped — that
  // rendering is not injective, so two different predicates could alias
  // one key.
  const std::string signature = ctx.Signature();
  SharedCacheSlot shared;
  if (m.fingerprint != nullptr &&
      signature.find("<subquery>") == std::string::npos) {
    shared = SharedCacheSlot(state, "m", {*m.fingerprint, signature});
  }
  MemoSlot memo(state, MeasureMemoKey(m, signature), std::move(shared),
                &state->measure_cache_hits);
  std::shared_ptr<const void> hit;
  if (memo.Lookup(&hit)) return *static_cast<const Value*>(hit.get());
  MSQL_ASSIGN_OR_RETURN(Value result, ComputeMeasure(m, ctx, state));
  MSQL_RETURN_IF_ERROR(memo.Fill(std::make_shared<const Value>(result),
                                 MemoValueBytes(result)));
  return result;
}

Result<Value> EvalFormulaOverRows(const BoundExpr& formula,
                                  const Relation& source,
                                  const std::vector<int64_t>& rows,
                                  ExecState* state) {
  switch (formula.kind) {
    case BoundExprKind::kLiteral:
      return formula.literal;
    case BoundExprKind::kAgg:
      return EvalAggCall(formula.agg, formula.args, formula.distinct,
                         formula.filter.get(), source, rows, /*outer=*/{},
                         state);
    case BoundExprKind::kMeasureEval: {
      // Reference to a measure of the formula's input table (paper section
      // 5.4, composition "one step at a time"): evaluate the inner measure
      // over the inner rows reachable from the current row set, then apply
      // this reference's own modifiers.
      if (formula.depth != 0 || formula.measure_slot < 0 ||
          static_cast<size_t>(formula.measure_slot) >=
              source.measures.size()) {
        return Status(ErrorCode::kExecution,
                      "unresolvable measure reference in formula");
      }
      const RtMeasure& inner = source.measures[formula.measure_slot];
      MSQL_ASSIGN_OR_RETURN(auto reachable,
                            CollectRowIds(inner, source, rows));
      EvalContext ctx;
      ctx.AddRowIds(reachable);
      MSQL_RETURN_IF_ERROR(ApplyModifiers(inner, formula.modifiers,
                                          /*call_stack=*/{}, reachable, state,
                                          &ctx));
      return EvaluateMeasure(inner, ctx, state);
    }
    case BoundExprKind::kColumnRef:
      return Status(ErrorCode::kExecution,
                    StrCat("measure formula references column '", formula.name,
                           "' outside an aggregate"));
    case BoundExprKind::kFunc: {
      std::vector<Value> args;
      args.reserve(formula.args.size());
      for (const auto& a : formula.args) {
        MSQL_ASSIGN_OR_RETURN(Value v,
                              EvalFormulaOverRows(*a, source, rows, state));
        args.push_back(std::move(v));
      }
      return EvalScalarFunction(formula.func, args);
    }
    case BoundExprKind::kCase: {
      for (const auto& [when, then] : formula.when_clauses) {
        MSQL_ASSIGN_OR_RETURN(Value c,
                              EvalFormulaOverRows(*when, source, rows, state));
        if (!c.is_null() && c.bool_val()) {
          return EvalFormulaOverRows(*then, source, rows, state);
        }
      }
      if (formula.else_expr) {
        return EvalFormulaOverRows(*formula.else_expr, source, rows, state);
      }
      return Value::Null();
    }
    case BoundExprKind::kCast: {
      MSQL_ASSIGN_OR_RETURN(
          Value v, EvalFormulaOverRows(*formula.operand, source, rows, state));
      return v.CastTo(formula.cast_to);
    }
    case BoundExprKind::kIsNull: {
      MSQL_ASSIGN_OR_RETURN(
          Value v, EvalFormulaOverRows(*formula.operand, source, rows, state));
      return Value::Bool(v.is_null() != formula.negated);
    }
    default:
      return Status(ErrorCode::kExecution,
                    StrCat("unsupported construct in measure formula: ",
                           formula.ToString()));
  }
}

Result<std::shared_ptr<const std::vector<int64_t>>> CollectRowIds(
    const RtMeasure& m, const Relation& rel,
    const std::vector<int64_t>& rows) {
  auto ids = std::make_shared<std::vector<int64_t>>();
  ids->reserve(rows.size());
  if (m.rowid_col < 0) {
    return Status(ErrorCode::kExecution,
                  StrCat("measure '", m.name, "' has no row-id column"));
  }
  // Columnar fast path: read the hidden row-id column directly (self-gating
  // — only vectorized operators attach a columnar sidecar). Avoids forcing
  // a lazy relation to materialize its row vector just for one column.
  if (rel.columns != nullptr &&
      static_cast<size_t>(m.rowid_col) < rel.columns->cols.size() &&
      rel.columns->cols[m.rowid_col] != nullptr &&
      rel.columns->cols[m.rowid_col]->kind == TypeKind::kInt64) {
    const ColumnVector& c = *rel.columns->cols[m.rowid_col];
    for (int64_t idx : rows) {
      if (c.IsValid(idx)) ids->push_back(c.ints[idx]);
    }
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
    return std::shared_ptr<const std::vector<int64_t>>(std::move(ids));
  }
  for (int64_t idx : rows) {
    const Row& row = rel.rows[idx];
    if (static_cast<size_t>(m.rowid_col) >= row.size()) {
      return Status(ErrorCode::kExecution, "row-id column out of range");
    }
    const Value& v = row[m.rowid_col];
    if (!v.is_null()) ids->push_back(v.int_val());
  }
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  return std::shared_ptr<const std::vector<int64_t>>(std::move(ids));
}

Result<Value> EvalMeasureAtRow(const BoundExpr& e, const RowStack& stack,
                               Evaluator* ev) {
  if (e.depth < 0 || static_cast<size_t>(e.depth) >= stack.size() ||
      stack[e.depth].rel == nullptr) {
    return Status(ErrorCode::kExecution,
                  StrCat("measure ", e.name, " referenced out of scope"));
  }
  const Frame& frame = stack[e.depth];
  const Relation& rel = *frame.rel;
  if (e.measure_slot < 0 ||
      static_cast<size_t>(e.measure_slot) >= rel.measures.size()) {
    return Status(ErrorCode::kExecution,
                  StrCat("measure slot ", e.measure_slot, " out of range"));
  }
  const RtMeasure& m = rel.measures[e.measure_slot];

  // Default per-row context: every dimension pinned to this row's value.
  MSQL_ASSIGN_OR_RETURN(EvalContext ctx,
                        BuildRowContext(m, frame, ev->state()));

  // VISIBLE at a row call site restricts to this row's source row.
  std::shared_ptr<const std::vector<int64_t>> visible;
  if (m.rowid_col >= 0 && frame.row != nullptr &&
      static_cast<size_t>(m.rowid_col) < frame.row->size() &&
      !(*frame.row)[m.rowid_col].is_null()) {
    auto ids = std::make_shared<std::vector<int64_t>>();
    ids->push_back((*frame.row)[m.rowid_col].int_val());
    visible = std::move(ids);
  }

  // The call-site stack for modifier evaluation starts at the measure's own
  // scope.
  RowStack call_stack(stack.begin() + e.depth, stack.end());
  MSQL_RETURN_IF_ERROR(ApplyModifiers(m, e.modifiers, call_stack, visible,
                                      ev->state(), &ctx));
  return EvaluateMeasure(m, ctx, ev->state());
}

}  // namespace msql
