#include "runtime/fingerprint.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"

namespace msql {

namespace {

void AppendExpr(const BoundExpr& e, std::string* out);
void AppendPlan(const LogicalPlan& p, std::string* out);

void AppendOptExpr(const BoundExprPtr& e, std::string* out) {
  if (e == nullptr) {
    *out += "~";
  } else {
    AppendExpr(*e, out);
  }
}

void AppendModifier(const BoundAtModifier& m, std::string* out) {
  *out += StrCat("@", static_cast<int>(m.kind), "{");
  for (const auto& d : m.dims) AppendExpr(*d, out);
  AppendOptExpr(m.set_dim, out);
  AppendOptExpr(m.set_value, out);
  AppendOptExpr(m.predicate, out);
  *out += "}";
}

void AppendExpr(const BoundExpr& e, std::string* out) {
  *out += StrCat("(", static_cast<int>(e.kind), ":");
  switch (e.kind) {
    case BoundExprKind::kLiteral:
      *out += e.literal.ToSqlLiteral();
      break;
    case BoundExprKind::kColumnRef:
      *out += StrCat(e.depth, ".", e.column);
      break;
    case BoundExprKind::kRowIndex:
      break;
    case BoundExprKind::kFunc:
      *out += StrCat(static_cast<int>(e.func), "/", e.func_name);
      for (const auto& a : e.args) AppendExpr(*a, out);
      break;
    case BoundExprKind::kAgg:
      *out += StrCat(static_cast<int>(e.agg), e.distinct ? "D" : "");
      for (const auto& a : e.args) AppendExpr(*a, out);
      if (e.filter) {
        *out += "F";
        AppendExpr(*e.filter, out);
      }
      break;
    case BoundExprKind::kCase:
      for (const auto& [w, t] : e.when_clauses) {
        AppendExpr(*w, out);
        AppendExpr(*t, out);
      }
      AppendOptExpr(e.else_expr, out);
      break;
    case BoundExprKind::kCast:
      *out += TypeKindName(e.cast_to);
      AppendExpr(*e.operand, out);
      break;
    case BoundExprKind::kIsNull:
    case BoundExprKind::kLike:
    case BoundExprKind::kInList:
      *out += e.negated ? "!" : "";
      AppendOptExpr(e.operand, out);
      for (const auto& a : e.args) AppendExpr(*a, out);
      break;
    case BoundExprKind::kSubquery:
    case BoundExprKind::kInSubquery:
    case BoundExprKind::kExists:
      *out += e.negated ? "!" : "";
      AppendOptExpr(e.operand, out);
      if (e.subplan) AppendPlan(*e.subplan, out);
      for (const auto& fv : e.free_vars) AppendExpr(*fv, out);
      break;
    case BoundExprKind::kMeasureEval:
      *out += StrCat(e.depth, ".", e.measure_slot);
      for (const auto& m : e.modifiers) AppendModifier(m, out);
      break;
    case BoundExprKind::kCurrent:
      AppendOptExpr(e.current_dim, out);
      break;
    case BoundExprKind::kGroupingBit:
      *out += StrCat(e.grouping_bit, ".", e.grouping_col);
      break;
    case BoundExprKind::kParam:
      // Structural only: two plans differing solely in parameter *values*
      // fingerprint identically. Cross-query shared-cache keys therefore
      // append ExecState::param_sig alongside the fingerprint.
      *out += StrCat("$", e.param_index);
      break;
  }
  *out += ")";
}

void AppendSchema(const Schema& s, std::string* out) {
  *out += "[";
  for (const Column& c : s.columns()) {
    *out += StrCat(c.name, ":", static_cast<int>(c.type.kind),
                   c.hidden ? "h" : "", ";");
  }
  *out += "]";
}

void AppendPlan(const LogicalPlan& p, std::string* out) {
  *out += StrCat("<", static_cast<int>(p.kind), " ");
  AppendSchema(p.schema, out);
  switch (p.kind) {
    case PlanKind::kScanTable:
      *out += p.table->name();
      break;
    case PlanKind::kValues:
      for (const auto& row : p.values_rows) {
        *out += "r";
        for (const auto& e : row) AppendExpr(*e, out);
      }
      break;
    case PlanKind::kProject:
      for (const auto& e : p.exprs) AppendExpr(*e, out);
      if (p.predicate) {
        *out += "w";
        AppendExpr(*p.predicate, out);
      }
      break;
    case PlanKind::kFilter:
      AppendOptExpr(p.predicate, out);
      break;
    case PlanKind::kJoin:
      *out += StrCat("j", static_cast<int>(p.join_type));
      AppendOptExpr(p.join_condition, out);
      break;
    case PlanKind::kAggregate:
      for (const auto& g : p.group_exprs) AppendExpr(*g, out);
      *out += "|";
      for (const auto& set : p.grouping_sets) {
        *out += "s";
        for (int i : set) *out += StrCat(i, ",");
      }
      for (const auto& a : p.agg_calls) {
        *out += StrCat("a", static_cast<int>(a.agg), a.distinct ? "D" : "");
        for (const auto& arg : a.args) AppendExpr(*arg, out);
        AppendOptExpr(a.filter, out);
      }
      for (const auto& m : p.measure_evals) {
        *out += StrCat("m", m.measure_slot);
        for (const auto& mod : m.modifiers) AppendModifier(mod, out);
      }
      break;
    case PlanKind::kSort:
      for (const auto& k : p.sort_keys) {
        AppendExpr(*k.expr, out);
        *out += StrCat(k.desc ? "D" : "A", k.nulls_first ? "F" : "L");
      }
      break;
    case PlanKind::kLimit:
      AppendOptExpr(p.limit_expr, out);
      AppendOptExpr(p.offset_expr, out);
      break;
    case PlanKind::kSetOp:
      *out += StrCat("o", static_cast<int>(p.set_op));
      break;
    case PlanKind::kDistinct:
      break;
    case PlanKind::kWindow:
      for (const auto& w : p.windows) {
        *out += StrCat("w", static_cast<int>(w.agg));
        for (const auto& a : w.args) AppendExpr(*a, out);
        *out += "P";
        for (const auto& pb : w.partition_by) AppendExpr(*pb, out);
        *out += "O";
        for (const auto& [e, desc] : w.order_by) {
          AppendExpr(*e, out);
          *out += desc ? "D" : "A";
        }
      }
      break;
  }
  // Measures riding on this node: definitions contribute their formula,
  // propagations their wiring; provenance is rendered sorted for
  // determinism (it is stored in an unordered_map).
  for (const PlanMeasure& m : p.measures) {
    *out += StrCat("M", m.define ? "d" : "p", m.name, ":", m.column, ":",
                   m.rowid_col, ":", m.child_index, ":", m.child_slot);
    if (m.formula) AppendExpr(*m.formula, out);
    std::map<int, const BoundExpr*> sorted;
    for (const auto& [col, expr] : m.provenance) sorted[col] = expr.get();
    for (const auto& [col, expr] : sorted) {
      *out += StrCat("v", col);
      AppendExpr(*expr, out);
    }
  }
  for (const auto& child : p.children) AppendPlan(*child, out);
  *out += ">";
}

}  // namespace

std::string FingerprintPlan(const LogicalPlan& plan) {
  std::string out;
  out.reserve(256);
  AppendPlan(plan, &out);
  return out;
}

std::string FingerprintExpr(const BoundExpr& expr) {
  std::string out;
  out.reserve(64);
  AppendExpr(expr, &out);
  return out;
}

}  // namespace msql
