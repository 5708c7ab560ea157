#include "plan/plan.h"

#include "common/string_util.h"

namespace msql {

namespace {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScanTable: return "Scan";
    case PlanKind::kValues: return "Values";
    case PlanKind::kProject: return "Project";
    case PlanKind::kFilter: return "Filter";
    case PlanKind::kAggregate: return "Aggregate";
    case PlanKind::kJoin: return "Join";
    case PlanKind::kSort: return "Sort";
    case PlanKind::kLimit: return "Limit";
    case PlanKind::kDistinct: return "Distinct";
    case PlanKind::kSetOp: return "SetOp";
    case PlanKind::kWindow: return "Window";
  }
  return "?";
}

}  // namespace

std::vector<PlanMeasure> PropagateSameSchema(const LogicalPlan& child) {
  std::vector<PlanMeasure> out;
  for (size_t i = 0; i < child.measures.size(); ++i) {
    const PlanMeasure& cm = child.measures[i];
    PlanMeasure pm;
    pm.define = false;
    pm.child_index = 0;
    pm.child_slot = static_cast<int>(i);
    pm.name = cm.name;
    pm.value_type = cm.value_type;
    pm.column = cm.column;
    pm.rowid_col = cm.rowid_col;
    pm.provenance = cm.provenance;
    out.push_back(std::move(pm));
  }
  return out;
}

std::string LogicalPlan::NodeLabel() const {
  std::string s = PlanKindName(kind);
  switch (kind) {
    case PlanKind::kScanTable:
      s += " " + table->name();
      break;
    case PlanKind::kValues:
      s += StrCat(" rows=", values_rows.size());
      break;
    case PlanKind::kProject: {
      std::vector<std::string> parts;
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (schema.column(i).hidden) continue;
        parts.push_back(exprs[i]->ToString());
      }
      s += " [" + Join(parts, ", ") + "]";
      if (predicate) s += " WHERE " + predicate->ToString();
      break;
    }
    case PlanKind::kFilter:
      s += " " + predicate->ToString();
      break;
    case PlanKind::kJoin:
      switch (join_type) {
        case JoinType::kInner: s += " INNER"; break;
        case JoinType::kLeft: s += " LEFT"; break;
        case JoinType::kRight: s += " RIGHT"; break;
        case JoinType::kFull: s += " FULL"; break;
        case JoinType::kCross: s += " CROSS"; break;
      }
      if (join_condition) s += " ON " + join_condition->ToString();
      break;
    case PlanKind::kAggregate: {
      std::vector<std::string> keys;
      for (const auto& g : group_exprs) keys.push_back(g->ToString());
      std::vector<std::string> aggs;
      for (const auto& a : agg_calls) {
        std::string t = AggIdName(a.agg);
        t += "(";
        std::vector<std::string> as;
        for (const auto& arg : a.args) as.push_back(arg->ToString());
        t += a.agg == AggId::kCountStar ? "*" : Join(as, ", ");
        t += ")";
        aggs.push_back(std::move(t));
      }
      for (const auto& m : measure_evals) aggs.push_back(m.display);
      s += " keys=[" + Join(keys, ", ") + "] outs=[" + Join(aggs, ", ") + "]";
      if (grouping_sets.size() > 1) {
        s += StrCat(" sets=", grouping_sets.size());
      }
      break;
    }
    case PlanKind::kSort: {
      std::vector<std::string> keys;
      for (const auto& k : sort_keys) {
        keys.push_back(k.expr->ToString() + (k.desc ? " DESC" : ""));
      }
      s += " [" + Join(keys, ", ") + "]";
      break;
    }
    case PlanKind::kLimit:
      if (limit_expr) s += " limit=" + limit_expr->ToString();
      if (offset_expr) s += " offset=" + offset_expr->ToString();
      break;
    case PlanKind::kSetOp:
      switch (set_op) {
        case SetOpKind::kUnionAll: s += " UNION ALL"; break;
        case SetOpKind::kUnion: s += " UNION"; break;
        case SetOpKind::kExcept: s += " EXCEPT"; break;
        case SetOpKind::kIntersect: s += " INTERSECT"; break;
        default: break;
      }
      break;
    case PlanKind::kWindow: {
      std::vector<std::string> ws;
      for (const auto& w : windows) {
        std::string t = AggIdName(w.agg);
        t += "(...) OVER (";
        std::vector<std::string> ps;
        for (const auto& p : w.partition_by) ps.push_back(p->ToString());
        t += "PARTITION BY " + Join(ps, ", ") + ")";
        ws.push_back(std::move(t));
      }
      s += " [" + Join(ws, ", ") + "]";
      break;
    }
    default:
      break;
  }
  if (!measures.empty()) {
    std::vector<std::string> ms;
    for (const auto& m : measures) ms.push_back(m.name);
    s += " measures=[" + Join(ms, ", ") + "]";
  }
  return s;
}

std::string LogicalPlan::ToString(int indent) const {
  std::string s(static_cast<size_t>(indent) * 2, ' ');
  s += NodeLabel();
  s += "\n";
  for (const auto& child : children) {
    s += child->ToString(indent + 1);
  }
  return s;
}

}  // namespace msql
